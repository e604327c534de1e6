"""Deterministic random streams.

A master seed splits into per-trial streams via
``SeedSequence(master, spawn_key=(trial_index,))`` feeding PCG64.  The
derivation is stable across platforms and numpy versions, so any trial can
be reproduced in isolation from ``(master, index)``.  A walk's backward
steps read a second stream, ``Generator(rng.bit_generator.jumped())``,
taken from the trial's stream before its first draw; ``jumped()`` belongs
to the bit generator, whose streams NEP 19 keeps fixed across releases.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "PCG64(SeedSequence(master, spawn_key=(trial,)))"
# the stream of a walk trial's backward steps
BACKWARD_NAME = "Generator(bit_generator.jumped()) of the trial's stream"


def spawn(master: int, index: int) -> np.random.Generator:
    """Generator for trial `index` of the experiment seeded by `master`."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(index,)))


def normalize(seed) -> np.random.Generator:
    """Accept an int, SeedSequence, or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
