"""Cutting-and-stacking towers with exact symbolic names.

A construction is a sequence of stages ``(c_n; S_{n,1..c_n})``: cut the
current column into ``c_n`` slices, put ``S_{n,k}`` spacer levels above
slice k, and stack.  Level n of the tower induces a word ``B_n`` over
{base, spacer} of length ``q_n`` describing q_n consecutive orbit
positions of a base point; ``B_{n+1}`` is B_n, then S_{n,1} spacers, ...,
B_n, then S_{n,c_n} spacers.

Occupation counts over windows of astronomical radius never materialize a
word: they come from prefix counts computed down the block structure.
Each level word begins with the one below it, so a prefix count depends
on the position alone.  The prefix positions of a whole ensemble of names
descend together, one level per step, on an int64 table of the block
starts of the levels whose heights fit, at most 62; a longer position
first descends with Python ints until the table holds it.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DepthCapError,
    ExpansionBudgetError,
    InvariantViolationError,
    StageDataExhaustedError,
    check_keys,
)
from .regvar import ScalingSequence
from .streams import normalize

BASE = 1
SPACER = 0
SPACER_TOKEN = "2q"

DEFAULT_EXPANSION_BUDGET = 10 ** 7
# A level is tabled in int64 while its height stays below this.
_INT64_LIMIT = 2 ** 62
DEFAULT_DEPTH_CAP = 10 ** 4

PRESETS = ("odometer", "chacon", "heavy2q")


@dataclass(frozen=True)
class Stage:
    """One cutting stage: cut count c >= 2 and c spacer entries.

    A spacer entry is a nonnegative integer or the token "2q", which
    evaluates to twice the current tower height when the stage is applied.
    """

    c: int
    spacers: tuple

    def __post_init__(self):
        if not isinstance(self.c, int) or isinstance(self.c, bool) or self.c < 2:
            raise ConfigError(f"cut count 'c' must be an int >= 2, got {self.c!r}")
        if len(self.spacers) != self.c:
            raise ConfigError(
                f"stage with c={self.c} needs {self.c} spacer entries, "
                f"got {len(self.spacers)}")
        for s in self.spacers:
            if s == SPACER_TOKEN:
                continue
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ConfigError(f"spacer entries must be ints >= 0 or '2q', got {s!r}")


@dataclass(frozen=True)
class ConstructionData:
    """Stage data, finitely listed with an optional repeating suffix.

    ``repeat_from`` is a 0-based index into ``stages``; stages from that
    index onward repeat cyclically forever.  Without it the data is finite
    and deep queries raise StageDataExhaustedError.
    """

    stages: tuple[Stage, ...]
    repeat_from: int | None = None
    name: str | None = None

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("at least one stage is required")
        if self.name is not None and not isinstance(self.name, str):
            raise ConfigError(f"construction 'name' must be a string, got {self.name!r}")
        r = self.repeat_from
        if r is not None and not (isinstance(r, int) and not isinstance(r, bool)
                                  and 0 <= r < len(self.stages)):
            raise ConfigError(
                f"repeat_from must be an int index into the {len(self.stages)} "
                f"stages, got {r!r}")

    def stage(self, n: int) -> Stage:
        """Stage n (1-based)."""
        if n < 1:
            raise ValueError("stage index is 1-based")
        if n <= len(self.stages):
            return self.stages[n - 1]
        if self.repeat_from is None:
            listed = len(self.stages)
            raise StageDataExhaustedError(
                f"construction {self.name or 'custom'} lists {listed} "
                f"stage{'' if listed == 1 else 's'} without a repeating suffix; "
                f"stage {n} is undefined")
        cycle = len(self.stages) - self.repeat_from
        return self.stages[self.repeat_from + (n - 1 - self.repeat_from) % cycle]

    @classmethod
    def from_dict(cls, doc: dict, name: str | None = None) -> "ConstructionData":
        """Data from a JSON object; a key the format does not define is an error."""
        check_keys(doc, ("stages", "repeat_from", "name"), "construction data")
        try:
            stages = []
            for st in doc["stages"]:
                check_keys(st, ("c", "spacers"), "a stage")
                stages.append(Stage(st["c"], tuple(st["spacers"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed construction data: {exc}") from exc
        return cls(tuple(stages), doc.get("repeat_from"), doc.get("name", name))

    @classmethod
    def from_json(cls, text: str, name: str | None = None) -> "ConstructionData":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"construction data is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, name)


def load_preset(name: str) -> ConstructionData:
    """Load one of the shipped fixtures: odometer, chacon, heavy2q."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
    text = resources.files("ergosum").joinpath("presets", f"{name}.json").read_text()
    return ConstructionData.from_json(text, name=name)


class Tower:
    """Lazily extended tower bookkeeping for one construction.

    Each stage is resolved once into plain lists: exact heights q_n, cut
    products C_n and the block starts of the stage, from which the spacer
    runs follow (the run after copy k ends where copy k + 1 or B_{n+1} does).
    Every level word begins with the word below it, so the prefix count
    P(j), the number of base symbols among the first j positions, depends
    on j alone.  The levels n with q_n < 2^62, at most 62 since
    q_{n+1} >= 2 q_n, also fill an int64 table, one row per level
    (q_n, C_{n-1}, then stage n's block starts, padded with q_{n+1}); the
    top row, whose starts no descent reads, holds padding alone, so every
    entry is exact.  Prefix counts descend that table one level per
    step for a whole batch of positions at once.  One tower serves every
    sampler of a construction; it extends itself lazily, so its samplers
    must share one thread.
    """

    def __init__(self, data: ConstructionData):
        self.data = data
        self._q: list[int] = [1]            # q_n, level n = index + 1
        self._cut_product: list[int] = [1]  # C_n, n = index: base count of level n + 1
        # stage n = index + 1: k*q_n + S_{n,1} + ... + S_{n,k} for k < c_n
        self._starts: list[tuple[int, ...]] = []
        self._table = np.ones((1, 2), dtype=np.int64)   # row = level - 1: q_1 = C_0 = 1

    # -- stage/height access (1-based) --------------------------------

    def ensure_stage(self, n: int) -> None:
        """Resolve stages 1..n (and heights q_1..q_{n+1})."""
        resolved = len(self._starts)
        if resolved >= n:
            return
        while len(self._starts) < n:
            stage = self.data.stage(len(self._starts) + 1)
            q_m = self._q[-1]
            row = tuple(2 * q_m if s == SPACER_TOKEN else s for s in stage.spacers)
            starts = tuple(accumulate((q_m + s for s in row[:-1]), initial=0))
            self._starts.append(starts)
            self._q.append(starts[-1] + q_m + row[-1])
            self._cut_product.append(self._cut_product[-1] * stage.c)
        if len(self._table) == resolved + 1:
            # every level so far fits: table the new ones that still do.  A
            # descent reads only the rows below its first, so the top row's
            # starts are never read and it holds padding alone.
            rows = sum(q < _INT64_LIMIT for q in self._q)
            blocks = self._starts[:rows - 1] + [()]
            width = 2 + max(map(len, blocks))
            self._table = np.array(
                [[self._q[i], self._cut_product[i], *starts,
                  *[self._q[min(i + 1, rows - 1)]] * (width - 2 - len(starts))]
                 for i, starts in enumerate(blocks)], dtype=np.int64)

    def q(self, level: int) -> int:
        self.ensure_stage(level - 1)
        return self._q[level - 1]

    # -- hierarchical prefix counting ----------------------------------

    def prefix_counts(self, positions: Sequence[int]) -> list[int]:
        """P(j), the base symbols among the first j positions, for each j.

        All positions descend together, one level per step, from the
        lowest level whose height reaches them: each picks the copy of the
        lower word that holds it from its row of block starts, and stops
        once it covers that whole copy or reaches its start.  A position
        past the table's top height first descends alone with Python ints.
        """
        positions = list(positions)
        if not positions:
            return []
        if min(positions) < 0:
            raise ValueError(f"prefix index {min(positions)} is negative")
        reach = max(positions)
        while self._q[-1] < reach:
            self.ensure_stage(len(self._starts) + 1)
        top = self._top()
        counts = [0] * len(positions)
        if reach > top:
            for i, j in enumerate(positions):
                if j > top:
                    positions[i], counts[i] = self._descend_wide(j, top)
        table = self._table
        j = np.array(positions, dtype=np.int64)
        row = np.searchsorted(table[:, 0], j)
        full = j == table[row, 0]
        count = full * table[row, 1]
        j[full] = 0
        # column 2 holds every row's first start, 0; "clip" keeps finished
        # positions (j = 0, which add nothing) on level 1 below the bottom
        firsts = np.arange(len(j)) * table.shape[1] + 2
        while j.any():
            row -= 1
            lower = np.take(table, row, axis=0, mode="clip")
            k = np.zeros(len(j), dtype=np.int64)
            for c in range(3, table.shape[1]):
                k += lower[:, c] <= j
            j -= np.take(lower, firsts + k)
            full = j >= lower[:, 0]
            count += (k + full) * lower[:, 1]
            j[full] = 0
        return [a + b for a, b in zip(counts, count.tolist())]

    def _top(self) -> int:
        """Height of the table's top level."""
        return self._q[len(self._table) - 1]

    def _descend_wide(self, j: int, top: int) -> tuple[int, int]:
        """Descend with Python ints until j <= top: (offset left, count so far)."""
        q, bases, starts = self._q, self._cut_product, self._starts
        level = bisect_left(q, j) + 1
        total = 0
        while j < q[level - 1]:
            if j <= top:
                return j, total
            level -= 1
            row = starts[level - 1]
            k = bisect_right(row, j) - 1
            total += k * bases[level - 1]
            j -= row[k]
        # j covers its whole copy of the level word
        return 0, total + bases[level - 1]


@dataclass(eq=False)
class SymbolicWord:
    """Materialized level word over {base, spacer} (1 = base)."""

    symbols: np.ndarray
    level: int


def _expand(tower: Tower, n: int) -> np.ndarray:
    """The level-n word of a tower resolved to stage n - 1: each B_{m+1}
    holds copies of B_m at stage m's block starts and spacers elsewhere."""
    word = np.ones(1, dtype=np.uint8)
    for m in range(1, n):
        upper = np.zeros(tower._q[m], dtype=np.uint8)
        for start in tower._starts[m - 1]:
            upper[start:start + len(word)] = word
        word = upper
    return word


def expand_word(data: ConstructionData, n: int,
                budget: int = DEFAULT_EXPANSION_BUDGET) -> SymbolicWord:
    """Materialize the level-n word; errors if q_n exceeds the budget.

    A brute-force oracle for the prefix counts: the tests and the
    benchmark's output check (``perfbench/oracles.py``) read its symbols.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    tower = Tower(data)
    height = tower.q(n)
    if height > budget:
        raise ExpansionBudgetError(n, height, budget)
    return SymbolicWord(_expand(tower, n), n)


class NameSampler:
    """Lazy bi-infinite symbolic name of a random base point.

    Stage-n columns have equal width, so conditioned on the base the
    column choices k_n are i.i.d. uniform on {1..c_n}.  They are drawn in
    level order, each from the sampler's next accepted 32-bit word w by
    Lemire's multiply-shift rule: k = (c w >> 32) + 1, and w is rejected
    while (c w) mod 2^32 < (2^32 - c) mod c.  The words are the low, then
    the high half of each 64-bit output of the stream's PCG64 bit
    generator, read a block of outputs at a time.  These are the draws of
    ``int(rng.integers(1, c + 1))`` on the stream, call by call, but they
    depend on the bit generator's stream alone, which NumPy keeps fixed
    across releases (NEP 19).  A sampler owns its stream: it reads ahead
    of the choices it has made, and it starts at the stream's next whole
    output.  The tower is read through and extended on demand; many
    samplers may share one, within one thread, since their choices never
    depend on how far it is resolved.
    """

    def __init__(self, tower: Tower, seed,
                 choices: Sequence[int] | None = None):
        self.tower = tower
        bit_generator = normalize(seed).bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"names are drawn from PCG64 streams, "
                            f"not {type(bit_generator).__name__}")
        self._words = _stream_words(bit_generator)
        self._forced = list(choices or ())
        self._offsets: list[int] = [0]

    @property
    def level(self) -> int:
        return len(self._offsets)

    def center_offset(self, level: int | None = None) -> int:
        level = self.level if level is None else level
        if level > self.level:
            raise ValueError("level not realized yet")
        return self._offsets[level - 1]

    def ensure_level(self, level: int) -> None:
        offsets, tower = self._offsets, self.tower
        while len(offsets) < level:
            stage = len(offsets)
            if stage > len(tower._starts):
                tower.ensure_stage(stage)
            starts = tower._starts[stage - 1]
            c = len(starts)
            if self._forced:
                k = int(self._forced.pop(0))
                if not 1 <= k <= c:
                    raise ConfigError(f"forced choice {k} outside 1..{c}")
            else:
                k = _choose(c, self._words)
            offsets.append(offsets[-1] + starts[k - 1])

    def ensure_window(self, radius: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> int:
        """Extend levels until [center-radius, center+radius] sits inside the word.

        Returns the embedding level.  Raises DepthCapError past depth_cap
        levels (possible only while the point keeps landing within radius
        of a word boundary, probability <= 2**(1-extra levels)).
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        offsets, q = self._offsets, self.tower._q
        while True:
            lev = len(offsets)
            off = offsets[-1]
            # the sampler has resolved stage lev - 1, so q holds q_lev
            if radius <= off < q[lev - 1] - radius:
                return lev
            if lev >= depth_cap:
                raise DepthCapError(radius, depth_cap)
            self.ensure_level(lev + 1)


# 64-bit outputs a sampler reads from its stream at a time: 32 words, more
# than the ~26 levels a window of radius 2^40 needs on chacon
_RAW_BLOCK = 16
_WORD_MASK = 2 ** 32 - 1


def _stream_words(bit_generator: np.random.PCG64) -> Iterator[int]:
    """The low, then the high 32-bit half of each of the bit generator's
    outputs, read a block of outputs at a time."""
    while True:
        raw = bit_generator.random_raw(_RAW_BLOCK)
        yield from raw.astype("<u8", copy=False).view("<u4").tolist()


def _choose(c: int, words: Iterator[int]) -> int:
    """k in 1..c from the next accepted word, by Lemire's multiply-shift rule.

    For 2 <= c <= 2^32 this is NumPy's bounded 32-bit draw, the one
    ``Generator.integers(1, c + 1)`` makes; a stage lists its c spacers,
    so c never comes near 2^32.
    """
    m = c * next(words)
    if m & _WORD_MASK < c:  # below c, and only there, lies the rejection zone
        threshold = (_WORD_MASK + 1 - c) % c
        while m & _WORD_MASK < threshold:
            m = c * next(words)
    return (m >> 32) + 1


def sample_name(data: ConstructionData, seed,
                choices: Sequence[int] | None = None) -> NameSampler:
    """Sampler for the symbolic name of a random base point, on a fresh tower.

    Runs share one tower per construction (``NameSampler``); the one caller
    of this fresh-tower form is the benchmark's output check,
    ``perfbench/oracles.py``.
    """
    return NameSampler(Tower(data), seed, choices=choices)


def ensemble_window_counts(samplers: Sequence[NameSampler], radius: int,
                           depth_cap: int = DEFAULT_DEPTH_CAP) -> list[tuple[int, int]]:
    """(s_minus, s_plus) of each sampler, the base occurrences in
    [-radius, 0] and [0, radius] around its center at offset off:
    P(off + 1) - P(off - radius) and P(off + radius + 1) - P(off), from one
    prefix descent for all the samplers.

    The samplers share one tower.  Each extends its own name first, in
    sampler order; the centre-is-base check then covers every sampler,
    and the first failing one in that order raises.
    """
    if not samplers:
        return []
    tower = samplers[0].tower
    if any(s.tower is not tower for s in samplers):
        raise ValueError("samplers must share one tower")
    positions = []
    for sampler in samplers:
        sampler.ensure_window(radius, depth_cap)
        off = sampler._offsets[-1]
        positions += (off - radius, off, off + 1, off + radius + 1)
    counts = tower.prefix_counts(positions)
    windows = []
    for i in range(0, len(counts), 4):
        start, before, after, end = counts[i:i + 4]
        if after - before != 1:
            raise InvariantViolationError(
                f"center symbol at level {samplers[i // 4].level} offset "
                f"{positions[i + 1]} is not base")
        windows.append((after - start, end - before))
    return windows


def rank_one_scaling(tower: Tower) -> ScalingSequence:
    """Step-function normalizer of the tower: a(n) = C_v on q_v <= n < q_{v+1}.

    Nondecreasing and right-continuous in n; values are exact integers.
    Queries extend the tower as far as they need, so the scaling may share
    its tower with the samplers of the same thread.
    """
    def query(n: int) -> int:
        if n < 1:
            raise ValueError("scaling index must be >= 1")
        while tower._q[-1] <= n:
            tower.ensure_stage(len(tower._starts) + 1)
        return tower._cut_product[bisect_right(tower._q, n)]

    return ScalingSequence(query, name=f"rankone[{tower.data.name or 'custom'}]")
