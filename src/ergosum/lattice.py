"""Two planar group actions: translations of the line and a random-walk
skew product over an integer fiber.

Translation orbits are counted exactly in O(log N) big-integer steps: over
the common binary denominator of the inputs the window condition is an
integer inequality, the admissible second generator powers for each first
power k form an integer interval whose clamped ends are floor terms linear
in k, and a floor sum adds them up with no loop over k.  Walk orbits are
counted from the sampled steps by block sums: the prefix sums of
1,024-step block totals locate the block where the monotone partial sums
pass the horizon, and only that block is summed step by step.  Each side
of a walk draws from its own stream, the backward one jumped from the
forward one, and keeps exactly the steps its horizon reads, those whose
partial sums stay at or below it; neither side depends on the horizon, so
a trial is one orbit at every horizon.  A chunk of draws holds at most
(2^63 - 1) // (J + 1) of them, and each draw past J is cut to J + 1
before the chunk is summed, so every sum a walk forms fits int64 by
construction.  A walk count is a plain integer; its
normalizer, the renewal prefix sum a_u(N) of the step distribution, is one
number per run, read once by the caller.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, PrecisionWarning, ResourceLimitError
from .renewal import LifetimeDistribution
from .streams import normalize

# a ratio within _RATIONAL_PRECISION of a rational with denominator at most
# _RATIONAL_MAX_DEN is treated as that rational; badly approximable
# constants (golden ratio, sqrt 2) sit ~1e-13 away from every such
# rational and pass
_RATIONAL_MAX_DEN = 10 ** 6
_RATIONAL_PRECISION = 1e-14


def _rational_ratio(value: float) -> Fraction | None:
    """Detect a ratio that encodes a small-denominator rational.

    Floats are always rational, so true irrationality is unverifiable;
    the continued-fraction convergent with denominator <= _RATIONAL_MAX_DEN
    (via Fraction.limit_denominator) is compared against the value at the
    configured precision.
    """
    if not math.isfinite(value):    # alpha/beta overflowed
        return None
    frac = Fraction(value).limit_denominator(_RATIONAL_MAX_DEN)
    if abs(float(frac) - value) <= _RATIONAL_PRECISION * max(1.0, abs(value)):
        return frac
    return None


@dataclass(frozen=True)
class TranslationAction:
    """x -> x + k*alpha + l*beta acting on the line, observed on [0, 1).

    The ergodic-limit statements require alpha/beta irrational; floats
    cannot carry irrationality, so construction warns when the ratio is
    detectably an exact rational, and the documented limits refer to the
    idealized parameters.
    """

    alpha: float
    beta: float = 1.0
    x: float = 0.0

    def __post_init__(self):
        if self.beta == 0.0 or self.alpha == 0.0:
            raise ConfigError("alpha and beta must be nonzero")
        ratio = _rational_ratio(self.alpha / self.beta)
        if ratio is not None:
            warnings.warn(
                f"alpha/beta = {self.alpha / self.beta!r} is exactly the "
                f"rational {ratio}; orbit-density limits do not apply",
                PrecisionWarning, stacklevel=3)


class TranslateCount(NamedTuple):
    count: int
    ratio: float


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, in O(log m) steps.

    The Euclid-like reduction of Graham, Knuth and Patashnik (Concrete
    Mathematics, section 3.5) as in the AtCoder Library's ``floor_sum``;
    divmod reduces negative a and b as well.
    """
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        # what is left counts lattice points under a line of slope a/m < 1;
        # swapping the axes turns it into slope m/a
        y_max = a * n + b
        if y_max < m:
            break
        n, b = divmod(y_max, m)
        m, a = a, m
    return total


def _clamped_floor_sum(n: int, m: int, a: int, b: int, lo: int, hi: int) -> int:
    """sum_{i=0}^{n-1} min(max(floor((a*i + b) / m), lo), hi) for a, m >= 1.

    The terms are nondecreasing in i, so they sit at ``lo`` up to one
    breakpoint and at ``hi`` from another; a floor sum covers the middle.
    """
    def first(t):
        # least i in [0, n] with floor((a*i + b) / m) >= t, i.e. a*i >= t*m - b
        return min(max(-((b - t * m) // a), 0), n)

    i_lo, i_hi = first(lo), first(hi + 1)
    return lo * i_lo + _floor_sum(i_hi - i_lo, m, a, b + a * i_lo) + hi * (n - i_hi)


def _translate_count(alpha: float, beta: float, x: float, n_box: int) -> int:
    """#{(k, l) in [-N, N]^2 : 0 <= x + k*alpha + l*beta < 1}, exactly.

    Floats are dyadic rationals, so over their common denominator D the
    condition reads 0 <= X + k*A + l*B < D with integers X, A, B.  The
    substitutions k -> -k and l -> -l map the box onto itself, so take
    A = -|alpha| D and B = |beta| D; the admissible l then form
    [ceil((k|A| - X)/B), ceil((k|A| + D - X)/B)).  Clamping both ends to
    [-N, N + 1] keeps their difference equal to the number of admissible l
    in the box, and each clamped end is a floor term nondecreasing in k.
    """
    if alpha == 0.0 or beta == 0.0:
        raise ConfigError("alpha and beta must be nonzero")
    n_box = int(n_box)
    ratios = [float(v).as_integer_ratio() for v in (alpha, beta, x)]
    den = max(d for _, d in ratios)  # all powers of two
    a, b, x0 = (num * (den // d) for num, d in ratios)
    a, b = abs(a), abs(b)

    def clamped_end_sum(c):
        # sum over k of clamp(ceil((k*a + c) / b)), with i = k + N and
        # ceil(p / b) = floor((p + b - 1) / b)
        return _clamped_floor_sum(2 * n_box + 1, b, a, c - n_box * a + b - 1,
                                  -n_box, n_box + 1)

    return clamped_end_sum(den - x0) - clamped_end_sum(-x0)


def translate_counts(action: TranslationAction, n_box: int) -> TranslateCount:
    """Orbit points of the (2N+1)^2 box landing in [0, 1), and count/(2N+1).

    The count is exact on the binary values of alpha, beta and x at every
    N, and takes O(log N) big-integer steps.
    """
    if n_box < 0:
        raise ConfigError("box radius must be >= 0")
    count = _translate_count(action.alpha, action.beta, action.x, n_box)
    return TranslateCount(count, count / (2 * n_box + 1))


# steps drawn first on each side of a walk; each later chunk covers the gap
# left to the horizon at the mean step so far, and at most quadruples the
# draws made, as a heavy tail's sample mean grows with the sample
_FIRST_CHUNK = 64
# steps per block of a partial-sum count; NumPy sums a block far faster than
# it forms the block's running sums, so only one block is summed step by step
_BLOCK = 1024


def _count_sums_at_most(steps: np.ndarray, start: int, bound: int) -> int:
    """#{i : start + steps[0] + ... + steps[i] <= bound}, for steps >= 0
    whose sums with ``start`` fit int64.

    The sums are nondecreasing, so they stay at most ``bound`` up to one
    crossing.  The prefix sums of the full blocks' totals give every
    _BLOCK-th sum; one search over them finds the block that holds the
    crossing, and that block's own running sums place it.
    """
    rest = bound - start  # the bound on the steps' own partial sums
    full = len(steps) // _BLOCK
    b = 0  # blocks whose sums all stay at most the bound
    if full:
        ends = steps[:full * _BLOCK].reshape(full, _BLOCK).sum(axis=1)
        np.cumsum(ends, out=ends)
        b = int(np.searchsorted(ends, rest, side="right"))
        if b:
            rest -= int(ends[b - 1])
    sums = np.cumsum(steps[b * _BLOCK:(b + 1) * _BLOCK])
    return b * _BLOCK + int(np.searchsorted(sums, rest, side="right"))


@dataclass(frozen=True)
class WalkSample:
    """Two-sided i.i.d. steps omega_j: on each side, those whose partial sums
    stay at or below J, at most J of them.

    The partial sums s_k follow the three-case definition: sum of
    omega_0..omega_{k-1} for k >= 1, zero at k = 0, and
    -(omega_{-1} + ... + omega_{-|k|}) for k <= -1.  Steps are >= 1, so s
    is strictly increasing in k, and the kept steps reach every s_k with
    |s_k| <= J and no other.  Only the steps are kept; ``walk_counts``
    counts from them without forming every sum, and ``s_forward`` and
    ``s_backward_mag`` form the sums on each call.
    """

    J: int
    omega_forward: np.ndarray = field(repr=False)   # omega_0, omega_1, ...
    omega_backward: np.ndarray = field(repr=False)  # omega_{-1}, omega_{-2}, ...

    @property
    def s_forward(self) -> np.ndarray:  # s_1, s_2, ...
        return np.cumsum(self.omega_forward)

    @property
    def s_backward_mag(self) -> np.ndarray:  # |s_{-1}|, |s_{-2}|, ...
        return np.cumsum(self.omega_backward)


def _kept_steps(f: LifetimeDistribution, rng, J: int) -> np.ndarray:
    """The first draws from ``rng`` whose partial sums stay at or below J,
    at most J of them.

    The draws come in chunks, and the concatenated chunks are the first
    draws of the stream.  A chunk holds at most (2^63 - 1) // (J + 1)
    draws, a cap above J while J < 2^31, and a draw past J is cut to
    J + 1; a cut draw still ends the walk and no kept draw changes, so a
    chunk's int64 sum cannot overflow.
    """
    cap = (2 ** 63 - 1) // (J + 1)
    parts, total, drawn = [], 0, 0
    size = min(J, _FIRST_CHUNK, cap)
    while True:
        steps = f.sample(rng, size)
        drawn += size
        if steps.max() > J:
            np.minimum(steps, J + 1, out=steps)
        chunk = int(steps.sum())
        if total + chunk > J:
            parts.append(steps[:_count_sums_at_most(steps, total, J)])
            break
        parts.append(steps)
        if drawn == J:
            break
        total += chunk
        size = min(J - drawn, 4 * drawn, cap,
                   max(_FIRST_CHUNK, -(-(J - total) * drawn // total)))
    return np.concatenate(parts)


def walk_sample(f: LifetimeDistribution, seed, J: int) -> WalkSample:
    """Sample a two-sided walk for horizons up to J.

    The forward steps omega_0, omega_1, ... are the draws of the trial's
    stream; the backward steps omega_{-1}, omega_{-2}, ... those of the
    stream its bit generator's ``jumped()`` starts.  Neither depends on J,
    so a smaller J keeps a prefix of the same steps.  J + 1 must fit
    int64.
    """
    if J < 1:
        raise ConfigError("J must be >= 1")
    if J >= 2 ** 63 - 1:
        raise ConfigError(f"J must be below 2**63 - 1, got {J}")
    rng = normalize(seed)
    backward = np.random.Generator(rng.bit_generator.jumped())
    return WalkSample(J, _kept_steps(f, rng, J), _kept_steps(f, backward, J))


def walk_counts(sample: WalkSample, n_box: int) -> int:
    """Box count #{k in [-N, N] : |s_k| <= N}.

    Steps are >= 1, so |s_k| <= N already forces |k| <= N; each side's
    count of partial sums at most N comes from its kept steps by block
    sums, which sum every step once and form the running sums of one
    block only.
    """
    if n_box < 0:
        raise ConfigError("box radius must be >= 0")
    if n_box > sample.J:
        raise ResourceLimitError(
            f"walk sampled for J = {sample.J} but the horizon needs +-{n_box}; "
            f"resample with J >= {n_box} "
            "(steps are >= 1, so J = horizon always covers)")
    return (_count_sums_at_most(sample.omega_backward, 0, n_box) + 1
            + _count_sums_at_most(sample.omega_forward, 0, n_box))
