"""Two planar group actions: translations of the line and a random-walk
skew product over an integer fiber.

Translation orbits are counted exactly in O(log N) big-integer steps: over
the common binary denominator of the inputs the window condition is an
integer inequality, the admissible second generator powers for each first
power k form an integer interval whose clamped ends are floor terms linear
in k, and a floor sum adds them up with no loop over k.  Walk orbits are
counted by binary search over the monotone partial sums of the sampled
steps.  Each side of a walk draws from its own stream, the backward one
jumped from the forward one, and only the steps its horizon reads, up to
the first partial sum past it; neither side depends on the horizon, so a
trial is one orbit at every horizon.  A walk count is a plain integer; its
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
from .renewal import INT64_SUM_LIMIT, LifetimeDistribution, int64_sum_may_overflow
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


@dataclass(frozen=True)
class WalkSample:
    """Partial sums s_k of two-sided i.i.d. steps omega_j: on each side, those
    up to and including the first one past J, at most J of them.

    s_k follows the three-case definition: sum of omega_0..omega_{k-1} for
    k >= 1, zero at k = 0, and -(omega_{-1} + ... + omega_{-|k|}) for
    k <= -1.  Steps are >= 1, so s is strictly increasing in k, and the
    kept sums hold every s_k with |s_k| <= J.  Only the sums are kept;
    every step is a difference omega_j = s_{j+1} - s_j.
    """

    J: int
    s_forward: np.ndarray = field(repr=False)       # s_1, s_2, ...
    s_backward_mag: np.ndarray = field(repr=False)  # |s_{-1}|, |s_{-2}|, ...

    @property
    def omega_forward(self) -> np.ndarray:  # omega_0, omega_1, ...
        return np.diff(self.s_forward, prepend=0)

    @property
    def omega_backward(self) -> np.ndarray:  # omega_{-1}, omega_{-2}, ...
        return np.diff(self.s_backward_mag, prepend=0)


def _kept_sums(f: LifetimeDistribution, rng, J: int) -> np.ndarray:
    """Partial sums of draws from ``rng`` up to and including the first one
    past J, at most J of them.

    The draws come in chunks, and the concatenated chunks are the first
    draws of the stream.
    """
    parts, total, drawn = [], 0, 0
    size = min(J, _FIRST_CHUNK)
    while True:
        steps = f.sample(rng, size)
        drawn += size
        may_overflow = int64_sum_may_overflow(steps, total)
        if may_overflow:
            # keep the steps whose float sums stay below the limit; unless
            # one of those sums passes J, the first that does may overflow
            below = total + np.cumsum(steps, dtype=np.float64) < INT64_SUM_LIMIT
            steps = steps[:int(np.count_nonzero(below))]
        sums = np.cumsum(steps, out=steps)
        sums += total
        kept = int(np.searchsorted(sums, J, side="right"))
        if kept < len(sums):
            parts.append(sums[:kept + 1])
            break
        if may_overflow:
            raise ResourceLimitError("walk partial sums would overflow int64")
        parts.append(sums)
        if drawn == J:
            break
        total = int(sums[-1])
        size = min(J - drawn, 4 * drawn,
                   max(_FIRST_CHUNK, -(-(J - total) * drawn // total)))
    return np.concatenate(parts)


def walk_sample(f: LifetimeDistribution, seed, J: int) -> WalkSample:
    """Sample a two-sided walk for horizons up to J.

    The forward steps omega_0, omega_1, ... are the draws of the trial's
    stream; the backward steps omega_{-1}, omega_{-2}, ... those of the
    stream its bit generator's ``jumped()`` starts.  Neither depends on J,
    so a smaller J keeps a prefix of the same sums.
    """
    if J < 1:
        raise ConfigError("J must be >= 1")
    rng = normalize(seed)
    backward = np.random.Generator(rng.bit_generator.jumped())
    return WalkSample(J, _kept_sums(f, rng, J), _kept_sums(f, backward, J))


def walk_counts(sample: WalkSample, n_box: int) -> int:
    """Box count #{k in [-N, N] : |s_k| <= N}.

    Steps are >= 1, so |s_k| <= N already forces |k| <= N; the count comes
    from two binary searches over the kept sums, which hold every s_k with
    |s_k| <= J.
    """
    if n_box > sample.J:
        raise ResourceLimitError(
            f"walk sampled for J = {sample.J} but the horizon needs +-{n_box}; "
            f"resample with J >= {n_box} "
            "(steps are >= 1, so J = horizon always covers)")
    fwd = int(np.searchsorted(sample.s_forward, n_box, side="right"))
    bwd = int(np.searchsorted(sample.s_backward_mag, n_box, side="right"))
    return bwd + 1 + fwd
