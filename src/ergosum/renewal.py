"""Lifetime distributions on the positive integers and renewal scalings.

A lifetime distribution provides masses f_k, the tail F(n) = P(nu >= n),
the truncated mean L(n) = E(nu ^ n) = F(1) + ... + F(n), and exact
inverse-CDF sampling.  On top of it sit the renewal sequence u
(u_n = sum_k f_k u_{n-k}), the scaling a(n) = n / L(n) with its
generalized inverse b, two diagnostic series returned as data (numerical
truncation cannot decide convergence, so no verdict is attached), and
trimmed-sum Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, SamplingHorizonError
from .regvar import ScalingSequence, invert_scaling
from .streams import normalize, spawn

EULER_GAMMA = float(np.euler_gamma)

# Direct O(n^2) recursion up to here; spectral inversion beyond (see
# renewal_sequence).  At 2**15 the direct recursion takes 0.2-0.24 s and
# the FFT path 25-32 ms (2-vCPU x86-64 VM, NumPy 2.4, OpenBLAS).
DIRECT_RECURSION_LIMIT = 2 ** 15

_INT64_VALUE_LIMIT = 2 ** 62
# a float sum of int64 draws at or above this may overflow its int64 cumsum
INT64_SUM_LIMIT = 4.0e18


# -- harmonic numbers -------------------------------------------------------

_HARMONIC_EXACT = 64
_HARMONIC_TABLE = tuple(float(h) for h in itertools.accumulate(
    (Fraction(1, k) for k in range(1, _HARMONIC_EXACT + 1)), initial=Fraction(0)))
# B_2k / (2k) for k = 1..4; beyond n = 64 the next term is below 1e-19
_HARMONIC_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0)


def _harmonic_number(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, within about one ulp for 0 <= n <= 2**62.

    Exact rational sums, rounded once, up to n = 64; beyond, the asymptotic
    series ln n + gamma + 1/(2n) - sum_k B_2k / (2k n^2k).
    """
    if n <= _HARMONIC_EXACT:
        return _HARMONIC_TABLE[n]
    x = float(n)
    r = 1.0 / (x * x)
    c1, c2, c3, c4 = _HARMONIC_SERIES
    tail = r * (c1 + r * (c2 + r * (c3 + r * c4)))
    return math.log(x) + (EULER_GAMMA + (0.5 / x - tail))


class LifetimeDistribution:
    """Distribution of a positive-integer lifetime.

    Subclasses implement ``tail`` (vectorized), ``truncated_mean``,
    ``mean``, and ``sample``; everything here is derived.  All shipped
    kinds invert the CDF in closed form, so sampling is exact and
    ``exact_inversion`` is True.
    """

    kind = "abstract"
    exact_inversion = True

    # -- core surface ---------------------------------------------------

    def tail(self, n):
        """F(n) = P(nu >= n); accepts scalars or integer arrays."""
        raise NotImplementedError

    def truncated_mean(self, n: int) -> float:
        """L(n) = F(1) + ... + F(n)."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng, size: int) -> np.ndarray:
        """Exact inverse-CDF draws as int64."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    # -- derived ---------------------------------------------------------

    def mass(self, k):
        """f_k = F(k) - F(k+1)."""
        k = np.asarray(k)
        return self.tail(k) - self.tail(k + 1)

    def masses(self, n_max: int) -> np.ndarray:
        """Array m with m[k] = f_k for 1 <= k <= n_max (m[0] = 0)."""
        tails = self.tail(np.arange(1, n_max + 2, dtype=np.int64))
        out = np.zeros(n_max + 1, dtype=np.float64)
        out[1:] = tails[:-1] - tails[1:]
        return out

    @staticmethod
    def from_spec(doc: dict) -> "LifetimeDistribution":
        kind = doc.get("kind")
        if kind == "geometric":
            return Geometric(float(doc["p"]))
        if kind == "power_tail":
            return PowerTail(float(doc["gamma"]))
        if kind == "harmonic":
            return Harmonic()
        if kind == "finite":
            return FiniteSupport(tuple((int(k), float(p)) for k, p in doc["mass"]))
        raise ConfigError(f"unknown lifetime distribution kind {kind!r}")

    @staticmethod
    def parse(text: str) -> "LifetimeDistribution":
        """CLI shorthand: geometric:p, power:gamma, harmonic, delta:k."""
        head, _, rest = text.partition(":")
        if head == "geometric":
            return Geometric(float(rest))
        if head == "power":
            return PowerTail(float(rest))
        if head == "harmonic":
            return Harmonic()
        if head == "delta":
            return FiniteSupport.delta(int(rest))
        raise ConfigError(f"cannot parse lifetime distribution {text!r}")

    def _uniform_tail(self, rng, size):
        # U in (0, 1]; inverse-tail sampling needs U bounded away from 0
        return 1.0 - rng.random(size)


class Geometric(LifetimeDistribution):
    """f_k = p (1-p)^(k-1) on k >= 1; F(n) = (1-p)^(n-1); mean 1/p."""

    kind = "geometric"

    def __init__(self, p: float):
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"geometric parameter must be in (0, 1], got {p}")
        self.p = float(p)

    def tail(self, n):
        n = np.asarray(n, dtype=np.float64)
        return np.power(1.0 - self.p, n - 1.0)

    def truncated_mean(self, n: int) -> float:
        if self.p == 1.0:
            return 1.0
        return (1.0 - (1.0 - self.p) ** n) / self.p

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    def sample(self, rng, size: int) -> np.ndarray:
        return rng.geometric(self.p, size).astype(np.int64, copy=False)

    @property
    def label(self) -> str:
        return f"geometric:{self.p!r}"

    def to_spec(self) -> dict:
        return {"kind": "geometric", "p": self.p}


class Harmonic(LifetimeDistribution):
    """f_k = 1/(k(k+1)); F(n) = 1/n; L(n) is the n-th harmonic number."""

    kind = "harmonic"

    def tail(self, n):
        n = np.asarray(n, dtype=np.float64)
        return 1.0 / n

    def truncated_mean(self, n: int) -> float:
        return _harmonic_number(n)

    @property
    def mean(self) -> float:
        return math.inf

    def sample(self, rng, size: int) -> np.ndarray:
        u = self._uniform_tail(rng, size)
        # nu >= n  iff  u < 1/n, so nu = max(1, ceil(1/u - 1)) inverts the tail
        nu = np.maximum(np.ceil(1.0 / u - 1.0), 1.0)
        return nu.astype(np.int64)

    @property
    def label(self) -> str:
        return "harmonic"

    def to_spec(self) -> dict:
        return {"kind": "harmonic"}


class PowerTail(LifetimeDistribution):
    """F(n) = n^(-gamma) for gamma in (0, 1]; infinite mean."""

    kind = "power_tail"

    _TABLE_SIZE = 1 << 20

    def __init__(self, gamma: float):
        if not 0.0 < gamma <= 1.0:
            raise ConfigError(f"tail exponent must be in (0, 1], got {gamma}")
        self.gamma = float(gamma)
        self._table: np.ndarray | None = None
        self._em_const: float | None = None

    def tail(self, n):
        n = np.asarray(n, dtype=np.float64)
        return np.power(n, -self.gamma)

    def _ensure_table(self):
        if self._table is None:
            ks = np.arange(1, self._TABLE_SIZE + 1, dtype=np.float64)
            self._table = np.cumsum(np.power(ks, -self.gamma))
            # Euler-Maclaurin constant calibrated at the table edge; the
            # dropped correction is O(T^(-gamma-3)), far below 1 ulp here.
            self._em_const = float(self._table[-1]) - self._em_variable(self._TABLE_SIZE)

    def _em_variable(self, n: float) -> float:
        g = self.gamma
        return (n ** (1.0 - g) / (1.0 - g) + 0.5 * n ** -g
                - g * n ** (-g - 1.0) / 12.0)

    def truncated_mean(self, n: int) -> float:
        if self.gamma == 1.0:
            return _harmonic_number(n)
        self._ensure_table()
        if n <= self._TABLE_SIZE:
            return float(self._table[n - 1])
        return self._em_const + self._em_variable(float(n))

    @property
    def mean(self) -> float:
        return math.inf

    def sample(self, rng, size: int) -> np.ndarray:
        u = self._uniform_tail(rng, size)
        nu = np.maximum(np.ceil(np.power(u, -1.0 / self.gamma) - 1.0), 1.0)
        if nu.max(initial=1.0) >= _INT64_VALUE_LIMIT:
            raise SamplingHorizonError(
                f"power tail gamma={self.gamma} drew a lifetime >= 2**62; "
                "rerun with a different stream or a lighter tail")
        return nu.astype(np.int64)

    @property
    def label(self) -> str:
        return f"power:{self.gamma!r}"

    def to_spec(self) -> dict:
        return {"kind": "power_tail", "gamma": self.gamma}


class FiniteSupport(LifetimeDistribution):
    """Explicit masses on finitely many integers; must sum to 1 (1e-12)."""

    kind = "finite"

    def __init__(self, mass: Sequence[tuple[int, float]]):
        pairs = sorted((int(k), float(p)) for k, p in mass)
        if not pairs:
            raise ConfigError("finite support needs at least one atom")
        ks = [k for k, _ in pairs]
        if len(set(ks)) != len(ks):
            raise ConfigError("duplicate support points")
        if ks[0] < 1:
            raise ConfigError("lifetimes must be >= 1")
        if any(p < 0 for _, p in pairs):
            raise ConfigError("masses must be >= 0")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"masses sum to {total!r}, not 1")
        self.points = tuple(ks)
        self.weights = tuple(p for _, p in pairs)
        self._ks = np.array(ks, dtype=np.int64)
        self._ps = np.array(self.weights, dtype=np.float64)
        self._cum = np.cumsum(self._ps)
        # suffix sums give exact tails at the support points
        self._suffix = np.append(np.cumsum(self._ps[::-1])[::-1], 0.0)
        self._lmax = self.points[-1]
        tails = self.tail(np.arange(1, self._lmax + 1, dtype=np.int64))
        self._ltable = np.cumsum(tails)

    @classmethod
    def delta(cls, k: int) -> "FiniteSupport":
        return cls(((k, 1.0),))

    def tail(self, n):
        n = np.asarray(n, dtype=np.int64)
        idx = np.searchsorted(self._ks, n, side="left")
        return self._suffix[idx]

    def truncated_mean(self, n: int) -> float:
        if n <= self._lmax:
            return float(self._ltable[n - 1])
        return float(self._ltable[-1])

    @property
    def mean(self) -> float:
        return math.fsum(k * p for k, p in zip(self.points, self.weights))

    def sample(self, rng, size: int) -> np.ndarray:
        u = rng.random(size)
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"),
                         len(self.points) - 1)
        return self._ks[idx]

    @property
    def label(self) -> str:
        if len(self.points) == 1:
            return f"delta:{self.points[0]}"
        atoms = ",".join(f"{k}:{p!r}" for k, p in zip(self.points, self.weights))
        return f"finite[{atoms}]"

    def to_spec(self) -> dict:
        return {"kind": "finite",
                "mass": [[k, p] for k, p in zip(self.points, self.weights)]}


# -- renewal sequences ----------------------------------------------------

@dataclass(frozen=True)
class RenewalSequence:
    """u_0..u_n with prefix sums a_u(n) = u_1 + ... + u_n."""

    f: LifetimeDistribution
    u: np.ndarray
    a_u: np.ndarray
    method: str

    @property
    def n_max(self) -> int:
        return len(self.u) - 1

    def as_scaling(self) -> ScalingSequence:
        a_u = self.a_u
        positive = np.argmax(a_u > 0.0)
        if a_u[positive] <= 0.0:
            raise ConfigError("renewal prefix sums never become positive")
        return ScalingSequence(lambda n: float(a_u[n]),
                               name=f"a_u[{self.f.label}]",
                               domain_min=max(1, int(positive)),
                               domain_max=self.n_max)


def _renewal_direct(mass: np.ndarray, n_max: int) -> np.ndarray:
    """Renewal recursion u_0 = 1, u_n = sum_{k=1..n} mass[k] u_{n-k}.

    ``mass[0]`` is ignored and ``mass`` must reach index n_max.
    """
    if mass.shape[0] < n_max + 1:
        raise ValueError("mass array shorter than n_max + 1")
    # w holds u reversed, w[n_max - n] = u_n, so u_{n-1}, ..., u_0 is the
    # contiguous tail of w: the same products in the same order as a dot
    # with u[n-1::-1], without NumPy copying a negative-stride operand.
    w = np.empty(n_max + 1, dtype=np.float64)
    w[n_max] = 1.0
    for n in range(1, n_max + 1):
        w[n_max - n] = np.dot(mass[1:n + 1], w[n_max - n + 1:])
    return w[::-1].copy()


def _next_fast_len(n: int) -> int:
    """Least 2^i 3^j 5^k >= n, a fast real FFT length (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches n
            best = min(best, p35 << max(-(-n // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _renewal_fft(mass: np.ndarray, n_max: int) -> np.ndarray:
    """Power-series reciprocal of 1 - sum_k f_k z^k by Newton doubling."""
    n = n_max + 1
    g = np.zeros(n)
    g[0] = 1.0
    g[1:] = -mass[1:n]
    u = np.array([1.0])
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        # g*u and u*t both have length m2 + m - 1, so one transform of u
        # serves both: five transforms per doubling.  Each product is formed
        # in place with its operand order spelled out, since complex
        # products are not bitwise commutative (NumPy turns x * tmp into
        # tmp *= x when tmp is an unnamed temporary of 256 KiB or more).
        size = _next_fast_len(m2 + m - 1)
        fu = np.fft.rfft(u, size)
        spec = np.fft.rfft(g[:m2], size)
        t = -np.fft.irfft(np.multiply(spec, fu, out=spec), size)[:m2]
        t[0] += 2.0
        spec = np.fft.rfft(t, size)
        u = np.fft.irfft(np.multiply(fu, spec, out=spec), size)[:m2]
        m = m2
    return u


def renewal_sequence(f: LifetimeDistribution, n_max: int,
                     method: str = "auto") -> RenewalSequence:
    """Renewal sequence u with u_0 = 1 and its prefix sums.

    method "direct" runs the convolution recursion (the reference path,
    quadratic); "fft" inverts the mass generating function spectrally,
    O(n log n), and is cross-checked against the direct path in the tests:
    for geometric:0.7 its largest |u_n - 0.7| is 7.6e-12 at n = 2**18 and
    4.4e-11 at n = 2**20.  "auto" picks direct up to DIRECT_RECURSION_LIMIT.
    Both paths accumulate a_u in long double.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if method == "auto":
        method = "direct" if n_max <= DIRECT_RECURSION_LIMIT else "fft"
    mass = f.masses(n_max)
    if method == "direct":
        u = _renewal_direct(mass, n_max)
    elif method == "fft":
        u = _renewal_fft(mass, n_max)
    else:
        raise ValueError(f"unknown method {method!r}")
    a_u = np.empty(n_max + 1)
    a_u[0] = 0.0
    if n_max:
        a_u[1:] = np.cumsum(u[1:], dtype=np.longdouble).astype(np.float64)
    return RenewalSequence(f, u, a_u, method)


# -- truncated-mean scaling ------------------------------------------------

@dataclass(frozen=True)
class TruncatedMeanScaling:
    """L(n) = E(nu ^ n), a(n) = n / L(n), and the generalized inverse b.

    All three take integer arguments; a is nondecreasing because L(n)/n
    averages the nonincreasing tail.  b(y) is the least integer t with
    a(t) >= y (regvar.invert_scaling), and errors if y is not reached by
    the horizon.
    """

    f: LifetimeDistribution
    horizon: int = 2 ** 62

    def L(self, n: int) -> float:
        if n < 1:
            raise ValueError("L is defined for n >= 1")
        return self.f.truncated_mean(int(n))

    def a(self, n: int) -> float:
        return n / self.L(n)

    def b(self, y) -> int:
        return invert_scaling(self.as_scaling(), y, self.horizon)

    def as_scaling(self) -> ScalingSequence:
        return ScalingSequence(self.a, name=f"tm[{self.f.label}]")


def truncated_mean_scaling(f: LifetimeDistribution,
                           horizon: int = 2 ** 62) -> TruncatedMeanScaling:
    """Queryable L, a = n/L(n), and inverse b for the given lifetimes."""
    return TruncatedMeanScaling(f, horizon)


# -- diagnostic series ------------------------------------------------------

def _decay_slope(ns: np.ndarray, terms: np.ndarray) -> float | None:
    # advisory log-log slope of the positive terms over the tail half
    mask = terms > 0.0
    ns, terms = ns[mask], terms[mask]
    if len(ns) < 4:
        return None
    half = len(ns) // 2
    x = np.log(ns[half:].astype(np.float64))
    y = np.log(terms[half:])
    if np.ptp(x) == 0.0:
        return None
    return float(np.polyfit(x, y, 1)[0])


@dataclass(frozen=True)
class QueenSeries:
    """Terms and partial sums of sum_n (F(n)/L(n))^2.

    ``decay_slope`` is advisory metadata only: a log-log fit of the term
    decay, attached because a table alone invites eyeballing; it asserts
    nothing about convergence.
    """

    f_label: str
    terms: np.ndarray
    partial_sums: np.ndarray
    tails: np.ndarray
    lengths: np.ndarray
    decay_slope: float | None

    def Q(self, n: int) -> float:
        return float(self.partial_sums[n - 1])


def queen_series(f: LifetimeDistribution, n_max: int) -> QueenSeries:
    """Partial sums of (F(n)/L(n))^2 for n = 1..n_max; data, not a verdict."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    tails = np.asarray(f.tail(ns), dtype=np.float64)
    lengths = np.cumsum(tails)
    terms = (tails / lengths) ** 2
    return QueenSeries(f.label, terms, np.cumsum(terms), tails, lengths,
                       _decay_slope(ns, terms))


@dataclass(frozen=True)
class DyadicTailSeries:
    """Terms and partial sums of sum_n 2^n F(ceil(t b(2^n)))^2, n = 0..n_max."""

    f_label: str
    scaling_name: str
    t: float
    b_values: tuple[int, ...]
    thresholds: tuple[int, ...]
    terms: np.ndarray
    partial_sums: np.ndarray
    decay_slope: float | None


def dyadic_tail_series(f: LifetimeDistribution, scaling: ScalingSequence,
                       t: float, n_max: int,
                       horizon: int = 2 ** 62) -> DyadicTailSeries:
    """Dyadic second-moment tail series for the supplied scaling.

    b is the generalized inverse of the scaling (n/L(n) based or an
    empirical renewal prefix sum); horizon errors propagate.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    b_values = []
    thresholds = []
    terms = np.empty(n_max + 1)
    for n in range(n_max + 1):
        b_n = invert_scaling(scaling, 2 ** n, horizon)
        m = math.ceil(t * b_n)
        b_values.append(b_n)
        thresholds.append(m)
        terms[n] = (2.0 ** n) * float(f.tail(m)) ** 2
    ns = np.arange(1, n_max + 2, dtype=np.int64)
    return DyadicTailSeries(f.label, scaling.name, float(t), tuple(b_values),
                            tuple(thresholds), terms, np.cumsum(terms),
                            _decay_slope(ns, terms))


# -- interarrival sampling and trimmed sums ---------------------------------

@dataclass(frozen=True)
class InterarrivalSample:
    """i.i.d. lifetimes nu_1..nu_n with partial sums and running maxima."""

    nu: np.ndarray
    partial_sums: np.ndarray
    running_max: np.ndarray

    @classmethod
    def draw(cls, f: LifetimeDistribution, n: int, rng) -> "InterarrivalSample":
        nu = f.sample(normalize(rng), n)
        if float(nu.astype(np.float64).sum()) >= INT64_SUM_LIMIT:
            raise SamplingHorizonError(
                "partial sums would overflow int64; reduce n or lighten the tail")
        return cls(nu, np.cumsum(nu), np.maximum.accumulate(nu))

    @property
    def total(self) -> int:
        return int(self.partial_sums[-1])

    @property
    def maximum(self) -> int:
        return int(self.running_max[-1])


@dataclass(frozen=True)
class TrimmedSumResult:
    """Per-trial values of (nu_1 + ... + nu_n - max nu_i) / b(n)."""

    f_label: str
    n: int
    trials: int
    seed: int
    b_n: int
    ratios: np.ndarray
    mean: float
    std: float
    quantiles: dict[str, float]


_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def trimmed_sum_trials(f: LifetimeDistribution, n: int, trials: int, seed: int,
                       tail_eps: float = 1e-9,
                       horizon: int = 2 ** 62) -> TrimmedSumResult:
    """Monte Carlo for the maximally trimmed partial sum, normalized by b(n).

    Trial i uses the stream spawned from (seed, i), so any single trial is
    reproducible in isolation.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not f.exact_inversion and float(f.tail(horizon)) > tail_eps:
        raise SamplingHorizonError(
            f"inverse-CDF truncation for {f.label} would distort the tail "
            f"beyond {tail_eps}")
    b_n = truncated_mean_scaling(f, horizon).b(n)
    ratios = np.empty(trials)
    for i in range(trials):
        s = InterarrivalSample.draw(f, n, spawn(seed, i))
        ratios[i] = (s.total - s.maximum) / b_n
    qs = np.quantile(ratios, _QUANTILE_LEVELS)
    quantiles = {f"q{int(100 * lvl):02d}": float(v)
                 for lvl, v in zip(_QUANTILE_LEVELS, qs)}
    return TrimmedSumResult(f.label, n, trials, seed, b_n, ratios,
                            float(ratios.mean()), float(ratios.std()),
                            quantiles)
