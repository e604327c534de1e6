"""Lifetime distributions on the positive integers and renewal scalings.

A lifetime distribution provides the tail F(n) = P(nu >= n), the
truncated mean L(n) = E(nu ^ n) = F(1) + ... + F(n), and exact
inverse-CDF sampling.  On top of it sit the renewal sequence u
(u_n = sum_k f_k u_{n-k}, with masses f_k = F(k) - F(k+1)), the scaling
a(n) = n / L(n) as a regvar.ScalingSequence, two diagnostic series
returned as data (numerical truncation cannot decide convergence, so no
verdict is attached), and trimmed-sum Monte Carlo.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .regvar import ScalingSequence, invert_scaling
from .streams import spawn

# the plain recurrence gives the first ceil(n/2^k) <= 64 terms before Newton
# steps take over, so sequences of at most 64 terms carry no transform
# rounding (geometric:0.5 gives 0.5)
_NEWTON_BASE = 64
# the Newton products take v[:_HEAD] = (1, -T_1) by direct sums
_HEAD = 2
# residual terms below this are set to 0 (see _reciprocal)
_FLUSH = 2.0 ** -511

_INT64_VALUE_LIMIT = 2 ** 62
# a float sum of int64 draws at or above this may overflow its int64 cumsum
INT64_SUM_LIMIT = 4.0e18
# NumPy refuses an array of more than sys.maxsize bytes
_MAX_TABLE_LEN = sys.maxsize // 8
# NumPy draws geometric lifetimes from p = 1/3 up by a search over one uniform
_SEARCH_MIN_P = 1.0 / 3.0
# buckets of the guide table that starts that search; 4096 u is exact
_GUIDE_SIZE = 4096

# power sums are added up directly to here, to 40 digits; beyond, the first
# Euler-Maclaurin term left out is below 1e-20
_POWER_SUM_HEAD = 64
# B_2k for k = 1..4
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30))


@cache
def _head_logs() -> tuple[Decimal, ...]:
    """ln 1 ... ln _POWER_SUM_HEAD to 40 digits, on the first PowerTail built."""
    with localcontext(prec=40):
        return tuple(Decimal(k).ln() for k in range(1, _POWER_SUM_HEAD + 1))


class LifetimeDistribution:
    """Distribution of a positive-integer lifetime.

    Subclasses implement ``tail`` (vectorized), ``truncated_mean``,
    ``sample`` and ``label``.  They hold no spec grammar: the one lifetime
    parser is ``cli.parse_distribution``.  Every shipped kind
    samples exactly, by inversion: power tails in closed form, finite
    supports and geometric p >= 1/3 by a search of their float CDF sums, and
    geometric p < 1/3 as NumPy's ceil(-E / log1p(-p)) of an exponential E.
    """

    def tail(self, n):
        """F(n) = P(nu >= n); accepts scalars or integer arrays.

        An array argument gives a new array, which the caller may modify.
        """
        raise NotImplementedError

    def truncated_mean(self, n: int) -> float:
        """L(n) = F(1) + ... + F(n)."""
        raise NotImplementedError

    def sample(self, rng, size: int) -> np.ndarray:
        """Exact inverse-CDF draws as a new int64 array, which the caller may modify."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


class Geometric(LifetimeDistribution):
    """f_k = p (1-p)^(k-1) on k >= 1; F(n) = (1-p)^(n-1); mean 1/p.

    From p = 1/3 up, ``sample`` gives NumPy's ``rng.geometric`` draws from
    the same uniforms, using only exact float operations.  NumPy returns
    the least k with u <= s_k, where s_1 = p and s_k = s_{k-1} +
    p (1-p)^(k-1) are float sums formed in a fixed order.  Those sums are
    tabulated here until they reach 1 or stop changing (54 at p = 0.5, 90
    at p = 1/3), and a guide table (Chen and Asau 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, section III.2.4) starts
    each search at the least k with s_k >= floor(4096 u) / 4096.  Where
    the sums stop below 1 (0.9999999999999997 at p = 0.7), NumPy's search
    never ends for a uniform above the last one; ``sample`` raises
    ResourceLimitError there.
    """

    def __init__(self, p: float):
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"geometric parameter must be in (0, 1], got {p}")
        self.p = float(p)
        if self.p >= _SEARCH_MIN_P:
            self._sums, self._guide = _search_table(self.p)

    def tail(self, n):
        n = np.asarray(n, dtype=np.float64)
        q = 1.0 - self.p
        if n.ndim == 0 or q == 1.0:
            return np.power(q, n - 1.0)
        # q^e rounds to 0 from e = 1075 log 2 / -log q on, and NumPy's
        # underflow path is slow: raise only the e below 1100 log 2 / -log q
        out = np.zeros_like(n)
        live = n - 1.0 < (1100 * math.log(2.0) / -math.log(q) if q else 1.0)
        out[live] = np.power(q, n[live] - 1.0)
        return out

    def truncated_mean(self, n: int) -> float:
        if n < 1 or self.p == 1.0:
            return float(min(n, 1))
        # L(n) = 1 + q (1 - q^(n-1)) / p: L(1) = 1 exactly, the limit is
        # exactly 1/p at p = 2^-k, and expm1 keeps 1 - q^(n-1) from
        # cancelling at small p
        q = 1.0 - self.p
        return 1.0 + q * -math.expm1((n - 1) * math.log1p(-self.p)) / self.p

    def sample(self, rng, size: int) -> np.ndarray:
        if self.p < _SEARCH_MIN_P:
            return rng.geometric(self.p, size).astype(np.int64, copy=False)
        sums = self._sums
        u = rng.random(size)
        k = np.take(self._guide, (u * _GUIDE_SIZE).astype(np.intp))
        # step on only the draws that still have u > s_k
        pos = np.flatnonzero(np.take(sums, k) < u)
        while pos.size:
            ks = np.take(k, pos) + 1
            k[pos] = ks
            if ks.max() == len(sums) - 1:
                raise ResourceLimitError(
                    f"geometric p={self.p!r} drew a uniform above its last CDF "
                    f"sum {float(sums[-2])!r}, where NumPy's search never returns; "
                    "rerun with a different stream")
            pos = pos[np.take(sums, ks) < np.take(u, pos)]
        return k

    @property
    def label(self) -> str:
        return f"geometric:{self.p!r}"


def _search_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's geometric search sums s_1..s_K, between a placeholder s_0 and
    a sentinel s_{K+1} = inf, and the int64 guide g[b] = min(K, least k
    with s_k >= b / _GUIDE_SIZE).  The cap at K makes a uniform above s_K
    step onto the sentinel, where ``Geometric.sample`` reports it.
    """
    q = 1.0 - p
    total = prod = p
    sums = [0.0, total]
    while total < 1.0:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    sums.append(math.inf)
    sums = np.array(sums)
    cuts = np.arange(_GUIDE_SIZE) / _GUIDE_SIZE
    guide = np.searchsorted(sums[1:-1], cuts, side="left") + 1
    return sums, np.minimum(guide, len(sums) - 2).astype(np.int64)


class PowerTail(LifetimeDistribution):
    """F(n) = n^(-gamma) for gamma in (0, 1]; infinite mean.

    gamma = 1 is the harmonic lifetime, f_k = 1/(k(k+1)), labelled
    ``harmonic``.  L(n) is the power sum S(n) = 1^-gamma + ... + n^-gamma,
    one routine for every gamma: up to n = 64 a cumulative sum in 40-digit
    decimal arithmetic, rounded once; beyond, the Euler-Maclaurin expansion
    (Graham, Knuth and Patashnik, Concrete Mathematics, section 9.5)

        S(n) = C + lead(n) + n^-gamma / 2 - sum_{k=1..4} c_k n^(1-gamma-2k),

    with lead(n) = (n^(1-gamma) - 1) / (1-gamma), or ln n at gamma = 1, and
    c_k = B_2k (gamma)_(2k-1) / (2k)!, exact rationals rounded once.  The
    constant C = zeta(gamma) + 1/(1-gamma), Euler's constant at gamma = 1,
    is calibrated against the sum at n = 64 in the same 40 digits, on
    construction (about 1 ms; ln 1 ... ln 64, 3 ms, once a process).
    Against a 40-digit oracle, for 1 <= n <= 2**62, S is within 1.1 ulp at
    gamma = 1 and 2.2 ulp at gamma = 0.5, 0.75 and 0.9.  Near gamma = 1 the
    rounding of n^(1-gamma) is divided by 1 - gamma: 13 ulp at gamma = 0.99.
    """

    def __init__(self, gamma: float):
        if not 0.0 < gamma <= 1.0:
            raise ConfigError(f"tail exponent must be in (0, 1], got {gamma}")
        self.gamma = g = float(gamma)
        coeffs = []
        q = rising = Fraction(g)  # rising is (gamma)_(2k-1), exactly
        for k, b in enumerate(_BERNOULLI, start=1):
            coeffs.append(b / math.factorial(2 * k) * rising)
            rising *= (q + 2 * k - 1) * (q + 2 * k)
        self._series = tuple(float(c) for c in coeffs)
        logs = _head_logs()
        with localcontext(prec=40):
            dg, x, ln_x = Decimal(g), Decimal(_POWER_SUM_HEAD), logs[-1]
            # k^-gamma as exp(-gamma ln k): Decimal's own power is slower
            terms = [(-dg * ln_k).exp() for ln_k in logs]
            lead = ln_x if g == 1.0 else (((1 - dg) * ln_x).exp() - 1) / (1 - dg)
            c1, c2, c3, c4 = (Decimal(c.numerator) / c.denominator for c in coeffs)
            s, r = terms[-1], 1 / (x * x)
            corrections = s / 2 - s / x * (c1 + r * (c2 + r * (c3 + r * c4)))
            self._head = [0.0] + [float(h) for h in accumulate(terms)]
            self._const = float(sum(terms) - lead - corrections)

    def _corrections(self, x: float, g: float) -> float:
        """n^-g / 2 minus the Bernoulli terms, at x = n."""
        s = x ** -g
        r = 1 / (x * x)
        c1, c2, c3, c4 = self._series
        return 0.5 * s - s / x * (c1 + r * (c2 + r * (c3 + r * c4)))

    def tail(self, n):
        n = np.asarray(n, dtype=np.float64)
        return np.power(n, -self.gamma)

    def truncated_mean(self, n: int) -> float:
        if n <= _POWER_SUM_HEAD:
            return self._head[n]
        g, x = self.gamma, float(n)
        lead = math.log(x) if g == 1.0 else (x ** (1.0 - g) - 1.0) / (1.0 - g)
        return lead + (self._const + self._corrections(x, g))

    def sample(self, rng, size: int) -> np.ndarray:
        # U = 1 - uniform is in (0, 1], bounded away from 0; nu >= n iff
        # U < n^-gamma, so nu = max(1, ceil(U^(-1/gamma) - 1)), in one buffer
        nu = rng.random(size)
        np.subtract(1.0, nu, out=nu)
        np.power(nu, -1.0 / self.gamma, out=nu)
        np.subtract(nu, 1.0, out=nu)
        np.ceil(nu, out=nu)
        np.maximum(nu, 1.0, out=nu)
        if nu.max(initial=1.0) >= _INT64_VALUE_LIMIT:
            raise ResourceLimitError(
                f"power tail gamma={self.gamma} drew a lifetime >= 2**62; "
                "rerun with a different stream or a lighter tail")
        return nu.astype(np.int64)

    @property
    def label(self) -> str:
        return "harmonic" if self.gamma == 1.0 else f"power:{self.gamma!r}"


class FiniteSupport(LifetimeDistribution):
    """Explicit masses on finitely many integers; must sum to 1 (1e-12).

    Tails and truncated means come in closed form from the atoms, at a
    cost independent of the largest one: F(n) is the mass of the atoms
    >= n, and L(n) = E(nu ^ n) = sum_{k<n} k p_k + n F(n).
    """

    def __init__(self, mass: Sequence[tuple[int, float]]):
        pairs = sorted((int(k), float(p)) for k, p in mass)
        if not pairs:
            raise ConfigError("finite support needs at least one atom")
        ks = [k for k, _ in pairs]
        if len(set(ks)) != len(ks):
            raise ConfigError("duplicate support points")
        if ks[0] < 1:
            raise ConfigError("lifetimes must be >= 1")
        if ks[-1] >= 2 ** 63:
            raise ConfigError(f"lifetimes must be below 2**63, got {ks[-1]}")
        # NaN fails this test, and masses <= 1 keep fsum from overflowing
        bad = [p for _, p in pairs if not 0.0 <= p <= 1.0]
        if bad:
            raise ConfigError(f"masses must be in [0, 1], got {bad[0]!r}")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"masses sum to {total!r}, not 1")
        self.points = tuple(ks)
        self.weights = tuple(p for _, p in pairs)
        self._ks = np.array(ks, dtype=np.int64)
        self._ps = np.array(self.weights, dtype=np.float64)
        self._cum = np.cumsum(self._ps)
        # suffix sums give exact tails at the support points; _kp[i] is
        # sum k p_k over the i smallest atoms
        self._suffix = np.append(np.cumsum(self._ps[::-1])[::-1], 0.0)
        self._kp = np.append(0.0, np.cumsum(self._ks * self._ps))

    @classmethod
    def delta(cls, k: int) -> "FiniteSupport":
        return cls(((k, 1.0),))

    def tail(self, n):
        if np.ndim(n) == 0 and n > self.points[-1]:
            return self._suffix[-1]  # 0.0, for an n that may not fit int64
        n = np.asarray(n, dtype=np.int64)
        idx = np.searchsorted(self._ks, n, side="left")
        return self._suffix[idx]

    def truncated_mean(self, n: int) -> float:
        i = int(np.searchsorted(self._ks, n, side="left"))  # atoms below n
        return float(self._kp[i] + n * self._suffix[i])

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


def int64_sum_may_overflow(draws: np.ndarray, start: int = 0) -> bool:
    """Whether the int64 partial sums of a block of lifetime draws, added to
    ``start``, may overflow.

    Below the exact bound start + max * len < 2^61 no float sum reaches
    INT64_SUM_LIMIT; above it the float64 sum decides, accumulated in place
    with no float copy of the block.
    """
    if start + int(draws.max()) * len(draws) < 2 ** 61:
        return False
    return start + float(draws.sum(dtype=np.float64)) >= INT64_SUM_LIMIT


# -- renewal sequences ----------------------------------------------------

@dataclass(frozen=True)
class RenewalSequence:
    """u_0..u_n with prefix sums a_u(n) = u_1 + ... + u_n."""

    f: LifetimeDistribution
    u: np.ndarray
    a_u: np.ndarray
    # the engine's name; perfbench's trace keys its spans and counters by it
    method: ClassVar[str] = "fft"

    def as_scaling(self) -> ScalingSequence:
        a_u = self.a_u
        positive = np.argmax(a_u > 0.0)
        if a_u[positive] <= 0.0:
            raise ConfigError("renewal prefix sums never become positive")
        return ScalingSequence(lambda n: float(a_u[n]),
                               name=f"a_u[{self.f.label}]",
                               domain_min=max(1, int(positive)),
                               domain_max=len(a_u) - 1)


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


def _reciprocal(g: np.ndarray) -> np.ndarray:
    """Power-series reciprocal v of g (g[0] = 1) mod z^len(g).

    Newton steps run through the sizes n, ceil(n/2), ceil(n/4), ... in
    ascending order, each at most doubling the one below.  The first size
    of at most _NEWTON_BASE comes from the plain recurrence
    v_k = -sum_{j=1..k} g_j v_{k-j}.  A step from m to m2 terms keeps v[:m]
    and appends v[m:m2] = -(v e)[:m2 - m], where e = (g v)[m:m2] is the
    middle product of v and g (Bernstein, "Removing redundancy in
    high-precision Newton iteration", 2004; Hanrot, Quercia and Zimmermann,
    "The middle product algorithm I", 2004): its cyclic wrap-around falls
    on coefficients it discards.  Only g's nonzero prefix, of length L,
    enters: where L > m a step shares one transform of v between its two
    products, at length about m2; where L < m the residual takes about 2L
    and the update about m2 - m + L.  The head v_0 = 1, v_1 = -g_1 enters
    both products by direct sums, since the transforms round in proportion
    to their operands: without it the new terms kept each level's
    transform noise, and geometric:0.01 at n = 2**18 read 261 ulps of p
    against the full Newton step's 82 (now 69).  Every step runs in prefixes of one work area: a
    real buffer of about 1.5 len(g) at most, holding v and the residual,
    and two spectra of about len(g) reals at most; v is returned as a view
    of the real buffer.
    """
    sizes = [len(g)]
    while sizes[-1] > _NEWTON_BASE:
        sizes.append(-(-sizes[-1] // 2))
    nz = int(np.flatnonzero(g)[-1]) + 1  # L: g_j = 0 for j >= nz
    m = sizes.pop()
    steps = []
    for m2 in reversed(sizes):
        # e reads v_i for i >= s and g_j for j < min(nz, m2), and is 0 past
        # its first k terms; the transform takes v_i from i = a on
        s = max(0, m - nz + 1)
        k = min(m2 - m, nz - 1)
        a = max(s, _HEAD)
        # the middle product wraps only below the k terms it keeps, and the
        # update v[_HEAD:m] e not at all; with a = _HEAD the middle length
        # covers both, and one transform of v[_HEAD:m] serves both
        mid = _next_fast_len(max(m - a - 1 + k, min(nz, m2) - 1))
        up = mid if a == _HEAD else _next_fast_len(m - _HEAD + k - 1)
        # the middle product lands at buf[at:], so that e starts at or past m2
        at = max(m, m2 - m + a + 1)
        steps.append((m, m2, s, k, a, mid, up, at))
        m = m2
    buf = np.empty(max((at + mid for *_, mid, _, at in steps), default=len(g)))
    m = steps[0][0] if steps else len(g)
    v = buf[:m]
    v[0] = 1.0
    for i in range(1, m):
        v[i] = -np.dot(g[1:i + 1], v[i - 1::-1])
    # two areas, each holding a spectrum or, as reals, a product
    area = 2 * max((up // 2 + 1 for *_, up, _ in steps), default=0)
    area_a, area_b = np.empty(area), np.empty(area)
    spec_a, spec_b = area_a.view(np.complex128), area_b.view(np.complex128)
    for m, m2, s, k, a, mid, up, at in steps:
        # Each product is formed in place with its operand order spelled
        # out, since complex products are not bitwise commutative.
        w = buf[m:m2]
        fa = np.fft.rfft(buf[a:m], mid, out=spec_a[:mid // 2 + 1])
        fb = np.fft.rfft(g[1:min(nz, m2)], mid, out=spec_b[:mid // 2 + 1])
        np.fft.irfft(np.multiply(fb, fa, out=fb), mid, out=buf[at:at + mid])
        e = buf[at + m - a - 1:at + m - a - 1 + k]
        # the head's terms of e, v_i g_{j-i} for i < a
        for i in range(s, a):
            e += np.multiply(g[m - i:m - i + k], buf[i], out=w[:k])
        # residual terms below 2^-511 lie far below the transforms' rounding;
        # set to 0, they keep the products clear of subnormal floats, on
        # which x86 arithmetic runs many times slower
        e[np.abs(e, out=area_b[:k]) < _FLUSH] = 0.0
        fv = fa if a == _HEAD else np.fft.rfft(buf[_HEAD:m], up, out=spec_a[:up // 2 + 1])
        fe = np.fft.rfft(e, up, out=spec_b[:up // 2 + 1])
        prod = np.fft.irfft(np.multiply(fv, fe, out=fe), up, out=area_a[:up])
        # w = -(e + v_1 z e + z^2 v[_HEAD:m] e) mod z^(m2 - m)
        w[:_HEAD] = 0.0
        w[_HEAD:] = prod[:m2 - m - _HEAD]
        w[:k] += e
        e *= buf[1]
        w[1:k + 1] += e[:m2 - m - 1]
        np.negative(w, out=w)
    return buf[:len(g)]


def _check_horizon(n: int) -> None:
    """Refuse a horizon whose tables of n + 2 8-byte values no array holds,
    before any is built; past int64, ``np.arange(1, n + 2)`` would wrap."""
    if n + 2 > _MAX_TABLE_LEN:
        raise ResourceLimitError(
            f"horizon n = {n} needs tables of {n + 2} values; "
            f"an array holds at most {_MAX_TABLE_LEN}")


def renewal_sequence(f: LifetimeDistribution, n_max: int) -> RenewalSequence:
    """Renewal sequence u with u_0 = 1 and its prefix sums.

    With the tails T_j = P(nu > j) = F(j + 1), U(z) T(z) = 1/(1 - z)
    (Feller, vol. 1, ch. XIII), so u is the cumulative sum of 1/T(z).
    Let d be the gcd of the k <= n_max with f_k != 0: u_n = 0 unless d
    divides n, and u_{dm} is the renewal sequence of nu/d, whose tails are
    T_{dm}.  One support point left after that reduction makes u the
    indicator of dZ, exactly; otherwise the reduced T is inverted by Newton
    steps of sizes ceil(n/2^k), O(n log n), each appending only its new
    terms over T's nonzero prefix (``_reciprocal``).  The constant
    1/(1 - z) anchors the limit 1/mu, so rounding does not build up along
    it: geometric:0.7 gives u_n = 0.7 exactly at n = 2**18 - 1, 2**18,
    2**20 - 1 and 2**20, the largest |u_n - p| for p from 0.002 to 0.99 and
    n up to 2**20 is 2.1e-16 (at p = 0.01), and for harmonic at n = 2**15,
    u is within 7e-17 of an 80-bit direct recursion (the float one is
    1.6e-15 off).  Where u_n tends to 0 the terms of 1/T cancel in u: for
    power:0.5 at n = 10**5, u is within 1.4e-16 of that recursion but a_u
    only within 2.7e-14 relative.  u and a_u are compensated float64 prefix
    sums (``_prefix_sum``): geometric:0.7's a_u(n) is 0.7 n rounded once at
    every n up to 2**18.

    The inversion runs in one work area, so at n = 2**20 the arrays that
    NumPy allocates peak at about 4.5 times n float64 values for tails
    without zeros (harmonic: the tails, the real buffer and the two
    spectra) and at 4 for geometric:0.7, whose short products leave the
    peak to v, u, a_u and the prefix sum's one temporary.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    _check_horizon(n_max)
    tails = np.asarray(f.tail(np.arange(1, n_max + 2, dtype=np.int64)),
                       dtype=np.float64)
    # gcd of the k <= n_max with f_k != 0; n_max + 1 if there are none
    d = int(np.gcd.reduce(np.flatnonzero(tails[:-1] != tails[1:]) + 1)) or n_max + 1
    tails[0] = 1.0
    reduced = tails[::d]
    # None where nu = d within the window, and u is the indicator of dZ
    v = None if reduced.size == 1 or reduced[1] == 0.0 else _reciprocal(reduced)
    del tails, reduced
    u = np.zeros(n_max + 1)
    a_u = np.empty(n_max + 1)
    if v is None:
        u[::d] = 1.0
    else:
        _prefix_sum(v, u[::d], a_u[:len(v)])
    del v
    # every u_n is a probability; near-periodic tails round a few past 0 or 1
    np.clip(u, 0.0, 1.0, out=u)
    a_u[0] = 0.0
    _prefix_sum(u[1:], a_u[1:], np.empty(n_max))
    return RenewalSequence(f, u, a_u)


def _prefix_sum(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Prefix sums of x into out, in float64, with work as long as x.

    ``np.cumsum`` adds in order, s_i = fl(s_{i-1} + x_i).  TwoSum (Knuth,
    TAOCP vol. 2, section 4.2.2) gives each addition's error exactly, and
    the errors' own prefix sums are added back, as in Sum2 (Ogita, Rump and
    Oishi, "Accurate sum and dot product", 2005): each sum is as accurate
    as if formed in twice the working precision and rounded once.
    """
    np.cumsum(x, out=out)
    # with z = s_i - s_{i-1}, the error is (x_i - z) - ((s_i - z) - s_{i-1})
    z = np.subtract(out[1:], out[:-1], out=work[1:])
    t = out[1:] - z
    t -= out[:-1]
    np.subtract(x[1:], z, out=z)
    z -= t
    out[1:] += np.cumsum(z, out=z)
    return out


# -- truncated-mean scaling ------------------------------------------------

def truncated_mean_scaling(f: LifetimeDistribution) -> ScalingSequence:
    """a(n) = n / L(n), nondecreasing because L(n)/n averages the
    nonincreasing tail; regvar.invert_scaling gives its inverse b."""
    return ScalingSequence(lambda n: n / f.truncated_mean(n), name=f"tm[{f.label}]")


# -- diagnostic series ------------------------------------------------------

@dataclass(frozen=True)
class QueenSeries:
    """Terms and partial sums of sum_n (F(n)/L(n))^2."""

    terms: np.ndarray
    partial_sums: np.ndarray
    tails: np.ndarray
    lengths: np.ndarray


def queen_series(f: LifetimeDistribution, n_max: int) -> QueenSeries:
    """Partial sums of (F(n)/L(n))^2 for n = 1..n_max; data, not a verdict."""
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    _check_horizon(n_max)
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    tails = np.asarray(f.tail(ns), dtype=np.float64)
    work = np.empty(n_max)
    lengths = _prefix_sum(tails, np.empty(n_max), work)
    terms = (tails / lengths) ** 2
    return QueenSeries(terms, _prefix_sum(terms, np.empty(n_max), work), tails, lengths)


@dataclass(frozen=True)
class DyadicTailSeries:
    """Terms and partial sums of sum_n 2^n F(ceil(t b(2^n)))^2, n = 0..n_max."""

    b_values: tuple[int, ...]
    thresholds: tuple[int, ...]
    terms: np.ndarray
    partial_sums: np.ndarray


def check_dyadic_tail(t: float, n_max: int) -> None:
    """The range checks of ``dyadic_tail_series``, which a caller runs
    before it builds a costly scaling."""
    if t <= 0:
        raise ConfigError("t must be positive")
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    _check_horizon(n_max)


def dyadic_tail_series(f: LifetimeDistribution, scaling: ScalingSequence,
                       t: float, n_max: int) -> DyadicTailSeries:
    """Dyadic second-moment tail series for the supplied scaling.

    b is the generalized inverse of the scaling (n/L(n) based or an
    empirical renewal prefix sum); horizon errors propagate.
    """
    check_dyadic_tail(t, n_max)
    b_values = []
    thresholds = []
    terms = np.empty(n_max + 1)
    for n in range(n_max + 1):
        b_n = invert_scaling(scaling, 2 ** n)
        reach = t * b_n
        if not math.isfinite(reach):
            raise ConfigError(f"t * b(2^n) overflows a float at t = {t!r}, dyadic "
                              f"index n = {n} (b = {b_n}); its ceiling is the threshold")
        m = math.ceil(reach)
        b_values.append(b_n)
        thresholds.append(m)
        terms[n] = (2.0 ** n) * float(f.tail(m)) ** 2
    return DyadicTailSeries(tuple(b_values), tuple(thresholds), terms,
                            np.cumsum(terms))


# -- trimmed sums -----------------------------------------------------------

@dataclass(frozen=True)
class TrimmedSumResult:
    """Per-trial values of (nu_1 + ... + nu_n - max nu_i) / b(n)."""

    b_n: int
    ratios: np.ndarray
    mean: float
    std: float
    quantiles: dict[str, float]


_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def trimmed_sum_trials(f: LifetimeDistribution, n: int, trials: int,
                       seed: int) -> TrimmedSumResult:
    """Monte Carlo for the maximally trimmed partial sum, normalized by b(n).

    Trial i uses the stream spawned from (seed, i), so any single trial is
    reproducible in isolation.
    """
    if n < 2:
        raise ConfigError("n must be >= 2")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    _check_horizon(n)
    b_n = invert_scaling(truncated_mean_scaling(f), n)
    ratios = np.empty(trials)
    for i in range(trials):
        nu = f.sample(spawn(seed, i), n)
        if int64_sum_may_overflow(nu):
            raise ResourceLimitError(
                "partial sums would overflow int64; reduce n or lighten the tail")
        ratios[i] = (int(nu.sum()) - int(nu.max())) / b_n
    qs = np.quantile(ratios, _QUANTILE_LEVELS)
    quantiles = {f"q{int(100 * lvl):02d}": float(v)
                 for lvl, v in zip(_QUANTILE_LEVELS, qs)}
    return TrimmedSumResult(b_n, ratios,
                            float(ratios.mean()), float(ratios.std()),
                            quantiles)
