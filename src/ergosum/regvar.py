"""Scaling sequences and regular-variation diagnostics.

A scaling sequence is a positive, nondecreasing map ``n -> a(n)`` on the
positive integers used to normalize occupation counts: tower step
functions, renewal prefix sums, truncated-mean ratios ``n/L(n)``, or
closed forms.  The diagnostics tabulate multiplicative bands observed on
finite geometric grids.  They deliberately never return a convergence
verdict: no finite table decides an asymptotic statement, so the caller
gets the band and draws conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ScalingHorizonError

# the generalized inverse searches no further than this index
SEARCH_HORIZON = 2 ** 62


class ScalingSequence:
    """Queryable normalizing sequence with a source label.

    Parameters
    ----------
    fn : callable
        Maps an integer index to a positive number (int or float; exact
        integers are preserved so ratios of huge values stay accurate).
    name : str
        Source label, recorded in reports and provenance.
    domain_min, domain_max : int
        Inclusive query bounds; array-backed sequences are only defined up
        to their length.
    """

    def __init__(self, fn: Callable[[int], float], name: str,
                 domain_min: int = 1, domain_max: int | None = None):
        self._fn = fn
        self.name = name
        self.domain_min = domain_min
        self.domain_max = domain_max

    def __call__(self, n: int):
        n = int(n)
        if n < self.domain_min:
            raise ValueError(
                f"{self.name}: index {n} below domain start {self.domain_min}")
        if self.domain_max is not None and n > self.domain_max:
            raise ScalingHorizonError(
                f"{self.name}: index {n} beyond domain end {self.domain_max}")
        return self._fn(n)

    def __repr__(self):
        return f"ScalingSequence({self.name!r})"


def invert_scaling(a: ScalingSequence, y) -> int:
    """Smallest integer t with a(t) >= y, for nondecreasing a.

    Exponential search followed by integer bisection; raises
    ScalingHorizonError when y is not reached by t = SEARCH_HORIZON or the
    end of the sequence's own domain.
    """
    lo = a.domain_min
    if a(lo) >= y:
        return lo
    limit = SEARCH_HORIZON
    if a.domain_max is not None:
        limit = min(limit, a.domain_max)
    hi = lo
    while a(hi) < y:
        if hi >= limit:
            raise ScalingHorizonError(
                f"{a.name}: a({hi}) = {a(hi)} < {y} at search horizon")
        hi = min(hi * 2, limit) if hi > 0 else 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if a(mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ERRow:
    p: int
    n: int
    a_n: float
    a_pn: float
    ratio: float


@dataclass(frozen=True)
class ERReport:
    """Two-sided band table for ``r(p, n) = a(pn) / (p * a(n))``.

    ``m_hat`` is the largest multiplicative deviation max(r, 1/r) over the
    whole table.  ``stable_from[p]`` is the first grid index from which all
    later tabulated deviations stay inside the band observed on the final
    quarter of the grid (an empirical stand-in for the index past which the
    band has settled).
    """

    rows: tuple[ERRow, ...]
    m_hat: float
    stable_from: dict[int, int]

    def as_rows(self):
        return [(r.p, r.n, r.a_n, r.a_pn, r.ratio) for r in self.rows]


def _geometric_grid(n_lo: int, n_hi: int, factor: int) -> list[int]:
    if n_lo < 1:
        raise ValueError("n_lo must be >= 1")
    if factor < 2:
        raise ValueError("grid factor must be >= 2")
    grid = []
    n = n_lo
    while n <= n_hi:
        grid.append(n)
        n *= factor
    return grid


def er_diagnostic(a: ScalingSequence, p_values: Sequence[int],
                  n_lo: int, n_hi: int, grid_factor: int = 2) -> ERReport:
    """Tabulate a(pn)/(p a(n)) on a geometric grid and report the band."""
    p_values = tuple(int(p) for p in p_values)
    for p in p_values:
        if p <= 1:
            raise ValueError("p values must exceed 1")
        if n_hi < p * n_lo:
            raise ValueError(f"n_hi = {n_hi} < p*n_lo = {p * n_lo}")
    grid = _geometric_grid(n_lo, n_hi, grid_factor)
    rows = []
    m_hat = 1.0
    stable_from: dict[int, int] = {}
    for p in p_values:
        devs = []
        for n in grid:
            a_n = a(n)
            a_pn = a(p * n)
            if a_n <= 0 or a_pn <= 0:
                raise ValueError(f"{a.name}: nonpositive value in table at n={n}")
            # int/int division handles values beyond float range correctly
            r = a_pn / (p * a_n)
            rows.append(ERRow(p, n, float(a_n), float(a_pn), r))
            dev = max(r, 1.0 / r)
            devs.append(dev)
            m_hat = max(m_hat, dev)
        tail = devs[-max(1, len(devs) // 4):]
        band = max(tail) * (1.0 + 1e-12)
        start = grid[0]
        for i in range(len(grid) - 1, -1, -1):
            if devs[i] > band:
                break
            start = grid[i]
        stable_from[p] = start
    return ERReport(tuple(rows), m_hat, stable_from)


@dataclass(frozen=True)
class SVRow:
    n: int
    l_n: float
    l_2n: float
    ratio: float


@dataclass(frozen=True)
class SVReport:
    """Doubling ratios L(2n)/L(n) and their maximal deviation from 1."""

    rows: tuple[SVRow, ...]
    max_deviation: float

    def as_rows(self):
        return [(r.n, r.l_n, r.l_2n, r.ratio) for r in self.rows]


def sv_diagnostic(length_fn, n_lo: int, n_hi: int, grid_factor: int = 2) -> SVReport:
    """Slow-variation table for a queryable sequence ``L``.

    ``length_fn`` may be a plain callable or a ScalingSequence.
    """
    grid = _geometric_grid(n_lo, n_hi, grid_factor)
    rows = []
    max_dev = 0.0
    for n in grid:
        l_n = float(length_fn(n))
        l_2n = float(length_fn(2 * n))
        if l_n <= 0:
            raise ValueError(f"nonpositive L({n})")
        ratio = l_2n / l_n
        rows.append(SVRow(n, l_n, l_2n, ratio))
        max_dev = max(max_dev, abs(ratio - 1.0))
    return SVReport(tuple(rows), max_dev)
