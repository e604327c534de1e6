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

from typing import Callable, NamedTuple, Sequence

from .errors import ConfigError, InvariantViolationError, ResourceLimitError

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
            raise ConfigError(
                f"{self.name}: index {n} below domain start {self.domain_min}")
        if self.domain_max is not None and n > self.domain_max:
            raise ResourceLimitError(
                f"{self.name}: index {n} beyond domain end {self.domain_max}")
        return self._fn(n)

    def __repr__(self):
        return f"ScalingSequence({self.name!r})"


def invert_scaling(a: ScalingSequence, y) -> int:
    """Smallest integer t with a(t) >= y, for nondecreasing a.

    Exponential search followed by integer bisection; raises
    ResourceLimitError when y is not reached by t = SEARCH_HORIZON or the
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
            raise ResourceLimitError(
                f"{a.name}: a({hi}) = {a(hi)} < {y} at search horizon")
        hi = min(hi * 2, limit) if hi > 0 else 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if a(mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


class ERRow(NamedTuple):
    """One cell of the band table; the field names are the CSV header."""

    p: int
    n: int
    a_n: float
    a_pn: float
    ratio: float


class ERReport(NamedTuple):
    """Band table rows and ``m_hat``, the largest max(r, 1/r) in the table."""

    rows: list[ERRow]
    m_hat: float


def check_band(p_values: Sequence[int], n_lo: int, n_hi: int,
               grid_factor: int = 2) -> None:
    """The range checks of ``er_diagnostic`` (ConfigError), which a caller
    runs before it builds a costly scaling."""
    for p in p_values:
        if p <= 1:
            raise ConfigError("p values must exceed 1")
        if n_hi < p * n_lo:
            raise ConfigError(f"n_hi = {n_hi} < p*n_lo = {p * n_lo}")
    if n_lo < 1:
        raise ConfigError("n_lo must be >= 1")
    if grid_factor < 2:
        raise ConfigError("grid factor must be >= 2")


def er_diagnostic(a: ScalingSequence, p_values: Sequence[int],
                  n_lo: int, n_hi: int, grid_factor: int = 2) -> ERReport:
    """Tabulate r(p, n) = a(pn)/(p a(n)) on a geometric grid, p-major.

    The rows carry the table; ``m_hat`` summarizes its two-sided band.  For
    a(n) = n/L(n), r(2, n) = L(n)/L(2n): the p = 2 band tabulates the slow
    variation of L.
    """
    p_values = tuple(int(p) for p in p_values)
    check_band(p_values, n_lo, n_hi, grid_factor)
    grid = []
    n = n_lo
    while n <= n_hi:
        grid.append(n)
        n *= grid_factor
    rows = []
    m_hat = 1.0
    for p in p_values:
        for n in grid:
            a_n = a(n)
            a_pn = a(p * n)
            if a_n <= 0 or a_pn <= 0:
                raise InvariantViolationError(
                    f"{a.name}: nonpositive value in table at n={n}")
            # int/int division handles values beyond float range correctly
            r = a_pn / (p * a_n)
            rows.append(ERRow(p, n, float(a_n), float(a_pn), r))
            m_hat = max(m_hat, r, 1.0 / r)
    return ERReport(rows, m_hat)
