"""Checkpointed occupation series along orbits and normalized-ratio statistics.

A series records the one-sided and symmetric counts of base visits at a
grid of window radii along the symbolic name of a rank-one tower point
(walk orbits are counted in ``lattice.walk_counts``, not here).  Time 0 is
always a visit, since names start on the base, and the center is counted
once, shared by both one-sided counts; the convention is recorded on every
series so the exact identity sigma = s_plus + s_minus - 1 is checkable
downstream.

Normalized statistics divide by a scaling sequence and keep running
extrema past a burn-in.  The extrema are finite-horizon bounds for
limit-superior/inferior quantities and are labeled as such; nothing here
extrapolates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolationError
from .rankone import NameSampler, ensemble_window_counts
from .regvar import ScalingSequence

CENTER_CONVENTION = "center counted once, shared by s_plus and s_minus"


@dataclass(frozen=True)
class BirkhoffSeries:
    """Occupation counts at increasing checkpoint radii.

    s_plus[i] counts visits at times 0..n_i, s_minus[i] at times -n_i..0,
    sigma[i] at |t| <= n_i; with the recorded center convention
    sigma = s_plus + s_minus - 1 exactly.
    """

    checkpoints: tuple[int, ...]
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    sigma: tuple[int, ...]
    source: str
    convention: str = CENTER_CONVENTION

    def __post_init__(self):
        cps = self.checkpoints
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        for seq, name in ((self.s_plus, "s_plus"), (self.s_minus, "s_minus"),
                          (self.sigma, "sigma")):
            if len(seq) != len(cps):
                raise ValueError(f"{name} length does not match checkpoints")
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise InvariantViolationError(f"{name} is not nondecreasing")
        for n, sp, sm, sg in zip(cps, self.s_plus, self.s_minus, self.sigma):
            if sg != sp + sm - 1:
                raise InvariantViolationError(
                    f"sigma != s_plus + s_minus - 1 at checkpoint {n}")
            if sg > 2 * n + 1:
                raise InvariantViolationError(
                    f"sigma = {sg} exceeds window size {2 * n + 1} at {n}")


def series_from_names(samplers: Sequence[NameSampler],
                      checkpoints: Sequence[int]) -> list[BirkhoffSeries]:
    """Counts from each symbolic name at each checkpoint radius.

    The samplers share one tower; at each checkpoint the windows of all of
    them are counted together (``rankone.ensemble_window_counts``).
    """
    if not samplers:
        return []
    cps = tuple(int(n) for n in checkpoints)
    counts = [([], [], []) for _ in samplers]
    for n in cps:
        for (s_plus, s_minus, sigma), w in zip(counts, ensemble_window_counts(samplers, n)):
            s_plus.append(w.s_plus)
            s_minus.append(w.s_minus)
            sigma.append(w.sigma)
    label = samplers[0].tower.data.name or "custom"
    return [BirkhoffSeries(cps, tuple(s_plus), tuple(s_minus), tuple(sigma),
                           source=f"rankone[{label}]")
            for s_plus, s_minus, sigma in counts]


def series_from_name(sampler: NameSampler,
                     checkpoints: Sequence[int]) -> BirkhoffSeries:
    """Counts from a symbolic name at each checkpoint radius."""
    return series_from_names([sampler], checkpoints)[0]


@dataclass(frozen=True)
class SeriesStats:
    """One orbit's a(n) and ratios per checkpoint, and extrema past the burn-in.

    a_n[i] is the scaling at checkpoint i, evaluated once; ratio_sym[i] =
    sigma / (2 a_n) and ratio_plus[i] = s_plus / a_n.  A checkpoint below
    the burn-in and below the scaling's domain has a_n None and NaN ratios;
    one past the burn-in must lie in the domain.  The running extrema of
    ratio_sym start at the burn-in.
    """

    a_n: tuple
    ratio_sym: tuple[float, ...]
    ratio_plus: tuple[float, ...]
    running_sup: tuple[float, ...]
    running_inf: tuple[float, ...]
    sup_plus: float
    oscillation: float

    @property
    def sup_sym(self) -> float:
        return self.running_sup[-1]

    @property
    def inf_sym(self) -> float:
        return self.running_inf[-1]


@dataclass(frozen=True)
class NormalizedStats:
    """Ensemble-normalized ratio statistics.

    alpha_hat / beta_hat are maxima of one-sided and symmetric ratio
    suprema over the ensemble; beta_lower_hat is the minimum of the
    symmetric ratio infima.  All three are finite-horizon bounds for the
    corresponding limit quantities (lower bounds for the suprema, an upper
    bound for the infimum); enlarging the ensemble or the horizon moves
    them only toward the limits.
    """

    series: tuple[SeriesStats, ...]
    alpha_hat: float
    beta_hat: float
    beta_lower_hat: float
    flags: tuple[str, ...]

    @property
    def oscillations(self) -> tuple[float, ...]:
        return tuple(s.oscillation for s in self.series)


def _series_stats(series: BirkhoffSeries, scaling: ScalingSequence,
                  burn_in: int) -> SeriesStats:
    a_values, ratio_sym, ratio_plus = [], [], []
    for n, sp, sg in zip(series.checkpoints, series.s_plus, series.sigma):
        if n < max(1, scaling.domain_min):
            if n >= burn_in:
                raise ValueError(
                    f"checkpoint {n} is at or past the burn-in {burn_in} but below "
                    f"{scaling.name}'s domain_min {scaling.domain_min}")
            a_values.append(None)
            ratio_sym.append(math.nan)
            ratio_plus.append(math.nan)
            continue
        a_n = scaling(n)
        if a_n <= 0:
            raise InvariantViolationError(f"{scaling.name}: a({n}) <= 0")
        a_values.append(a_n)
        ratio_sym.append(sg / (2 * a_n))
        ratio_plus.append(sp / a_n)
    tail = [(rs, rp) for n, rs, rp in
            zip(series.checkpoints, ratio_sym, ratio_plus) if n >= burn_in]
    if not tail:
        raise ValueError(f"no checkpoints at or past burn-in {burn_in}")
    sup, inf = -math.inf, math.inf
    running_sup, running_inf = [], []
    for rs, _ in tail:
        sup = max(sup, rs)
        inf = min(inf, rs)
        running_sup.append(sup)
        running_inf.append(inf)
    return SeriesStats(
        a_n=tuple(a_values),
        ratio_sym=tuple(ratio_sym),
        ratio_plus=tuple(ratio_plus),
        running_sup=tuple(running_sup),
        running_inf=tuple(running_inf),
        sup_plus=max(rp for _, rp in tail),
        oscillation=sup - inf,
    )


def normalized_stats(ensemble: Sequence[BirkhoffSeries], scaling: ScalingSequence,
                     burn_in: int) -> NormalizedStats:
    """Ratios, running extrema, and ensemble estimators for a series ensemble.

    The sanity bound beta_lower_hat <= alpha_hat/2 + 0.1 is checked and a
    violation is flagged (and warned about), never silently accepted:
    finite-horizon estimators only approximate the limit quantities, so a
    breach means the run deserves review, not an exception.
    """
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    stats = tuple(_series_stats(s, scaling, burn_in) for s in ensemble)
    alpha_hat = max(s.sup_plus for s in stats)
    beta_hat = max(s.sup_sym for s in stats)
    beta_lower_hat = min(s.inf_sym for s in stats)
    flags = []
    if beta_lower_hat > alpha_hat / 2 + 0.1:
        flags.append(
            f"beta_lower_hat = {beta_lower_hat:.4f} exceeds alpha_hat/2 + 0.1 "
            f"= {alpha_hat / 2 + 0.1:.4f}; review the horizon and burn-in")
        warnings.warn(flags[-1], stacklevel=2)
    return NormalizedStats(stats, alpha_hat, beta_hat, beta_lower_hat,
                           tuple(flags))


def series_rows(series: BirkhoffSeries, stats: SeriesStats) -> list[tuple]:
    """Rows (n, s_plus, s_minus, sigma, a_n, ratio_sym, ratio_plus) for CSV.

    Formats the counts and their record from normalized_stats; nothing is
    evaluated again.  A checkpoint below the scaling's domain gets empty
    a_n and ratio cells.
    """
    return [row if row[4] is not None else (*row[:4], "", "", "")
            for row in zip(series.checkpoints, series.s_plus, series.s_minus,
                           series.sigma, stats.a_n, stats.ratio_sym,
                           stats.ratio_plus)]
