"""Checkpointed occupation series along orbits and normalized-ratio statistics.

A series records the one-sided counts of base visits at a grid of window
radii along the symbolic name of a rank-one tower point (walk orbits are
counted in ``lattice.walk_counts``, not here).  Time 0 is always a visit,
since names start on the base, and the center is counted once, shared by
both one-sided counts, so the symmetric count is sigma = s_plus + s_minus - 1.

Normalized statistics divide by a scaling sequence a(n), evaluated once
per checkpoint for the whole ensemble, and keep each series' ratio extrema
past a burn-in.  The extrema are finite-horizon bounds for
limit-superior/inferior quantities and are labeled as such; nothing here
extrapolates.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvariantViolationError
from .rankone import NameSampler, ensemble_window_counts
from .regvar import ScalingSequence


@dataclass(frozen=True)
class BirkhoffSeries:
    """Occupation counts at increasing checkpoint radii.

    s_plus[i] counts visits at times 0..n_i and s_minus[i] at times
    -n_i..0.  The center is counted once, shared by both, so sigma[i], the
    count at |t| <= n_i, is s_plus[i] + s_minus[i] - 1.
    """

    checkpoints: tuple[int, ...]
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]

    def __post_init__(self):
        cps = self.checkpoints
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        for seq, name in ((self.s_plus, "s_plus"), (self.s_minus, "s_minus")):
            if len(seq) != len(cps):
                raise ValueError(f"{name} length does not match checkpoints")
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise InvariantViolationError(f"{name} is not nondecreasing")
        for n, sg in zip(cps, self.sigma):
            if sg > 2 * n + 1:
                raise InvariantViolationError(
                    f"sigma = {sg} exceeds window size {2 * n + 1} at {n}")

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        return tuple(sp + sm - 1 for sp, sm in zip(self.s_plus, self.s_minus))


def series_from_names(samplers: Sequence[NameSampler],
                      checkpoints: Sequence[int]) -> list[BirkhoffSeries]:
    """Counts from each symbolic name at each checkpoint radius.

    The samplers share one tower; at each checkpoint the windows of all of
    them are counted together (``rankone.ensemble_window_counts``).
    """
    if not samplers:
        return []
    cps = tuple(int(n) for n in checkpoints)
    # counts[j][i] is sampler i's (s_minus, s_plus) at checkpoint j
    counts = [ensemble_window_counts(samplers, n) for n in cps]
    return [BirkhoffSeries(cps, s_plus=tuple(c[i][1] for c in counts),
                           s_minus=tuple(c[i][0] for c in counts))
            for i in range(len(samplers))]


@dataclass(frozen=True)
class SeriesStats:
    """One orbit's ratios per checkpoint, and their extrema past the burn-in.

    ratio_sym[i] = sigma / (2 a_n) and ratio_plus[i] = s_plus / a_n, with
    the ensemble's a_n (``NormalizedStats.a_n``); both are NaN where a_n is
    None.  sup_plus is the largest ratio_plus, and sup_sym and inf_sym are
    the extrema of ratio_sym, over the checkpoints at or past the burn-in.
    """

    ratio_sym: tuple[float, ...]
    ratio_plus: tuple[float, ...]
    sup_plus: float
    sup_sym: float
    inf_sym: float

    @property
    def oscillation(self) -> float:
        return self.sup_sym - self.inf_sym


@dataclass(frozen=True)
class NormalizedStats:
    """Ensemble-normalized ratio statistics.

    a_n[i] is the scaling at checkpoint i, evaluated once for the whole
    ensemble; a checkpoint below the burn-in and below the scaling's domain
    has a_n None.  alpha_hat / beta_hat are maxima of one-sided and
    symmetric ratio suprema over the ensemble; beta_lower_hat is the
    minimum of the symmetric ratio infima.  All three are finite-horizon
    bounds for the corresponding limit quantities (lower bounds for the
    suprema, an upper bound for the infimum); enlarging the ensemble or the
    horizon moves them only toward the limits.
    """

    a_n: tuple
    series: tuple[SeriesStats, ...]
    alpha_hat: float
    beta_hat: float
    beta_lower_hat: float
    flags: tuple[str, ...]


def _series_stats(series: BirkhoffSeries, a_n: Sequence, start: int) -> SeriesStats:
    ratio_sym = tuple(math.nan if a is None else sg / (2 * a)
                      for sg, a in zip(series.sigma, a_n))
    ratio_plus = tuple(math.nan if a is None else sp / a
                       for sp, a in zip(series.s_plus, a_n))
    tail = ratio_sym[start:]
    return SeriesStats(ratio_sym, ratio_plus, sup_plus=max(ratio_plus[start:]),
                       sup_sym=max(tail), inf_sym=min(tail))


def normalized_stats(ensemble: Sequence[BirkhoffSeries], scaling: ScalingSequence,
                     burn_in: int) -> NormalizedStats:
    """Ratios, their extrema, and ensemble estimators for a series ensemble.

    The series must share their checkpoints.  A checkpoint at or past the
    burn-in must lie in the scaling's domain.  The sanity bound
    beta_lower_hat <= alpha_hat/2 + 0.1 is checked and a violation is
    flagged (and warned about), never silently accepted: finite-horizon
    estimators only approximate the limit quantities, so a breach means
    the run deserves review, not an exception.
    """
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    cps = ensemble[0].checkpoints
    if any(s.checkpoints != cps for s in ensemble):
        raise ValueError("the series of an ensemble must share their checkpoints")
    a_n = []
    for n in cps:
        if n < max(1, scaling.domain_min):
            if n >= burn_in:
                raise ValueError(
                    f"checkpoint {n} is at or past the burn-in {burn_in} but below "
                    f"{scaling.name}'s domain_min {scaling.domain_min}")
            a_n.append(None)
            continue
        a = scaling(n)
        if a <= 0:
            raise InvariantViolationError(f"{scaling.name}: a({n}) <= 0")
        a_n.append(a)
    start = bisect_left(cps, burn_in)
    if start == len(cps):
        raise ValueError(f"no checkpoints at or past burn-in {burn_in}")
    stats = tuple(_series_stats(s, a_n, start) for s in ensemble)
    alpha_hat = max(s.sup_plus for s in stats)
    beta_hat = max(s.sup_sym for s in stats)
    beta_lower_hat = min(s.inf_sym for s in stats)
    flags = []
    if beta_lower_hat > alpha_hat / 2 + 0.1:
        flags.append(
            f"beta_lower_hat = {beta_lower_hat:.4f} exceeds alpha_hat/2 + 0.1 "
            f"= {alpha_hat / 2 + 0.1:.4f}; review the horizon and burn-in")
        warnings.warn(flags[-1], stacklevel=2)
    return NormalizedStats(tuple(a_n), stats, alpha_hat, beta_hat, beta_lower_hat,
                           tuple(flags))


def series_rows(series: BirkhoffSeries, stats: SeriesStats,
                a_n: Sequence) -> list[tuple]:
    """Rows (n, s_plus, s_minus, sigma, a_n, ratio_sym, ratio_plus) for CSV.

    Formats the counts, the ensemble's a_n and the series' ratios from
    normalized_stats; nothing is evaluated again.  A checkpoint below the
    scaling's domain gets empty a_n and ratio cells.
    """
    return [row if row[4] is not None else (*row[:4], "", "", "")
            for row in zip(series.checkpoints, series.s_plus, series.s_minus,
                           series.sigma, a_n, stats.ratio_sym, stats.ratio_plus)]
