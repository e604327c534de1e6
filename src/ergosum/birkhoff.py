"""Normalized-ratio statistics of a rank-one ensemble's occupation counts.

The counts are the array of ``rankone.ensemble_window_counts``:
counts[j, i] is (s_minus, s_plus) of seed i at checkpoint radius n_j, the
base visits at times -n_j..0 and 0..n_j along its symbolic name (walk
orbits are counted in ``lattice.walk_counts``, not here).  Time 0 is always
a visit, since names start on the base, and the center is counted once,
shared by both one-sided counts, so the symmetric count is
sigma = s_plus + s_minus - 1.

Normalized statistics divide by a scaling sequence a(n), evaluated once
per checkpoint for the whole ensemble, and keep each seed's ratio extrema
past a burn-in.  The extrema are finite-horizon bounds for
limit-superior/inferior quantities and are labeled as such; nothing here
extrapolates.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvariantViolationError
from .regvar import ScalingSequence


@dataclass(frozen=True)
class NormalizedStats:
    """Ensemble-normalized ratio statistics.

    a_n[j] is the scaling at checkpoint j, evaluated once for the whole
    ensemble; a checkpoint below the burn-in and below the scaling's domain
    has a_n None.  sigma[j, i] is seed i's exact symmetric count at
    checkpoint j (int64, or Python ints where it may pass int64).
    ratio_sym[j, i] = sigma / (2 a_n) and ratio_plus[j, i] = s_plus / a_n
    are float64, NaN where a_n is None.  sup_plus[i] is seed i's largest
    ratio_plus, and sup_sym[i] and inf_sym[i] are the extrema of its
    ratio_sym, over the checkpoints at or past the burn-in.

    alpha_hat / beta_hat are maxima of one-sided and symmetric ratio
    suprema over the ensemble; beta_lower_hat is the minimum of the
    symmetric ratio infima.  All three are finite-horizon bounds for the
    corresponding limit quantities (lower bounds for the suprema, an upper
    bound for the infimum); enlarging the ensemble or the horizon moves them
    only toward the limits.
    """

    a_n: tuple
    sigma: np.ndarray
    ratio_sym: np.ndarray
    ratio_plus: np.ndarray
    sup_plus: np.ndarray
    sup_sym: np.ndarray
    inf_sym: np.ndarray
    alpha_hat: float
    beta_hat: float
    beta_lower_hat: float
    flags: tuple[str, ...]


def normalized_stats(counts: np.ndarray, checkpoints: Sequence[int],
                     scaling: ScalingSequence, burn_in: int) -> NormalizedStats:
    """Ratios, their extrema, and ensemble estimators for an ensemble's counts.

    counts[j, i] = (s_minus, s_plus) of seed i at checkpoints[j], as
    ``rankone.ensemble_window_counts`` returns them.  A checkpoint at or
    past the burn-in must lie in the scaling's domain.  Each ratio is one
    Python division of the exact count by a(n), so it is correctly rounded
    at any size.  The sanity bound beta_lower_hat <= alpha_hat/2 + 0.1 is
    checked and a violation is flagged (and warned about), never silently
    accepted: finite-horizon estimators only approximate the limit
    quantities, so a breach means the run deserves review, not an exception.
    """
    cps = tuple(checkpoints)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigError("checkpoints must be strictly increasing")
    if len(counts) != len(cps):
        raise ConfigError(f"{len(counts)} count rows for {len(cps)} checkpoints")
    if counts.shape[1] == 0:
        raise ConfigError("ensemble must be nonempty")
    if burn_in < 1:
        raise ConfigError("burn_in must be >= 1")
    if counts.dtype != object and counts.max(initial=0) >= 2 ** 62:
        counts = counts.astype(object)  # s_plus + s_minus may pass int64
    drops = np.argwhere(np.diff(counts, axis=0) < 0)
    if len(drops):
        j, i, side = drops[0].tolist()
        raise InvariantViolationError(
            f"{('s_minus', 's_plus')[side]} of seed {i} decreases after checkpoint {cps[j]}")
    sigma = counts[..., 0] + counts[..., 1] - 1
    for n, sg in zip(cps, sigma.max(axis=1).tolist()):
        if sg > 2 * n + 1:
            raise InvariantViolationError(
                f"sigma = {sg} exceeds window size {2 * n + 1} at {n}")
    a_n = []
    for n in cps:
        if n < max(1, scaling.domain_min):
            if n >= burn_in:
                raise ConfigError(
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
        raise ConfigError(f"no checkpoints at or past burn-in {burn_in}")
    ratio_sym = np.full(sigma.shape, np.nan)
    ratio_plus = np.full(sigma.shape, np.nan)
    # one row of Python ints at a time: a float64 division would round the
    # operands first once they pass 2^53
    for j, a in enumerate(a_n):
        if a is not None:
            ratio_sym[j] = [sg / (2 * a) for sg in sigma[j].tolist()]
            ratio_plus[j] = [sp / a for sp in counts[j, :, 1].tolist()]
    sup_plus = ratio_plus[start:].max(axis=0)
    sup_sym, inf_sym = ratio_sym[start:].max(axis=0), ratio_sym[start:].min(axis=0)
    alpha_hat = float(sup_plus.max())
    beta_hat = float(sup_sym.max())
    beta_lower_hat = float(inf_sym.min())
    flags = []
    if beta_lower_hat > alpha_hat / 2 + 0.1:
        flags.append(
            f"beta_lower_hat = {beta_lower_hat:.4f} exceeds alpha_hat/2 + 0.1 "
            f"= {alpha_hat / 2 + 0.1:.4f}; review the horizon and burn-in")
        warnings.warn(flags[-1], stacklevel=2)
    return NormalizedStats(tuple(a_n), sigma, ratio_sym, ratio_plus, sup_plus, sup_sym,
                           inf_sym, alpha_hat, beta_hat, beta_lower_hat, tuple(flags))
