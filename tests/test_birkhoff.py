"""Occupation series, conventions, and normalized-ratio statistics."""

import math
import warnings

import pytest

from ergosum import birkhoff as bk
from ergosum import cli
from ergosum import rankone as rk
from ergosum import renewal as rn
from ergosum.errors import ConfigError, InvariantViolationError
from ergosum.regvar import ScalingSequence
from ergosum.streams import spawn


@pytest.fixture(scope="module")
def odometer():
    return rk.load_preset("odometer")


@pytest.fixture(scope="module")
def chacon():
    return rk.load_preset("chacon")


def _ensemble(data, seeds, cps):
    """Series of the seeds' names counted together on one tower, as a rank-one run counts them."""
    tower = rk.Tower(data)
    return bk.series_from_names([rk.NameSampler(tower, s) for s in seeds], cps)


# -- series construction -------------------------------------------------------


def test_series_from_name_odometer(odometer):
    for series in _ensemble(odometer, range(3), (1, 2, 4)):
        assert series.sigma == (3, 5, 9)
        assert series.s_plus == (2, 3, 5)
        assert series.s_minus == (2, 3, 5)


def test_series_checkpoint_zero(chacon):
    for series in _ensemble(chacon, range(3, 6), (0, 3)):
        assert series.sigma[0] == 1
        assert series.s_plus[0] == series.s_minus[0] == 1


def test_series_chacon_bracket(chacon):
    for series in _ensemble(chacon, range(5), (13,)):
        assert 9 <= series.sigma[0] <= 27


def test_series_consistency_identity(chacon):
    cps = (1, 2, 4, 8, 16, 64, 256, 1024)
    for series in _ensemble(chacon, range(4), cps):
        for n, sp, sm, sg in zip(series.checkpoints, series.s_plus,
                                 series.s_minus, series.sigma):
            assert sg == sp + sm - 1
            assert sg <= 2 * n + 1
        assert all(b >= a for a, b in zip(series.sigma, series.sigma[1:]))
        assert all(b >= a for a, b in zip(series.s_plus, series.s_plus[1:]))


def test_series_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        bk.BirkhoffSeries((2, 1), (1, 1), (1, 1))
    with pytest.raises(ConfigError, match="s_minus length does not match"):
        bk.BirkhoffSeries((1, 2), (1, 1), (1,))
    with pytest.raises(InvariantViolationError):
        bk.BirkhoffSeries((1, 2), (2, 2), (3, 2))
    with pytest.raises(InvariantViolationError):
        bk.BirkhoffSeries((1,), (3,), (2,))  # sigma 4 > 2*1+1


# -- normalized statistics --------------------------------------------------------


def test_normalized_stats_odometer_band(odometer):
    cps = tuple(2 ** e for e in range(4, 14))
    scaling = rk.rank_one_scaling(rk.Tower(odometer))
    ensemble = _ensemble(odometer, range(3), cps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats(ensemble, scaling, burn_in=16)
    for s in stats.series:
        assert all(0.5 <= r < 1.1 for r in s.ratio_sym)
    # all-base name at dyadic checkpoints: a(n) = 2n exactly
    assert stats.beta_hat == pytest.approx((2 * 16 + 1) / (4 * 16))


def test_normalized_stats_walk_identity_scaling():
    # a delta:1 walk visits the fiber origin at every time
    cps = tuple(2 ** e for e in range(10, 17))
    visits = tuple(n + 1 for n in cps)
    series = bk.BirkhoffSeries(cps, visits, visits)
    assert series.sigma == tuple(2 * n + 1 for n in cps)
    scaling = ScalingSequence(lambda n: n, "identity")
    with warnings.catch_warnings():
        # a(n)=n is half the doubled normalization, so the review flag fires
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats([series], scaling, burn_in=2 ** 10)
    s = stats.series[0]
    # sigma = 2n+1 and a(n) = n: ratio 1 + 1/(2n), oscillation shrinks to ~0
    assert all(abs(r - 1.0) < 5e-4 for r in s.ratio_sym)
    assert s.oscillation < 5e-4


def test_normalized_stats_running_extrema_and_monotonicity(chacon):
    cps = tuple(2 ** e for e in range(4, 15))
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    ens = _ensemble(chacon, [spawn(3, i) for i in range(4)], cps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = bk.normalized_stats(ens[:2], scaling, burn_in=16)
        full = bk.normalized_stats(ens, scaling, burn_in=16)
    assert full.alpha_hat >= small.alpha_hat
    assert full.beta_hat >= small.beta_hat
    assert full.beta_lower_hat <= small.beta_lower_hat
    for s in full.series:
        # every checkpoint is past the burn-in
        assert (s.sup_sym, s.inf_sym) == (max(s.ratio_sym), min(s.ratio_sym))
        assert s.oscillation == s.sup_sym - s.inf_sym >= 0


def test_normalized_stats_horizon_monotonicity(chacon):
    cps_short = tuple(2 ** e for e in range(4, 10))
    cps_long = tuple(2 ** e for e in range(4, 14))
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    (short,) = _ensemble(chacon, [8], cps_short)
    (long,) = _ensemble(chacon, [8], cps_long)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s1 = bk.normalized_stats([short], scaling, burn_in=16)
        s2 = bk.normalized_stats([long], scaling, burn_in=16)
    assert s2.alpha_hat >= s1.alpha_hat
    assert s2.beta_hat >= s1.beta_hat
    assert s2.beta_lower_hat <= s1.beta_lower_hat


def test_sanity_flag_raised_for_synthetic_violation():
    # symmetric ratio pinned high while the one-sided one stays low
    series = bk.BirkhoffSeries((10, 20), (16, 31), (6, 11))
    scaling = ScalingSequence(lambda n: n, "identity")
    with pytest.warns(UserWarning):
        stats = bk.normalized_stats([series], scaling, burn_in=10)
    assert stats.flags


def test_normalized_stats_validation(chacon):
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    with pytest.raises(ConfigError, match="ensemble must be nonempty"):
        bk.normalized_stats([], scaling, burn_in=16)
    (series,) = _ensemble(chacon, [1], (4, 8))
    with pytest.raises(ConfigError, match="no checkpoints at or past burn-in 100"):
        bk.normalized_stats([series], scaling, burn_in=100)
    (other,) = _ensemble(chacon, [2], (4, 16))
    with pytest.raises(ConfigError, match="share their checkpoints"):
        bk.normalized_stats([series, other], scaling, burn_in=4)


def test_series_rows_columns(chacon):
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    (series,) = _ensemble(chacon, [1], (1, 13))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats([series], scaling, burn_in=1)
    rows = bk.series_rows(series, stats.series[0], stats.a_n)
    assert len(rows) == 2
    n, sp, sm, sg, a_n, ratio_sym, ratio_plus = rows[1]
    assert (n, a_n) == (13, 27)
    assert ratio_sym == sg / 54
    assert ratio_plus == sp / 27


def test_scaling_evaluated_once_per_checkpoint(chacon):
    base = rk.rank_one_scaling(rk.Tower(chacon))
    calls = []

    def counted(n):
        calls.append(n)
        return base(n)

    scaling = ScalingSequence(counted, "counted")
    cps = (0, 1, 13, 40, 1000)
    ensemble = _ensemble(chacon, range(3), cps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats(ensemble, scaling, burn_in=1)
    for series, s in zip(ensemble, stats.series):
        bk.series_rows(series, s, stats.a_n)
    # once per checkpoint for the whole ensemble
    assert calls == [1, 13, 40, 1000]


def test_checkpoint_past_burn_in_below_domain():
    # a_u of delta:5 starts at n = 5: a checkpoint below that but past the
    # burn-in is an error, one below the burn-in gets empty cells
    scaling = rn.renewal_sequence(cli.parse_distribution("delta:5"), 100).as_scaling()
    visits = (2, 3, 4, 6, 11)
    series = bk.BirkhoffSeries((1, 2, 3, 5, 10), visits, visits)
    with pytest.raises(ConfigError, match="checkpoint 1 .* domain_min 5"):
        bk.normalized_stats([series], scaling, burn_in=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats([series], scaling, burn_in=5)
    s = stats.series[0]
    assert stats.a_n[:3] == (None, None, None) and None not in stats.a_n[3:]
    assert all(math.isfinite(r) for r in (s.sup_plus, s.sup_sym, s.inf_sym))
    assert bk.series_rows(series, s, stats.a_n)[0] == (1, 2, 2, 3, "", "", "")


def test_series_rows_checkpoint_zero(chacon):
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    (series,) = _ensemble(chacon, [5], (0, 13))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats([series], scaling, burn_in=13)
    s = stats.series[0]
    assert stats.a_n == (None, 27)
    assert math.isnan(s.ratio_sym[0]) and math.isnan(s.ratio_plus[0])
    rows = bk.series_rows(series, s, stats.a_n)
    assert rows[0] == (0, 1, 1, 1, "", "", "")
    assert rows[1] == (13, series.s_plus[1], series.s_minus[1], series.sigma[1],
                       27, series.sigma[1] / 54, series.s_plus[1] / 27)
