"""Occupation counts, conventions, and normalized-ratio statistics."""

import math
import warnings

import numpy as np
import pytest

from ergosum import birkhoff as bk
from ergosum import cli
from ergosum import rankone as rk
from ergosum import renewal as rn
from ergosum.errors import ConfigError, InvariantViolationError
from ergosum.regvar import ScalingSequence
from ergosum.streams import spawn

IDENTITY = ScalingSequence(lambda n: n, "identity")


@pytest.fixture(scope="module")
def odometer():
    return rk.load_preset("odometer")


@pytest.fixture(scope="module")
def chacon():
    return rk.load_preset("chacon")


def _ensemble(data, seeds, cps):
    """Counts of the seeds' names on one tower, as a rank-one run counts them."""
    tower = rk.Tower(data)
    return rk.ensemble_window_counts([rk.NameSampler(tower, s) for s in seeds], cps)


def _counts(s_plus, s_minus, dtype=np.int64):
    """The counts array of one seed with these one-sided counts per checkpoint."""
    return np.array([[(sm, sp)] for sp, sm in zip(s_plus, s_minus)], dtype=dtype)


def _stats(counts, cps, scaling=IDENTITY, burn_in=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bk.normalized_stats(counts, cps, scaling, burn_in)


# -- counts ----------------------------------------------------------------------


def test_series_from_name_odometer(odometer):
    counts = _ensemble(odometer, range(3), (1, 2, 4))
    assert _stats(counts, (1, 2, 4)).sigma.T.tolist() == [[3, 5, 9]] * 3
    assert counts[..., 1].T.tolist() == [[2, 3, 5]] * 3
    assert counts[..., 0].T.tolist() == [[2, 3, 5]] * 3


def test_series_checkpoint_zero(chacon):
    counts = _ensemble(chacon, range(3, 6), (0, 3))
    assert counts[0].tolist() == [[1, 1]] * 3
    assert _stats(counts, (0, 3), burn_in=3).sigma[0].tolist() == [1] * 3


def test_series_chacon_bracket(chacon):
    counts = _ensemble(chacon, range(5), (13,))
    assert all(9 <= sg <= 27 for sg in _stats(counts, (13,)).sigma[0].tolist())


def test_series_consistency_identity(chacon):
    cps = (1, 2, 4, 8, 16, 64, 256, 1024)
    counts = _ensemble(chacon, range(4), cps)
    sigma = _stats(counts, cps).sigma
    for i in range(4):
        s_plus, s_minus = counts[:, i, 1].tolist(), counts[:, i, 0].tolist()
        for n, sp, sm, sg in zip(cps, s_plus, s_minus, sigma[:, i].tolist()):
            assert sg == sp + sm - 1
            assert sg <= 2 * n + 1
        assert all(b >= a for a, b in zip(sigma[:, i], sigma[1:, i]))
        assert all(b >= a for a, b in zip(s_plus, s_plus[1:]))


def test_series_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        bk.normalized_stats(_counts((1, 1), (1, 1)), (2, 1), IDENTITY, 1)
    with pytest.raises(ConfigError, match="1 count rows for 2 checkpoints"):
        bk.normalized_stats(_counts((1,), (1,)), (1, 2), IDENTITY, 1)
    with pytest.raises(InvariantViolationError,
                       match="s_minus of seed 0 decreases after checkpoint 1"):
        bk.normalized_stats(_counts((2, 2), (3, 2)), (1, 2), IDENTITY, 1)
    with pytest.raises(InvariantViolationError, match="sigma = 4 exceeds window size 3 at 1"):
        bk.normalized_stats(_counts((3,), (2,)), (1,), IDENTITY, 1)
    # sigma = 2n + 2 at n = 2^62: s_plus + s_minus passes int64; 2n + 1 holds
    n = 2 ** 62
    with pytest.raises(InvariantViolationError, match=f"exceeds window size {2 * n + 1}"):
        bk.normalized_stats(_counts((n + 2,), (n + 1,)), (n,), IDENTITY, 1)
    stats = _stats(_counts((n + 1,), (n + 1,)), (n,))
    assert stats.sigma.tolist() == [[2 * n + 1]]
    assert stats.ratio_sym.tolist() == [[(2 * n + 1) / (2 * n)]]


# -- normalized statistics --------------------------------------------------------


def test_normalized_stats_odometer_band(odometer):
    cps = tuple(2 ** e for e in range(4, 14))
    scaling = rk.rank_one_scaling(rk.Tower(odometer))
    stats = _stats(_ensemble(odometer, range(3), cps), cps, scaling, burn_in=16)
    assert all(0.5 <= r < 1.1 for r in stats.ratio_sym.ravel())
    # all-base name at dyadic checkpoints: a(n) = 2n exactly
    assert stats.beta_hat == pytest.approx((2 * 16 + 1) / (4 * 16))


def test_normalized_stats_walk_identity_scaling():
    # a delta:1 walk visits the fiber origin at every time
    cps = tuple(2 ** e for e in range(10, 17))
    visits = tuple(n + 1 for n in cps)
    # a(n)=n is half the doubled normalization, so the review flag fires
    stats = _stats(_counts(visits, visits), cps, burn_in=2 ** 10)
    assert stats.sigma[:, 0].tolist() == [2 * n + 1 for n in cps]
    # sigma = 2n+1 and a(n) = n: ratio 1 + 1/(2n), oscillation shrinks to ~0
    assert all(abs(r - 1.0) < 5e-4 for r in stats.ratio_sym[:, 0])
    assert stats.sup_sym[0] - stats.inf_sym[0] < 5e-4


def test_normalized_stats_running_extrema_and_monotonicity(chacon):
    cps = tuple(2 ** e for e in range(4, 15))
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    counts = _ensemble(chacon, [spawn(3, i) for i in range(4)], cps)
    small = _stats(counts[:, :2], cps, scaling, burn_in=16)
    full = _stats(counts, cps, scaling, burn_in=16)
    assert full.alpha_hat >= small.alpha_hat
    assert full.beta_hat >= small.beta_hat
    assert full.beta_lower_hat <= small.beta_lower_hat
    for i in range(4):
        # every checkpoint is past the burn-in
        ratio_sym = full.ratio_sym[:, i].tolist()
        assert (full.sup_sym[i], full.inf_sym[i]) == (max(ratio_sym), min(ratio_sym))
        assert full.sup_sym[i] - full.inf_sym[i] >= 0


def test_normalized_stats_horizon_monotonicity(chacon):
    cps_short = tuple(2 ** e for e in range(4, 10))
    cps_long = tuple(2 ** e for e in range(4, 14))
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    s1 = _stats(_ensemble(chacon, [8], cps_short), cps_short, scaling, burn_in=16)
    s2 = _stats(_ensemble(chacon, [8], cps_long), cps_long, scaling, burn_in=16)
    assert s2.alpha_hat >= s1.alpha_hat
    assert s2.beta_hat >= s1.beta_hat
    assert s2.beta_lower_hat <= s1.beta_lower_hat


def test_sanity_flag_raised_for_synthetic_violation():
    # symmetric ratio pinned high while the one-sided one stays low
    with pytest.warns(UserWarning):
        stats = bk.normalized_stats(_counts((16, 31), (6, 11)), (10, 20), IDENTITY,
                                    burn_in=10)
    assert stats.flags


def test_normalized_stats_validation(chacon):
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    with pytest.raises(ConfigError, match="ensemble must be nonempty"):
        bk.normalized_stats(np.zeros((2, 0, 2), np.int64), (4, 8), scaling, burn_in=16)
    counts = _ensemble(chacon, [1], (4, 8))
    with pytest.raises(ConfigError, match="no checkpoints at or past burn-in 100"):
        bk.normalized_stats(counts, (4, 8), scaling, burn_in=100)
    with pytest.raises(ConfigError, match="2 count rows for 3 checkpoints"):
        bk.normalized_stats(counts, (4, 8, 16), scaling, burn_in=4)


def test_series_rows_columns(chacon):
    scaling = rk.rank_one_scaling(rk.Tower(chacon))
    counts = _ensemble(chacon, [1], (1, 13))
    stats = _stats(counts, (1, 13), scaling)
    assert stats.ratio_sym.shape == stats.ratio_plus.shape == (2, 1)
    (sm, sp), = counts[1].tolist()
    assert stats.a_n[1] == 27
    assert stats.ratio_sym[1, 0] == (sp + sm - 1) / 54
    assert stats.ratio_plus[1, 0] == sp / 27


def test_ratios_correctly_rounded_past_2_53():
    # each ratio is Python's int / int, rounded once; float64 operands
    # would round sigma and s_plus first
    rng = np.random.default_rng(53)
    scaling = ScalingSequence(lambda n: n // 3 + 7, "third")
    for base, dtype in ((2 ** 53, np.int64), (2 ** 65, object)):
        cps = tuple(base + 10 ** 6 * k for k in range(1, 5))
        # (s_minus, s_plus) = (n - d, n + 1 - d'), d and d' below 1000 and
        # nonincreasing along the checkpoints
        short = np.sort(rng.integers(0, 1000, size=(4, 8, 2)), axis=0)[::-1].tolist()
        cells = [[(n - dm, n + 1 - dp) for dm, dp in row] for n, row in zip(cps, short)]
        stats = _stats(np.array(cells, dtype=dtype), cps, scaling)
        for j, (n, row) in enumerate(zip(cps, cells)):
            a = n // 3 + 7
            for i, (sm, sp) in enumerate(row):
                assert stats.sigma[j, i] == sm + sp - 1
                assert stats.ratio_sym[j, i] == (sm + sp - 1) / (2 * a)
                assert stats.ratio_plus[j, i] == sp / a


def test_scaling_evaluated_once_per_checkpoint(chacon):
    base = rk.rank_one_scaling(rk.Tower(chacon))
    calls = []

    def counted(n):
        calls.append(n)
        return base(n)

    scaling = ScalingSequence(counted, "counted")
    cps = (0, 1, 13, 40, 1000)
    _stats(_ensemble(chacon, range(3), cps), cps, scaling)
    # once per checkpoint for the whole ensemble
    assert calls == [1, 13, 40, 1000]


def test_checkpoint_past_burn_in_below_domain():
    # a_u of delta:5 starts at n = 5: a checkpoint below that but past the
    # burn-in is an error, one below the burn-in gets no ratio
    scaling = rn.renewal_sequence(cli.parse_distribution("delta:5"), 100).as_scaling()
    visits = (2, 3, 4, 6, 11)
    counts, cps = _counts(visits, visits), (1, 2, 3, 5, 10)
    with pytest.raises(ConfigError, match="checkpoint 1 .* domain_min 5"):
        bk.normalized_stats(counts, cps, scaling, burn_in=1)
    stats = _stats(counts, cps, scaling, burn_in=5)
    assert stats.a_n[:3] == (None, None, None) and None not in stats.a_n[3:]
    assert all(math.isfinite(r) for r in (stats.sup_plus[0], stats.sup_sym[0],
                                          stats.inf_sym[0]))
    assert stats.sigma[0, 0] == 3
    assert np.isnan(stats.ratio_sym[:3]).all() and np.isnan(stats.ratio_plus[:3]).all()
    assert not np.isnan(stats.ratio_sym[3:]).any()


def test_series_rows_checkpoint_zero(chacon, tmp_path):
    cfg = cli.ExperimentConfig(kind="rank-one", seed=5, out=str(tmp_path),
                               params={"preset": "chacon", "checkpoints": "0,13",
                                       "burn_in": 13})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (_, _, columns), _ = cli.run_rank_one(cfg)
    rows = list(zip(*columns))
    assert rows[0] == (0, 1, 1, 1, "", "", "")
    (sm, sp), = _ensemble(chacon, [spawn(5, 0)], (0, 13))[1].tolist()
    sigma = sp + sm - 1
    assert rows[1] == (13, sp, sm, sigma, 27, sigma / 54, sp / 27)
