"""Translation orbit counting and random-walk skew-product counting."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ergosum import lattice as lt
from ergosum import renewal as rn
from ergosum.errors import ConfigError, PrecisionWarning, ResourceLimitError
from ergosum.streams import spawn

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _action(alpha, beta=1.0, x=0.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        return lt.TranslationAction(alpha=alpha, beta=beta, x=x)


def _translate_count_oracle(alpha, beta, x, n_box):
    """O(N) strip count in exact rationals on the binary values of the inputs."""
    a, b, x0 = Fraction(alpha), Fraction(beta), Fraction(x)
    count = 0
    for k in range(-n_box, n_box + 1):
        t = x0 + k * a
        if b > 0:
            lo = math.ceil(-t / b)
            hi = math.ceil((1 - t) / b) - 1
        else:
            lo = math.floor((1 - t) / b) + 1
            hi = math.floor(-t / b)
        lo = max(lo, -n_box)
        hi = min(hi, n_box)
        if hi >= lo:
            count += hi - lo + 1
    return count


# -- translation action ---------------------------------------------------------


def test_rational_ratio_detection():
    with pytest.warns(PrecisionWarning) as record:
        lt.TranslationAction(alpha=1.5, beta=1.0)
    assert [w.filename for w in record] == [__file__]  # names the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lt.TranslationAction(alpha=PHI)
        lt.TranslationAction(alpha=math.sqrt(2.0), beta=2.0)
        lt.TranslationAction(alpha=1e308, beta=1e-308)  # the ratio overflows


def test_translate_examples():
    act = _action(1.5, x=0.0)
    assert lt.translate_counts(act, 1) == (2, 2 / 3)
    assert lt.translate_counts(act, 0).count == 1
    assert lt.translate_counts(_action(PHI, x=0.3), 0).count == 1


def test_translate_brute_force_agreement():
    rng = np.random.default_rng(20)
    for _ in range(20):
        alpha = rng.uniform(-3, 3)
        x = rng.uniform(0, 1)
        n_box = int(rng.integers(1, 201))
        act = _action(alpha, x=x)
        fast = lt.translate_counts(act, n_box).count
        ks = np.arange(-n_box, n_box + 1, dtype=np.float64)
        vals = (x + ks[:, None] * alpha) + ks[None, :] * 1.0
        assert fast == int(np.count_nonzero((vals >= 0.0) & (vals < 1.0)))


def test_translate_per_k_at_most_one():
    # beta = 1, |alpha| > 1: at most one admissible l per k
    for alpha, x in ((PHI, 0.3), (math.sqrt(2), 0.0), (-2.2, 0.7)):
        act = _action(alpha, x=x)
        for n_box in (0, 1, 10, 500):
            assert lt.translate_counts(act, n_box).count <= 2 * n_box + 1


def test_translate_golden_density():
    act = _action(PHI, x=0.3)
    for n_box, tol in ((10 ** 5, 0.01), (2 ** 40, 1e-9), (2 ** 62, 1e-9)):
        res = lt.translate_counts(act, n_box)
        assert abs(res.ratio - 1 / PHI) <= tol, n_box


def test_translate_exact_path_agrees():
    rng = np.random.default_rng(12)
    # dyadic and short decimal parameters put orbit points on the window
    # edges, where only exact arithmetic decides
    alphas = (1.5, -0.5, 2.0, 0.1, -2.2, 0.75)
    betas = (1.0, -1.0, 0.5, -0.25, 0.3, -0.3)
    for case in range(1200):
        alpha = alphas[case % 6] if case % 3 == 0 else rng.uniform(-4, 4)
        beta = betas[case % 6] if case % 4 == 0 else \
            float(rng.choice([-1.0, 1.0])) * rng.uniform(0.05, 3.0)
        x = rng.choice([0.0, 0.5, 0.1]) if case % 5 == 0 else rng.uniform(-2, 2)
        n_box = 0 if case % 10 == 0 else int(rng.integers(1, 40))
        count = lt.translate_counts(_action(alpha, beta, x), n_box).count
        assert count == _translate_count_oracle(alpha, beta, x, n_box), \
            (alpha, beta, x, n_box)


def test_translate_validation():
    with pytest.raises(ConfigError):
        lt.TranslationAction(alpha=0.0)
    act = _action(PHI)
    with pytest.raises(ConfigError, match="box radius must be >= 0"):
        lt.translate_counts(act, -1)


# -- walk samples -----------------------------------------------------------------


def _s(walk, k):
    """s_k, read from the kept partial sums."""
    if k > 0:
        return int(walk.s_forward[k - 1])
    return -int(walk.s_backward_mag[-k - 1]) if k < 0 else 0


def _omega(walk, j):
    """omega_j, read from the step arrays."""
    return int(walk.omega_forward[j] if j >= 0 else walk.omega_backward[-j - 1])


def _replay(f, rng, J):
    """An independent replay of the trial's two streams: the partial sums
    of J draws of the trial stream, and of J draws of the stream jumped
    from it."""
    backward = np.random.Generator(rng.bit_generator.jumped())
    return np.cumsum(f.sample(rng, J)), np.cumsum(f.sample(backward, J))


def _check_kept(walk, replay):
    """Each side keeps the replayed sums up to and including the first one
    past J, and at most J of them."""
    for kept, full in zip((walk.s_forward, walk.s_backward_mag), replay):
        assert np.all(kept[:-1] <= walk.J)
        assert kept[-1] > walk.J or len(kept) == walk.J
        assert np.array_equal(kept, full[:len(kept)])


def test_walk_sample_delta_identity():
    d1 = rn.FiniteSupport.delta(1)
    walk = lt.walk_sample(d1, 0, J=5)
    assert [_s(walk, k) for k in range(-5, 6)] == list(range(-5, 6))


def test_walk_sample_three_case_definition():
    g = rn.Geometric(0.5)
    walk = lt.walk_sample(g, 4, J=50)
    _check_kept(walk, _replay(g, np.random.default_rng(4), 50))
    for k in range(1, len(walk.s_forward) + 1):
        assert _s(walk, k) == sum(_omega(walk, j) for j in range(k))
    for k in range(1, len(walk.s_backward_mag) + 1):
        assert _s(walk, -k) == -sum(_omega(walk, -j) for j in range(1, k + 1))


def test_walk_shift_relation():
    # s_{-k}(omega) = -s_k(shift^{-k} omega), shift moving index j to j - k
    g = rn.Geometric(0.5)
    walk = lt.walk_sample(g, 9, J=40)
    _check_kept(walk, _replay(g, np.random.default_rng(9), 40))
    for k in range(1, len(walk.s_backward_mag) + 1):
        shifted = sum(_omega(walk, j - k) for j in range(k))
        assert _s(walk, -k) == -shifted


@pytest.mark.parametrize("f", [
    rn.Geometric(0.5), rn.PowerTail(0.75), rn.FiniteSupport(((2, 0.3), (7, 0.7))),
], ids=lambda f: f.label)
def test_walk_sample_replays_its_stream(f):
    J = 500
    for i in range(4):
        walk = lt.walk_sample(f, spawn(17, i), J=J)
        fwd, bwd = _replay(f, spawn(17, i), J)
        _check_kept(walk, (fwd, bwd))
        for steps, sums in ((walk.omega_forward, fwd), (walk.omega_backward, bwd)):
            assert np.array_equal(steps, np.diff(sums, prepend=0)[:len(steps)])


def test_walk_monotone_and_lln():
    g = rn.Geometric(0.5)
    walk = lt.walk_sample(g, 11, J=10 ** 6)
    _check_kept(walk, _replay(g, np.random.default_rng(11), 10 ** 6))
    assert np.all(np.diff(walk.s_forward) >= 1)
    assert np.all(np.diff(walk.s_backward_mag) >= 1)
    # mean step 2: the first sum past J comes after about J/2 steps
    assert abs(len(walk.s_forward) / 10 ** 6 - 0.5) <= 0.025


@pytest.mark.parametrize("f", [
    rn.Geometric(0.5), rn.Geometric(0.1), rn.PowerTail(0.75),
    rn.FiniteSupport(((2, 0.3), (7, 0.7))),
], ids=lambda f: f.label)
def test_walk_is_one_orbit_at_every_horizon(f):
    # neither side's draws depend on J, so a shorter walk keeps a prefix of
    # the sums of a longer one, and both count the same at its horizon
    for i in range(8):
        short = lt.walk_sample(f, spawn(1, i), J=1000)
        long = lt.walk_sample(f, spawn(1, i), J=10 ** 5)
        for kept, more in ((short.s_forward, long.s_forward),
                           (short.s_backward_mag, long.s_backward_mag)):
            assert np.array_equal(kept, more[:len(kept)]), i
        assert lt.walk_counts(short, 1000) == lt.walk_counts(long, 1000), i


def test_walk_sample_validation():
    with pytest.raises(ConfigError, match="J must be >= 1"):
        lt.walk_sample(rn.Geometric(0.5), 0, J=0)


def test_walk_sample_overflow_guard():
    class HugeSteps(rn.Geometric):
        # every step is 2**60: three sum below INT64_SUM_LIMIT, four above
        def sample(self, rng, size):
            return np.full(size, 2 ** 60, dtype=np.int64)

    f = HugeSteps(0.5)
    # the third sum is the first past J and is kept; the draws after it
    # would overflow, but no sum reads them
    walk = lt.walk_sample(f, 0, J=3 * 2 ** 60 - 1)
    sums = [2 ** 60, 2 * 2 ** 60, 3 * 2 ** 60]
    assert walk.s_forward.tolist() == walk.s_backward_mag.tolist() == sums
    # here the first sum past J is the fourth, which overflows
    with pytest.raises(ResourceLimitError, match="walk partial sums would overflow int64"):
        lt.walk_sample(f, 0, J=3 * 2 ** 60)


# -- walk counts --------------------------------------------------------------------


def test_walk_counts_delta_exact():
    d1 = rn.FiniteSupport.delta(1)
    walk = lt.walk_sample(d1, 0, J=5)
    a_u = float(rn.renewal_sequence(d1, 5).a_u[5])
    count = lt.walk_counts(walk, 5)
    assert count == 11
    assert a_u == 5.0
    assert count / a_u == pytest.approx(2.2)


def test_walk_counts_monotone_in_horizon():
    g = rn.Geometric(0.5)
    walk = lt.walk_sample(g, 2, J=4000)
    counts = [lt.walk_counts(walk, n)
              for n in (10, 50, 100, 500, 2000)]
    assert counts == sorted(counts)


def test_walk_counts_equal_direct_scan():
    # interarrival counting equals the direct box scan, exactly
    g = rn.Geometric(0.5)
    for seed in range(8):
        walk = lt.walk_sample(g, spawn(13, seed), J=300)
        fwd, bwd = _replay(g, spawn(13, seed), 300)
        _check_kept(walk, (fwd, bwd))
        count = lt.walk_counts(walk, 300)
        s_vals = np.concatenate([-bwd[::-1], [0], fwd])  # s_k, k in [-300, 300]
        assert count == int(np.count_nonzero(np.abs(s_vals) <= 300))


def test_walk_counts_coverage_error():
    g = rn.Geometric(0.9)
    walk = lt.walk_sample(g, 0, J=10)
    with pytest.raises(ResourceLimitError, match="resample with J >= 10000"):
        lt.walk_counts(walk, 10 ** 4)


def test_walk_counts_horizon_past_J():
    # the replayed sums reach past N, but the kept ones stop at the first
    # sum past J, so J bounds the horizon
    g = rn.Geometric(0.5)
    walk = lt.walk_sample(g, 0, J=100)
    fwd, bwd = _replay(g, np.random.default_rng(0), 100)
    reach = int(min(fwd[-1], bwd[-1]))
    for n_box in (101, reach):
        assert 100 < n_box <= reach
        with pytest.raises(ResourceLimitError, match=f"resample with J >= {n_box}"):
            lt.walk_counts(walk, n_box)


def test_walk_counts_mean_density():
    g = rn.Geometric(0.5)
    n = 10 ** 5
    a_u = float(rn.renewal_sequence(g, n).a_u[n])
    counts, ratios = [], []
    for seed in range(12):
        walk = lt.walk_sample(g, spawn(2, seed), J=n)
        count = lt.walk_counts(walk, n)
        counts.append(count)
        ratios.append(count / a_u)
    assert abs(np.mean(counts) / (2 * n + 1) - 0.5) <= 0.025
    assert 1.8 <= np.mean(ratios) <= 2.2
