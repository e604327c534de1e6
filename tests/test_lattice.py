"""Translation orbit counting and random-walk skew-product counting."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    """Each side keeps exactly the replayed sums at or below J; the replay
    has J sums, so at most J of them."""
    for kept, full in zip((walk.s_forward, walk.s_backward_mag), replay):
        assert np.array_equal(kept, full[:int(np.count_nonzero(full <= walk.J))])


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


# tracemalloc peak, in bytes, of one geometric:0.5 trial at J = 2^18 when
# each side kept the running sums of its steps
_WALK_TRIAL_PEAK = 3_668_579


def test_walk_memory_peak():
    # each side keeps its steps, and a count forms the running sums of one
    # block only, so a trial stays within 10% of keeping every sum
    g = rn.Geometric(0.5)
    J = 2 ** 18

    def peak():
        tracemalloc.start()
        try:
            lt.walk_counts(lt.walk_sample(g, spawn(1, 0), J=J), J)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # the first run also holds one-time allocations of NumPy
    assert peak() <= 1.1 * _WALK_TRIAL_PEAK


def test_walk_sample_validation():
    with pytest.raises(ConfigError, match="J must be >= 1"):
        lt.walk_sample(rn.Geometric(0.5), 0, J=0)


def test_walk_sample_sums_exact_near_int64():
    class HugeSteps(rn.Geometric):
        # every step is 2**60, so eight steps sum to 2**63
        def sample(self, rng, size):
            return np.full(size, 2 ** 60, dtype=np.int64)

    f = HugeSteps(0.5)
    for J, kept in ((3 * 2 ** 60 - 1, 2), (3 * 2 ** 60, 3), (2 ** 62, 4),
                    (2 ** 63 - 2, 7)):
        walk = lt.walk_sample(f, 0, J=J)
        sums = [k * 2 ** 60 for k in range(1, kept + 1)]
        assert walk.s_forward.tolist() == walk.s_backward_mag.tolist() == sums, J
        assert lt.walk_counts(walk, J) == 2 * kept + 1
    # J + 1 must fit int64
    with pytest.raises(ConfigError, match=r"J must be below 2\*\*63 - 1"):
        lt.walk_sample(f, 0, J=2 ** 63 - 1)


def _replay_exact(f, seed, size):
    """Python-int partial sums of the first ``size`` draws of the trial's
    stream and of the stream jumped from it."""
    rng = spawn(*seed)
    backward = np.random.Generator(rng.bit_generator.jumped())
    return [list(accumulate(int(v) for v in f.sample(side, size)))
            for side in (rng, backward)]


def test_walk_sample_far_atom_exact():
    # {1: 1/2, 2^62: 1/2}: a side's sums pass J at its first far step, and
    # the far step is never kept; the sums the draws past it reach need not
    # fit int64, and no count reads them
    f = rn.FiniteSupport(((1, 0.5), (2 ** 62, 0.5)))
    J = 1000
    for i in range(8):
        walk = lt.walk_sample(f, spawn(1, i), J=J)
        replay = _replay_exact(f, (1, i), 64)
        for steps, sums in zip((walk.omega_forward, walk.omega_backward), replay):
            assert sums[-1] > J, i  # the replay reaches past J
            assert list(accumulate(steps.tolist())) == [s for s in sums if s <= J], i
        count = 1 + sum(s <= J for sums in replay for s in sums)
        assert lt.walk_counts(walk, J) == count, i


# -- the exact law of a walk count --------------------------------------------------


def _side_count_law(f, N):
    """P(K_N = k) for one side's count K_N = #{k >= 1 : s_k <= N}.

    P(K_N >= k) = P(s_k <= N) is the mass at most N of the k-th
    convolution power of the masses f_m = F(m) - F(m + 1) cut at N
    (Feller, vol. 1, ch. XIII).  The powers are FFT products, with the
    rounding below 0 and below m = k, where s_k >= k, set to 0; the last
    one kept is the last whose mass at most N is 1e-18 or more, and at most
    the N-th, as K_N <= N.
    """
    tails = np.asarray(f.tail(np.arange(1, N + 2)), dtype=np.float64)
    masses = np.zeros(N + 1)
    masses[1:] = tails[:-1] - tails[1:]
    size = 1 << (2 * N + 1).bit_length()
    step = np.fft.rfft(masses, size)
    power = np.zeros(N + 1)
    power[0] = 1.0
    at_least = [1.0]
    for k in range(1, N + 1):
        power = np.fft.irfft(np.fft.rfft(power, size) * step, size)[:N + 1]
        power[:k] = 0.0
        np.maximum(power, 0.0, out=power)
        mass = float(power.sum())
        if mass < 1e-18:
            break
        at_least.append(mass)
    return -np.diff(at_least + [0.0])


def walk_count_law(f, N):
    """The law of the walk count 1 + K+ + K- at horizon N, as an array
    indexed by the count; the sides are independent copies of K_N."""
    side = _side_count_law(f, N)
    law = np.zeros(2 * len(side))
    law[1:] = np.convolve(side, side)
    return law


def test_walk_count_law_is_binomial_for_geometric():
    # geometric renewal indicators are i.i.d. Bernoulli(p), so K_N is
    # Binomial(N, p)
    for p, N in ((0.5, 2 ** 10), (0.1, 300)):
        side = _side_count_law(rn.Geometric(p), N)
        k = np.arange(len(side))
        log_pmf = np.array([math.lgamma(N + 1) - math.lgamma(j + 1) - math.lgamma(N - j + 1)
                            for j in k]) + k * math.log(p) + (N - k) * math.log1p(-p)
        assert np.max(np.abs(side - np.exp(log_pmf))) < 1e-13, p


def _exact_walk_count_law(f, N):
    """walk_count_law in exact rationals: the convolution powers of the same
    float masses cut at N, each product and sum exact."""
    tails = np.asarray(f.tail(np.arange(1, N + 2)), dtype=np.float64)
    masses = [(m, Fraction(float(x)))
              for m, x in enumerate(tails[:-1] - tails[1:], start=1) if x]
    power = [Fraction(1)] + [Fraction(0)] * N
    at_least = [Fraction(1)]
    for _ in range(N):
        step = [Fraction(0)] * (N + 1)
        for i, p in enumerate(power):
            for m, x in masses if p else ():
                if i + m > N:
                    break
                step[i + m] += p * x
        power = step
        at_least.append(sum(power))
    side = [a - b for a, b in zip(at_least, at_least[1:] + [Fraction(0)])]
    law = [Fraction(0)] * (2 * len(side))
    for i, a in enumerate(side):
        for j, b in enumerate(side):
            law[1 + i + j] += a * b
    return law


@pytest.mark.parametrize("f", [rn.Geometric(0.5), rn.FiniteSupport(((1, 0.9), (2, 0.1)))],
                         ids=lambda f: f.label)
def test_walk_count_law_matches_exact_convolutions(f):
    # measured up to 1.1e-16 (geometric:0.5) and 4.2e-16 at N = 64; the
    # float law leaves out the counts of exact probability below 1e-18
    for N in (1, 2, 5, 17, 64):
        exact = _exact_walk_count_law(f, N)
        assert sum(exact) == 1
        law = walk_count_law(f, N)
        assert len(law) <= len(exact)
        expected = np.array([float(x) for x in exact])
        assert np.max(np.abs(expected[len(law):]), initial=0.0) < 1e-18, N
        assert np.max(np.abs(law - expected[:len(law)])) <= 1e-15, N


@pytest.mark.parametrize("f,N,seed", [
    (rn.Geometric(0.5), 2 ** 10, 401),
    (rn.PowerTail(0.75), 2 ** 12, 402),
    (rn.FiniteSupport(((1, 0.9), (2 ** 62, 0.1))), 2 ** 10, 403),
], ids=lambda v: v.label if isinstance(v, rn.LifetimeDistribution) else str(v))
def test_walk_counts_follow_the_exact_law(f, N, seed):
    # the Kolmogorov-Smirnov distance of 2,000 trials' counts from the
    # exact law stays under the 1% critical value 1.63 / sqrt(trials); a
    # sampler fault that keeps the mean still moves the law
    trials = 2000
    law = walk_count_law(f, N)
    assert abs(law.sum() - 1.0) < 1e-12
    mean = float(np.arange(len(law)) @ law)
    a_u = float(rn.renewal_sequence(f, N).a_u[N])
    assert mean == pytest.approx(1 + 2 * a_u, rel=1e-12)
    counts = [lt.walk_counts(lt.walk_sample(f, spawn(seed, i), J=N), N)
              for i in range(trials)]
    assert max(counts) < len(law)
    empirical = np.cumsum(np.bincount(counts, minlength=len(law))) / trials
    distance = float(np.max(np.abs(empirical - np.cumsum(law))))
    assert distance < 1.63 / math.sqrt(trials), (distance, np.mean(counts), mean)


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
    # interarrival counting equals the direct box scan, exactly; at J = 5000
    # each side keeps about 2,500 steps, over several blocks
    g = rn.Geometric(0.5)
    for J in (300, 5000):
        for seed in range(8):
            walk = lt.walk_sample(g, spawn(13, seed), J=J)
            fwd, bwd = _replay(g, spawn(13, seed), J)
            _check_kept(walk, (fwd, bwd))
            count = lt.walk_counts(walk, J)
            s_vals = np.concatenate([-bwd[::-1], [0], fwd])  # s_k, k in [-J, J]
            assert count == int(np.count_nonzero(np.abs(s_vals) <= J)), (J, seed)


# step counts around one and two full blocks, and several blocks
_BLOCK_LENGTHS = [0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 5000]


@settings(max_examples=60, deadline=None)
@given(length=st.one_of(st.sampled_from(_BLOCK_LENGTHS), st.integers(0, 5000)),
       seed=st.integers(0, 2 ** 32 - 1), low=st.integers(0, 1),
       high=st.sampled_from([1, 2, 3, 100, 2 ** 40]),
       start=st.integers(0, 2 ** 20), extra=st.integers(-2 ** 52, 2 ** 52))
@example(length=0, seed=0, low=1, high=3, start=0, extra=0)
@example(length=1, seed=0, low=1, high=3, start=5, extra=0)
@example(length=1023, seed=1, low=1, high=3, start=0, extra=0)
@example(length=1024, seed=2, low=1, high=1, start=0, extra=0)
@example(length=1025, seed=3, low=1, high=3, start=7, extra=0)
@example(length=2047, seed=4, low=1, high=3, start=0, extra=0)
@example(length=2048, seed=5, low=0, high=2, start=0, extra=0)
@example(length=2049, seed=6, low=1, high=100, start=3, extra=0)
@example(length=5000, seed=7, low=1, high=2 ** 40, start=2 ** 20, extra=0)
def test_count_sums_at_most_matches_cumsum(length, seed, low, high, start, extra):
    # the block count equals a search over every running sum: below the
    # first sum, at each block's last sum and one past it, past the total,
    # and at one arbitrary bound
    steps = np.random.default_rng(seed).integers(low, high, length, endpoint=True)
    sums = start + np.cumsum(steps)
    ends = sums[lt._BLOCK - 1::lt._BLOCK].tolist()
    first = int(sums[0]) if length else start
    total = int(sums[-1]) if length else start
    bounds = [start - 1, first - 1, *ends, *(e + 1 for e in ends), total, total + 1,
              start + extra]
    for bound in bounds:
        want = int(np.searchsorted(sums, bound, side="right"))
        assert lt._count_sums_at_most(steps, start, bound) == want, bound


def test_walk_counts_validation():
    walk = lt.walk_sample(rn.Geometric(0.5), 0, J=10)
    with pytest.raises(ConfigError, match="box radius must be >= 0"):
        lt.walk_counts(walk, -1)


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
