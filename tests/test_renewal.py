"""Lifetime distributions, renewal sequences, scalings, series, trimmed sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import renewal as rn
from ergosum.errors import ConfigError, SamplingHorizonError, ScalingHorizonError
from ergosum.regvar import invert_scaling

ALL_KINDS = [
    rn.Geometric(0.5),
    rn.Geometric(0.25),
    rn.Harmonic(),
    rn.PowerTail(0.5),
    rn.FiniteSupport.delta(1),
    rn.FiniteSupport([(1, 0.5), (2, 0.5)]),
    rn.FiniteSupport([(1, 0.3), (2, 0.3), (3, 0.4)]),
]


# -- distribution surface -----------------------------------------------------


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_tail_mass_consistency(f):
    ns = np.arange(1, 2000)
    tails = np.asarray(f.tail(ns), dtype=float)
    assert tails[0] == 1.0
    assert np.all(np.diff(tails) <= 0)
    masses = f.masses(1998)
    assert np.all(masses >= 0)
    np.testing.assert_allclose(tails[:-1] - tails[1:], masses[1:1999],
                               rtol=0, atol=0)


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_mass_sums_to_one(f):
    # truncated evaluation: add the tail beyond the horizon analytically
    n = 10 ** 6
    total = float(f.masses(n).sum()) + float(f.tail(n + 1))
    assert abs(total - 1.0) <= 1e-12


def test_spec_roundtrip():
    for f in ALL_KINDS:
        again = rn.LifetimeDistribution.from_spec(f.to_spec())
        assert again.to_spec() == f.to_spec()


def test_parse_shorthand():
    assert rn.LifetimeDistribution.parse("geometric:0.5").p == 0.5
    assert rn.LifetimeDistribution.parse("power:0.5").gamma == 0.5
    assert rn.LifetimeDistribution.parse("harmonic").kind == "harmonic"
    d = rn.LifetimeDistribution.parse("delta:3")
    assert d.points == (3,) and d.weights == (1.0,)
    with pytest.raises(ConfigError):
        rn.LifetimeDistribution.parse("zipf:2")


def test_finite_validation():
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(1, 0.5), (2, 0.4)])
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(0, 1.0)])
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(1, 0.5), (1, 0.5)])


@given(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
       st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_finite_tail_mass_random(points, raw_weights):
    weights = np.array(raw_weights[:len(points)])
    weights /= weights.sum()
    # renormalize exactly enough for the 1e-12 gate
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    f = rn.FiniteSupport(list(zip(points, weights)))
    ns = np.arange(1, max(points) + 3)
    tails = np.asarray(f.tail(ns), dtype=float)
    assert np.all(np.diff(tails) <= 1e-15)
    assert abs(f.truncated_mean(max(points) + 5) - f.mean) < 1e-12


@pytest.mark.parametrize("f,checks", [
    (rn.Geometric(0.5), {1: 1.0, 2: 0.5, 4: 0.125, 8: 2 ** -7, 16: 2 ** -15}),
    (rn.Harmonic(), {1: 1.0, 2: 0.5, 4: 0.25, 8: 0.125, 16: 1 / 16}),
    (rn.PowerTail(0.5), {1: 1.0, 4: 0.5, 16: 0.25}),
    (rn.FiniteSupport([(1, 0.5), (2, 0.5)]), {1: 1.0, 2: 0.5, 4: 0.0}),
], ids=lambda v: getattr(v, "label", ""))
def test_sampling_matches_tail(f, checks):
    rng = np.random.default_rng(2024)
    draws = f.sample(rng, 10 ** 6)
    assert draws.min() >= 1
    n_draws = len(draws)
    for n, tail in checks.items():
        emp = np.count_nonzero(draws >= n) / n_draws
        se = math.sqrt(max(tail * (1 - tail), 1e-12) / n_draws)
        assert abs(emp - tail) <= 4 * se + 1e-9, (n, emp, tail)


# -- renewal sequences ---------------------------------------------------------


def test_renewal_delta_one():
    seq = rn.renewal_sequence(rn.FiniteSupport.delta(1), 50)
    assert np.all(seq.u == 1.0)
    assert seq.a_u[50] == 50.0


def test_renewal_period_reduction_exact_zeros():
    # support {4, 6, 10} has period 2: every odd u_n is 0, not merely small
    f = rn.FiniteSupport([(4, 0.2), (6, 0.3), (10, 0.5)])
    n_max = 2 ** 15
    seq = rn.renewal_sequence(f, n_max)
    assert np.all(seq.u[1::2] == 0.0)
    direct = rn._renewal_direct(f.masses(n_max), n_max)
    assert np.max(np.abs(seq.u - direct)) <= 1e-14


def test_renewal_nearly_periodic_support():
    # period 1, but nearly 2: the hard case for a spectral inversion
    # (measured 4.5e-14)
    f = rn.FiniteSupport([(2, 0.999), (3, 0.001)])
    n_max = 2 ** 15
    seq = rn.renewal_sequence(f, n_max)
    direct = rn._renewal_direct(f.masses(n_max), n_max)
    assert np.max(np.abs(seq.u - direct)) <= 1e-13


def test_renewal_first_term_is_one():
    # tail(1) sums the weights to 1 - 1 ulp; u_0 = 1 regardless
    f = rn.FiniteSupport([(1, 0.1), (2, 0.2), (3, 0.7)])
    assert float(f.tail(1)) < 1.0
    for n_max in (0, 1, 50, 20000):
        assert rn.renewal_sequence(f, n_max).u[0] == 1.0


def test_renewal_geometric_exact():
    seq = rn.renewal_sequence(rn.Geometric(0.5), 10 ** 4)
    assert seq.u[0] == 1.0
    assert np.all(np.abs(seq.u[1:] - 0.5) <= 1e-12)
    assert seq.a_u[10 ** 4] == pytest.approx(5000.0, abs=1e-9)


def test_direct_recursion_geometric_exact_half():
    n = 4096
    u = rn._renewal_direct(rn.Geometric(0.5).masses(n), n)
    assert u[0] == 1.0
    assert np.all(u[1:] == 0.5)


def test_direct_recursion_rejects_short_mass():
    with pytest.raises(ValueError):
        rn._renewal_direct(np.zeros(3), 10)


def _strided_recursion(mass, n_max):
    # oracle: the same recursion, dotting with the strided view u[n-1::-1]
    u = np.empty(n_max + 1)
    u[0] = 1.0
    for n in range(1, n_max + 1):
        u[n] = np.dot(mass[1:n + 1], u[n - 1::-1])
    return u


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_direct_recursion_matches_strided_oracle(f):
    n_max = 3000
    mass = f.masses(n_max)
    assert np.array_equal(rn._renewal_direct(mass, n_max),
                          _strided_recursion(mass, n_max))


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True),
       st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_direct_recursion_matches_strided_oracle_random(points, raw_weights, n_max):
    weights = np.array(raw_weights[:len(points)])
    weights /= weights.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    mass = rn.FiniteSupport(list(zip(points, weights))).masses(n_max)
    assert np.array_equal(rn._renewal_direct(mass, n_max),
                          _strided_recursion(mass, n_max))


def test_renewal_half_half_prefix():
    seq = rn.renewal_sequence(rn.FiniteSupport([(1, 0.5), (2, 0.5)]), 30)
    np.testing.assert_allclose(seq.u[:5], [1.0, 0.5, 0.75, 0.625, 0.6875],
                               rtol=0, atol=1e-15)
    # u_n -> 1/mu = 2/3 with |u_n - 2/3| = (1/2)^n / 3: below 1e-6 from n=19
    assert np.all(np.abs(seq.u[19:] - 2 / 3) < 1e-6)


def test_renewal_positive_recurrence_burnins():
    # burn-ins frozen from the spectral decay of each fixture
    fixtures = [
        (rn.FiniteSupport.delta(1), 0),
        (rn.Geometric(0.5), 1),
        (rn.FiniteSupport([(1, 0.5), (2, 0.5)]), 19),
        (rn.FiniteSupport([(1, 0.3), (2, 0.3), (3, 0.4)]), 29),
    ]
    for f, burn_in in fixtures:
        seq = rn.renewal_sequence(f, 200)
        assert np.all(np.abs(seq.u[burn_in:] - 1 / f.mean) <= 1e-6), f.label


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_convolution_identity(f):
    n_max = 2000
    seq = rn.renewal_sequence(f, n_max)
    mass = f.masses(n_max)
    for n in range(1, n_max + 1):
        expected = float(np.dot(mass[1:n + 1], seq.u[n - 1::-1]))
        assert abs(seq.u[n] - expected) <= 1e-12


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_convolution_identity_random(raw):
    weights = np.array(raw)
    weights /= weights.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    f = rn.FiniteSupport(list(zip(range(1, len(raw) + 1), weights)))
    seq = rn.renewal_sequence(f, 300)
    mass = f.masses(300)
    for n in (1, 2, 3, 17, 150, 300):
        expected = float(np.dot(mass[1:n + 1], seq.u[n - 1::-1]))
        assert abs(seq.u[n] - expected) <= 1e-12


def test_renewal_sequence_matches_direct():
    # measured worst cases 1.4e-15 on u (harmonic) and 1.3e-11 on a_u
    n_max = 20000
    for f in ALL_KINDS:
        seq = rn.renewal_sequence(f, n_max)
        direct = rn._renewal_direct(f.masses(n_max), n_max)
        direct_a_u = np.cumsum(direct[1:], dtype=np.longdouble).astype(np.float64)
        assert np.max(np.abs(seq.u - direct)) <= 1e-14, f.label
        assert np.max(np.abs(seq.a_u[1:] - direct_a_u)) <= 1e-9, f.label


def test_fft_accuracy_geometric():
    # at most 4.4e-16 at each size; the mass-form inversion read 7.6e-12
    # at 2**18 and up to 1.1e-10 at 2**20 - 1
    for n_max in (2 ** 18 - 1, 2 ** 18, 2 ** 20 - 1):
        seq = rn.renewal_sequence(rn.Geometric(0.7), n_max)
        assert seq.u[0] == 1.0
        assert np.max(np.abs(seq.u[1:] - 0.7)) <= 1e-14, n_max


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_fft_accuracy_lattice(k):
    # nu = k a.s.: u is the indicator of kZ, without rounding, at every size
    lifetimes = [rn.FiniteSupport.delta(k)] + [rn.Geometric(1.0)] * (k == 1)
    for f in lifetimes:
        for n_max in (0, 1, 50, 20000, 32768, 70000):
            exact = (np.arange(n_max + 1) % k == 0).astype(np.float64)
            assert np.array_equal(rn.renewal_sequence(f, n_max).u, exact), (f.label, n_max)


# -- truncated-mean scaling -------------------------------------------------------


def test_scaling_delta_one():
    tm = rn.truncated_mean_scaling(rn.FiniteSupport.delta(1))
    for n in (1, 2, 7, 1000):
        assert tm.L(n) == 1.0
        assert tm.a(n) == n
    for y in (1, 2.5, 7.0, 99.01):
        assert tm.b(y) == math.ceil(y)


def test_scaling_harmonic_values():
    tm = rn.truncated_mean_scaling(rn.Harmonic())
    assert tm.L(1) == pytest.approx(1.0, abs=1e-12)
    assert tm.L(4) == pytest.approx(25 / 12, abs=1e-12)
    assert tm.b(10) == 44


def test_scaling_monotonicity():
    for f in ALL_KINDS:
        tm = rn.truncated_mean_scaling(f)
        lengths = [tm.L(n) for n in range(1, 300)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))
        assert all(l <= n for n, l in enumerate(lengths, start=1))
        ratios = [tm.a(n) for n in range(1, 300)]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("f", [rn.Harmonic(), rn.Geometric(0.5), rn.PowerTail(0.5)],
                         ids=lambda f: f.label)
def test_b_generalized_inverse_contract(f):
    tm = rn.truncated_mean_scaling(f)
    for y in list(range(2, 50)) + [97, 311, 1000]:
        b = tm.b(y)
        assert tm.a(b) >= y
        assert tm.a(b - 1) < y


def test_b_horizon_error():
    tm = rn.truncated_mean_scaling(rn.Harmonic(), horizon=10 ** 6)
    with pytest.raises(ScalingHorizonError):
        tm.b(10 ** 9)


def test_power_tail_truncated_mean_extension():
    # Euler-Maclaurin extension agrees with brute summation past the table
    p = rn.PowerTail(0.5)
    p._ensure_table()
    big = p._TABLE_SIZE + 12345
    brute = float(np.sum(np.arange(1, big + 1, dtype=np.float64) ** -0.5))
    assert p.truncated_mean(big) == pytest.approx(brute, rel=1e-12)


# -- diagnostic series --------------------------------------------------------------


def test_queen_geometric_values():
    qs = rn.queen_series(rn.Geometric(0.5), 10)
    assert qs.Q(2) == pytest.approx(1 + 1 / 9, abs=1e-12)
    assert qs.terms[0] == 1.0


def test_queen_delta_constant():
    qs = rn.queen_series(rn.FiniteSupport.delta(1), 50)
    assert np.all(qs.partial_sums == 1.0)


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_queen_universal_majorization(f):
    qs = rn.queen_series(f, 5000)
    ns = np.arange(1, 5001, dtype=np.float64)
    assert np.all(qs.terms <= 1.0 / ns ** 2)


def test_dyadic_delta_first_term_only():
    d1 = rn.FiniteSupport.delta(1)
    sc = rn.truncated_mean_scaling(d1).as_scaling()
    ds = rn.dyadic_tail_series(d1, sc, 1.0, 8)
    assert ds.terms[0] == 1.0
    assert np.all(ds.terms[1:] == 0.0)
    assert np.all(ds.partial_sums == 1.0)


def test_dyadic_geometric_frozen_values():
    g = rn.Geometric(0.5)
    ds = rn.dyadic_tail_series(g, rn.truncated_mean_scaling(g).as_scaling(), 1.0, 12)
    assert ds.b_values[:4] == (1, 4, 8, 16)
    assert ds.terms[0] == 1.0
    assert ds.terms[1] == pytest.approx(1 / 32, abs=1e-15)   # 2 * F(4)^2
    assert ds.terms[2] == pytest.approx(2 ** -12, abs=1e-18)  # 4 * F(8)^2
    # terms collapse monotonically and underflow to exact zero at n = 9
    assert np.all(np.diff(ds.terms[:9]) < 0)
    assert ds.terms[8] > 0.0
    assert np.all(ds.terms[9:] == 0.0)


def test_dyadic_power_tail_matches_scan_oracle():
    p = rn.PowerTail(0.5)
    tm = rn.truncated_mean_scaling(p)
    ds = rn.dyadic_tail_series(p, tm.as_scaling(), 1.0, 10)

    def b_scan(y):
        t = 1
        while t / p.truncated_mean(t) < y:
            t += 1
        return t

    for n in range(7):
        b = b_scan(2 ** n)
        assert ds.b_values[n] == b
        assert ds.terms[n] == pytest.approx(2 ** n * float(p.tail(b)) ** 2, rel=1e-15)
    # terms track 2^-n (1-gamma)^2 and the partial sums stay bounded
    for n in range(4, 11):
        assert ds.terms[n] == pytest.approx(2.0 ** -n / 4, rel=0.15)
    assert ds.partial_sums[-1] < 2.0


def test_dyadic_uses_supplied_scaling():
    # empirical a_u scaling gives the same b as n/L for delta:1
    d1 = rn.FiniteSupport.delta(1)
    seq = rn.renewal_sequence(d1, 1000)
    ds = rn.dyadic_tail_series(d1, seq.as_scaling(), 1.0, 9)
    assert ds.b_values == tuple(2 ** n for n in range(10))


def test_invert_scaling_contract():
    g = rn.Geometric(0.5)
    sc = rn.renewal_sequence(g, 4096).as_scaling()
    for y in (1.0, 2.0, 100.5, 2048.0):
        t = invert_scaling(sc, y)
        assert sc(t) >= y
        if t > sc.domain_min:
            assert sc(t - 1) < y
    with pytest.raises(ScalingHorizonError):
        invert_scaling(sc, 10 ** 6)


# -- interarrival sampling and trimmed sums --------------------------------------------


def test_interarrival_sample_fields():
    s = rn.InterarrivalSample.draw(rn.Geometric(0.5), 1000, 77)
    assert len(s.nu) == 1000
    assert np.all(np.diff(s.partial_sums) >= 1)
    assert np.all(s.running_max == np.maximum.accumulate(s.nu))
    assert s.total == int(s.nu.sum())
    assert s.maximum == int(s.nu.max())


def test_trimmed_delta_exact():
    res = rn.trimmed_sum_trials(rn.FiniteSupport.delta(1), 100, 5, seed=0)
    assert np.all(res.ratios == 0.99)
    assert res.b_n == 100
    assert res.mean == 0.99 and res.std == 0.0


def test_trimmed_geometric_matches_numeric_expectation():
    g = rn.Geometric(0.5)
    n = 10 ** 4
    res = rn.trimmed_sum_trials(g, n, 200, seed=3)
    ms = np.arange(1, 200)
    e_max = float(np.sum(1.0 - (1.0 - np.asarray(g.tail(ms))) ** n))
    target = (n * g.mean - e_max) / res.b_n
    assert abs(res.mean - target) <= 0.05


def test_trimmed_determinism_and_stream_isolation():
    g = rn.Geometric(0.5)
    a = rn.trimmed_sum_trials(g, 500, 8, seed=11)
    b = rn.trimmed_sum_trials(g, 500, 8, seed=11)
    np.testing.assert_array_equal(a.ratios, b.ratios)
    # first trials coincide regardless of the trial count
    c = rn.trimmed_sum_trials(g, 500, 3, seed=11)
    np.testing.assert_array_equal(a.ratios[:3], c.ratios)


def test_trimmed_validation_and_horizon():
    g = rn.Geometric(0.5)
    with pytest.raises(ValueError):
        rn.trimmed_sum_trials(g, 1, 5, seed=0)
    with pytest.raises(ValueError):
        rn.trimmed_sum_trials(g, 10, 0, seed=0)


def test_power_tail_overflow_guard():
    p = rn.PowerTail(0.5)

    class TinyUniform:
        def random(self, size):
            return np.full(size, 1.0 - 2.0 ** -40)  # tail draw 2^-40 -> nu = 2^80

    with pytest.raises(SamplingHorizonError):
        p.sample(TinyUniform(), 4)
