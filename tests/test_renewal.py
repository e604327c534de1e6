"""Lifetime distributions, renewal sequences, scalings, series, trimmed sums."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import cli
from ergosum import renewal as rn
from ergosum.errors import ConfigError, ResourceLimitError
from ergosum.regvar import invert_scaling

ALL_KINDS = [
    rn.Geometric(0.5),
    rn.Geometric(0.25),
    rn.PowerTail(1.0),
    rn.PowerTail(0.5),
    rn.FiniteSupport.delta(1),
    rn.FiniteSupport([(1, 0.5), (2, 0.5)]),
    rn.FiniteSupport([(1, 0.3), (2, 0.3), (3, 0.4)]),
]


def masses(f, n_max: int) -> np.ndarray:
    """Array m with m[k] = f_k = F(k) - F(k+1) for 1 <= k <= n_max (m[0] = 0)."""
    tails = f.tail(np.arange(1, n_max + 2, dtype=np.int64))
    out = np.zeros(n_max + 1, dtype=np.float64)
    out[1:] = tails[:-1] - tails[1:]
    return out


def mean(f) -> float:
    """E nu: 1/p for a geometric lifetime, sum k f_k for a finite support."""
    if isinstance(f, rn.Geometric):
        return 1.0 / f.p
    return math.fsum(k * p for k, p in zip(f.points, f.weights))


# -- distribution surface -----------------------------------------------------


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_tail_mass_consistency(f):
    ns = np.arange(1, 2000)
    tails = np.asarray(f.tail(ns), dtype=float)
    assert tails[0] == 1.0
    assert np.all(np.diff(tails) <= 0)
    mass = masses(f, 1998)
    assert np.all(mass >= 0)
    np.testing.assert_allclose(tails[:-1] - tails[1:], mass[1:1999],
                               rtol=0, atol=0)


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_mass_sums_to_one(f):
    # truncated evaluation: add the tail beyond the horizon analytically
    n = 10 ** 6
    total = float(masses(f, n).sum()) + float(f.tail(n + 1))
    assert abs(total - 1.0) <= 1e-12


def test_spec_roundtrip(tmp_path):
    # the documents of a finite:@FILE spec, one per finite kind in ALL_KINDS
    docs = [{"kind": "finite", "mass": [[1, 1.0]]},
            {"kind": "finite", "mass": [[2, 0.5], [1, 0.5]]},
            {"kind": "finite", "mass": [[1, 0.3], [2, 0.3], [3, 0.4]]}]
    path = tmp_path / "dist.json"
    labels = []
    for doc in docs:
        path.write_text(json.dumps(doc))
        labels.append(cli.parse_distribution(f"finite:@{path}").label)
    assert labels == [f.label for f in ALL_KINDS if isinstance(f, rn.FiniteSupport)]
    # every other kind has a spec of its own, and a file of it names that spec
    for doc, shorthand in [({"kind": "geometric", "p": 0.5}, "'geometric:p'"),
                           ({"kind": "harmonic"}, "'harmonic'"),
                           ({"kind": "power_tail", "gamma": 0.5}, "'power:gamma'")]:
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=shorthand):
            cli.parse_distribution(f"finite:@{path}")


def test_parse_shorthand():
    assert cli.parse_distribution("geometric:0.5").p == 0.5
    assert cli.parse_distribution("power:0.5").gamma == 0.5
    assert cli.parse_distribution("harmonic").gamma == 1.0
    d = cli.parse_distribution("delta:3")
    assert d.points == (3,) and d.weights == (1.0,)
    with pytest.raises(ConfigError):
        cli.parse_distribution("zipf:2")


def test_finite_validation():
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(1, 0.5), (2, 0.4)])
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(0, 1.0)])
    with pytest.raises(ConfigError):
        rn.FiniteSupport([(1, 0.5), (1, 0.5)])
    for bad in (math.nan, math.inf, -0.5, 1e308):
        with pytest.raises(ConfigError, match="masses must be in"):
            rn.FiniteSupport([(1, bad), (2, 1.0)])
    with pytest.raises(ConfigError, match="below 2"):
        rn.FiniteSupport.delta(2 ** 63)


def test_finite_atoms_up_to_int64_max():
    # the largest atom that fits int64; queries past any atom need not fit
    top = 2 ** 63 - 1
    f = rn.FiniteSupport.delta(top)
    assert float(f.tail(top)) == 1.0 and float(f.tail(top + 1)) == 0.0
    assert float(f.tail(10 ** 30)) == 0.0
    assert f.tail(np.array([1, top])).tolist() == [1.0, 1.0]


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
    assert abs(f.truncated_mean(max(points) + 5) - mean(f)) < 1e-12


@given(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
       st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_finite_truncated_mean_fraction_oracle(points, raw_weights):
    weights = np.array(raw_weights[:len(points)])
    weights /= weights.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    f = rn.FiniteSupport(list(zip(points, weights)))
    # F(j) and L(n) = F(1) + ... + F(n), exact in the float weights; the
    # closed form measured within 1.3 eps relative on 400 random supports
    atoms = [(k, Fraction(p)) for k, p in zip(f.points, f.weights)]
    exact = Fraction(0)
    assert f.truncated_mean(0) == 0
    for n in range(1, max(points) + 6):
        exact += sum((p for k, p in atoms if k >= n), Fraction(0))
        assert abs(Fraction(f.truncated_mean(n)) - exact) <= 8 * 2.0 ** -52 * exact, n


@pytest.mark.parametrize("f", [*ALL_KINDS, rn.Geometric(1.0), rn.FiniteSupport.delta(3)],
                         ids=lambda f: f.label)
def test_truncated_mean_at_zero(f):
    assert f.truncated_mean(0) == 0


@pytest.mark.parametrize("p", [0.5, 0.25, 0.7, 0.3, 1 / 3, 1e-3, 1e-8, 1e-12, 1e-300])
def test_geometric_truncated_mean_fraction_oracle(p):
    # L(n) = (1 - (1-p)^n) / p, exact in the float p.  The expm1 form
    # measured within 3.51 * 2^-53 relative on 86 p and n up to 2^62;
    # 1 - (1-p)^n in floats was 2.2e-5 off at p = 1e-12 and 0 at p = 1e-300
    f, q = rn.Geometric(p), Fraction(p)
    assert f.truncated_mean(1) == 1.0  # so b(1) = 1
    if math.frexp(p)[0] == 0.5:  # p = 2^-k: L reaches 1/p, so b(y) = y/p
        assert f.truncated_mean(2 ** 40) == 1 / p
    for n in range(1, 301):
        exact = (1 - (1 - q) ** n) / q
        assert abs(Fraction(f.truncated_mean(n)) - exact) <= 2.0 ** -51 * exact, n
    if p == 0.5:  # the tm:geometric:0.5 rows keep the plain form's values
        for n in range(129):
            assert f.truncated_mean(n) == (1.0 - 0.5 ** n) / 0.5, n


def test_finite_truncated_mean_far_atom():
    # closed form: no table up to the atom
    f = rn.FiniteSupport.delta(10 ** 11)
    assert f.truncated_mean(10) == 10.0
    assert f.truncated_mean(10 ** 12) == 1e11


@pytest.mark.parametrize("f,checks", [
    (rn.Geometric(0.5), {1: 1.0, 2: 0.5, 4: 0.125, 8: 2 ** -7, 16: 2 ** -15}),
    (rn.PowerTail(1.0), {1: 1.0, 2: 0.5, 4: 0.25, 8: 0.125, 16: 1 / 16}),
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


@pytest.mark.parametrize("p", [1 / 3, 0.3333333333333334, 0.4, 0.5, 0.7, 0.9, 0.999, 1.0])
def test_geometric_search_matches_numpy(p):
    # the guide-table search gives NumPy's draws from the same uniforms
    f = rn.Geometric(p)
    for size in (0, 1, 63, 4097, 10 ** 5):
        ours = f.sample(np.random.default_rng(size), size)
        theirs = np.random.default_rng(size).geometric(p, size)
        assert ours.dtype == theirs.dtype == np.int64, size
        assert np.array_equal(ours, theirs), size


class _Uniforms:
    def __init__(self, *values):
        self.values = np.array(values)

    def random(self, size):
        return self.values[:size].copy()


def test_geometric_search_at_its_sums():
    # NumPy returns the least k with u <= s_k; 0.5 and 0.75 are both sums
    # and guide cuts, and 1 - 2^-53 is the largest uniform
    u = _Uniforms(0.0, 0.5, 0.5000000000000001, 0.75, 1.0 - 2.0 ** -53)
    assert rn.Geometric(0.5).sample(u, 5).tolist() == [1, 1, 2, 2, 53]


def test_geometric_uniform_above_last_sum():
    # p = 0.7's sums stop at 0.9999999999999997, and NumPy's search would
    # never return for a uniform above that
    for p in (0.7, 0.3333333333333334):
        with pytest.raises(ResourceLimitError, match="above its last CDF sum"):
            rn.Geometric(p).sample(_Uniforms(0.5, 1.0 - 2.0 ** -53), 2)


@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0])
def test_power_tail_sample_matches_out_of_place(gamma):
    f = rn.PowerTail(gamma)
    for size in (0, 1, 4097, 10 ** 5):
        u = 1.0 - np.random.default_rng(size).random(size)
        expected = np.maximum(np.ceil(np.power(u, -1.0 / gamma) - 1.0), 1.0)
        ours = f.sample(np.random.default_rng(size), size)
        assert ours.dtype == np.int64
        assert np.array_equal(ours, expected.astype(np.int64)), size


# -- renewal sequences ---------------------------------------------------------


def _renewal_direct(mass: np.ndarray, n_max: int) -> np.ndarray:
    """Renewal recursion u_0 = 1, u_n = sum_{k=1..n} mass[k] u_{n-k}.

    Quadratic; the oracle for renewal_sequence.  ``mass[0]`` is ignored
    and ``mass`` must reach index n_max.
    """
    if mass.shape[0] < n_max + 1:
        raise ValueError("mass array shorter than n_max + 1")
    # w holds u reversed, w[n_max - n] = u_n, so u_{n-1}, ..., u_0 is the
    # contiguous tail of w: the same products in the same order as a dot
    # with u[n-1::-1], without NumPy copying a negative-stride operand.
    w = np.empty(n_max + 1, dtype=np.float64)
    w[n_max] = 1.0
    for n in range(1, n_max + 1):
        w[n_max - n] = np.dot(mass[1:n + 1], w[n_max - n + 1:])
    return w[::-1].copy()


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
    direct = _renewal_direct(masses(f, n_max), n_max)
    assert np.max(np.abs(seq.u - direct)) <= 1e-14


def test_renewal_nearly_periodic_support():
    # period 1, but nearly 2: the hard case for a spectral inversion
    # (measured 4.5e-14)
    f = rn.FiniteSupport([(2, 0.999), (3, 0.001)])
    n_max = 2 ** 15
    seq = rn.renewal_sequence(f, n_max)
    direct = _renewal_direct(masses(f, n_max), n_max)
    assert np.max(np.abs(seq.u - direct)) <= 1e-13


@pytest.mark.parametrize("points", [
    [(3, 1.0), (7, 5e-324)],
    [(2, 0.5), (4, 0.5), (5, 1e-310)],
], ids=["period-3-subnormal-7", "period-2-subnormal-5"])
def test_renewal_probabilities_in_unit_interval(points):
    # periodic but for a negligible atom: unclipped, the inversion's
    # rounding put hundreds of u_n up to 1e-12 below 0 or above 1
    f = rn.FiniteSupport(points)
    n_max = 5000
    seq = rn.renewal_sequence(f, n_max)
    assert np.all((seq.u >= 0.0) & (seq.u <= 1.0))
    direct = _renewal_direct(masses(f, n_max), n_max)
    assert np.max(np.abs(seq.u - direct)) <= 2e-12


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
    u = _renewal_direct(masses(rn.Geometric(0.5), n), n)
    assert u[0] == 1.0
    assert np.all(u[1:] == 0.5)


def test_direct_recursion_rejects_short_mass():
    with pytest.raises(ValueError):
        _renewal_direct(np.zeros(3), 10)


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
    mass = masses(f, n_max)
    assert np.array_equal(_renewal_direct(mass, n_max),
                          _strided_recursion(mass, n_max))


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True),
       st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_direct_recursion_matches_strided_oracle_random(points, raw_weights, n_max):
    weights = np.array(raw_weights[:len(points)])
    weights /= weights.sum()
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    mass = masses(rn.FiniteSupport(list(zip(points, weights))), n_max)
    assert np.array_equal(_renewal_direct(mass, n_max),
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
        assert np.all(np.abs(seq.u[burn_in:] - 1 / mean(f)) <= 1e-6), f.label


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_convolution_identity(f):
    n_max = 2000
    seq = rn.renewal_sequence(f, n_max)
    mass = masses(f, n_max)
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
    mass = masses(f, 300)
    for n in (1, 2, 3, 17, 150, 300):
        expected = float(np.dot(mass[1:n + 1], seq.u[n - 1::-1]))
        assert abs(seq.u[n] - expected) <= 1e-12


def test_renewal_sequence_matches_direct():
    # 20001 and 2**15 + 1 coefficients: at neither length do halved Newton
    # sizes coincide with doubled ones; measured worst cases 1.6e-15 on u
    # and 1.5e-11 on a_u, both harmonic at 2**15, where the float direct
    # recursion itself is 1.6e-15 from a long-double one
    top = 2 ** 15
    for f in ALL_KINDS:
        direct = _renewal_direct(masses(f, top), top)
        direct_a_u = np.cumsum(direct[1:], dtype=np.longdouble).astype(np.float64)
        for n_max in (20000, top):
            seq = rn.renewal_sequence(f, n_max)
            assert np.max(np.abs(seq.u - direct[:n_max + 1])) <= 1e-14, (f.label, n_max)
            assert np.max(np.abs(seq.a_u[1:] - direct_a_u[:n_max])) <= 1e-9, (f.label, n_max)


def _newton_steps(length):
    """The (m, m2) steps of _reciprocal for length coefficients."""
    sizes = [length]
    while sizes[-1] > rn._NEWTON_BASE:
        sizes.append(-(-sizes[-1] // 2))
    sizes.reverse()
    return list(zip(sizes, sizes[1:]))


def _sparse_recursion(f, n_max):
    # the recursion of _renewal_direct over the atoms alone: the products
    # with zero masses that it leaves out are exact zeros
    atoms = list(zip(f.points, f.weights))
    u = [1.0] + [0.0] * n_max
    for n in range(1, n_max + 1):
        total = 0.0
        for k, w in atoms:  # ascending
            if k > n:
                break
            total += w * u[n - k]
        u[n] = total
    return np.array(u)


def _prefix_lengths(n_max):
    """m - 1, m and m + 1 of every Newton step m -> m2 for n_max + 1
    coefficients, and the last m2."""
    steps = _newton_steps(n_max + 1)
    return sorted({m + i for m, _ in steps for i in (-1, 0, 1)} | {steps[-1][1]})


@pytest.mark.parametrize("weights,bound_u,bound_a_u", [
    # test_renewal_sequence_matches_direct's bounds (measured 7.5e-15 on u
    # and 1.3e-10 on a_u)
    ((0.49, 0.5, 0.01), 1e-14, 1e-9),
    # a heavy far atom L puts poles of 1/T within about ln(4)/L of the unit
    # circle (measured 1.2e-11 and 1.9e-8; the full Newton step read 1.4e-9
    # and 2.9e-6)
    ((0.3, 0.3, 0.4), 1e-10, 1e-7),
], ids=["light-far-atom", "heavy-far-atom"])
def test_zero_prefix_boundaries(weights, bound_u, bound_a_u):
    # the tails' nonzero prefix has the length L of the largest atom; at
    # L = m - 1, m, m + 1 and m2 a Newton step m -> m2 has its residual on
    # either side of the zero tails
    for n_max in (2 ** 12, 2 ** 15 + 1):
        for length in _prefix_lengths(n_max):
            f = rn.FiniteSupport(list(zip((1, 2, length), weights)))
            seq = rn.renewal_sequence(f, n_max)
            oracle = _sparse_recursion(f, n_max)
            oracle_a_u = np.cumsum(oracle[1:], dtype=np.longdouble).astype(np.float64)
            assert np.max(np.abs(seq.u - oracle)) <= bound_u, (n_max, length)
            assert np.max(np.abs(seq.a_u[1:] - oracle_a_u)) <= bound_a_u, (n_max, length)


def test_zero_prefix_boundaries_geometric_and_lattice():
    # geometric tails end at L = 619 (p = 0.7) and 2090 (p = 0.3)
    top = 2 ** 15 + 1
    for f in (rn.Geometric(0.7), rn.Geometric(0.3)):
        direct = _renewal_direct(masses(f, top), top)
        direct_a_u = np.cumsum(direct[1:], dtype=np.longdouble).astype(np.float64)
        for n_max in (2 ** 12, top):
            seq = rn.renewal_sequence(f, n_max)
            assert np.max(np.abs(seq.u - direct[:n_max + 1])) <= 1e-14, (f.label, n_max)
            assert np.max(np.abs(seq.a_u[1:] - direct_a_u[:n_max])) <= 1e-9, (f.label, n_max)
    # a lattice support: exact 0/1 rows
    for n_max in (2 ** 12, top):
        for length in _prefix_lengths(n_max):
            exact = (np.arange(n_max + 1) % length == 0).astype(np.float64)
            u = rn.renewal_sequence(rn.FiniteSupport.delta(length), n_max).u
            assert np.array_equal(u, exact), (n_max, length)


def test_sparse_recursion_is_the_direct_recursion():
    f = rn.FiniteSupport([(1, 0.3), (2, 0.3), (129, 0.4)])
    n_max = 2 ** 12
    direct = _renewal_direct(masses(f, n_max), n_max)
    assert np.max(np.abs(_sparse_recursion(f, n_max) - direct)) <= 1e-15


def test_newton_transforms_span_the_nonzero_prefix(monkeypatch):
    # every transform writes into the work area.  Over tails without zeros
    # (harmonic) a step from m to m2 terms transforms at about m2, never
    # past L = 2**15 + 1 terms; behind a nonzero prefix of 619 tails
    # (geometric:0.7) the last step transforms at about m2 - m + 619
    lengths = []

    def recording(transform):
        def run(a, n=None, *args, out=None, **kwargs):
            assert out is not None and n is not None
            lengths.append(n)
            return transform(a, n, *args, out=out, **kwargs)
        return run

    monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft))
    n_max = 2 ** 15
    length = n_max + 1
    rn.renewal_sequence(rn.PowerTail(1.0), n_max)
    assert lengths and max(lengths) <= rn._next_fast_len(length)
    lengths.clear()
    assert np.count_nonzero(rn.Geometric(0.7).tail(np.arange(1, length + 1))) == 619
    rn.renewal_sequence(rn.Geometric(0.7), n_max)
    assert lengths and max(lengths) <= rn._next_fast_len(-(-length // 2) + 619)


def test_renewal_peak_memory():
    # one work area (a real buffer of about 1.5 n and two spectra of about
    # n reals each, at most) beside the tails: 4.0 arrays of n + 1 at peak
    # for geometric:0.7, whose zero tails shorten the products, and 4.56
    # for harmonic
    n_max = 2 ** 20
    for f in (rn.Geometric(0.7), rn.PowerTail(1.0)):
        rn.renewal_sequence(f, 64)
        tracemalloc.start()
        try:
            rn.renewal_sequence(f, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (n_max + 1), (f.label, peak / (8 * (n_max + 1)))


@pytest.mark.parametrize("p", [1.0, 0.999999, 0.7, 0.5, 0.3, 0.1, 1e-3, 1e-300])
def test_geometric_tail_matches_numpy_power(p):
    # only exponents whose power can be nonzero are raised; the rest are 0
    f = rn.Geometric(p)
    n = np.arange(1, 2 ** 20 + 2)
    tails = f.tail(n)
    assert tails.dtype == np.float64
    assert np.array_equal(tails, np.power(1 - p, n - 1.0))
    for k in (1, 2, 3, 700, 1076, 2 ** 20, 2 ** 62):
        assert np.array_equal(f.tail(k), np.power(1 - p, k - 1.0)), k
    assert np.array_equal(f.tail(n[::-7]), np.power(1 - p, n[::-7] - 1.0))


def test_fft_accuracy_geometric():
    # exact (0) at each size; the full Newton step read up to 4.4e-16, and
    # the mass-form inversion 7.6e-12 at 2**18 and 1.1e-10 at 2**20 - 1
    for n_max in (2 ** 18 - 1, 2 ** 18, 2 ** 20 - 1, 2 ** 20):
        seq = rn.renewal_sequence(rn.Geometric(0.7), n_max)
        assert seq.u[0] == 1.0
        assert np.max(np.abs(seq.u[1:] - 0.7)) <= 1e-14, n_max


def test_geometric_prefix_sums_exact():
    # u_n = 0.7 exactly for n >= 1, so a_u(n) is 0.7 n rounded once: the
    # compensated sums give it at every n, where long-double sums were off
    # at 243,594 of these n, by up to 16 ulps
    n_max = 2 ** 18
    a_u = rn.renewal_sequence(rn.Geometric(0.7), n_max).a_u
    num, den = Fraction(0.7).as_integer_ratio()  # den is a power of two
    exact = np.array([float(num * n) for n in range(n_max + 1)]) / den
    assert np.array_equal(a_u, exact)


@pytest.mark.parametrize("p", [0.002, 0.01, 0.05, 0.3, 0.5, 0.7, 0.99])
def test_geometric_accuracy_claim(p):
    # README: for geometric lifetimes the largest |u_n - p| is at most
    # 4.4e-16 (measured 2.1e-16, at p = 0.01; the full Newton step read
    # 5.1e-16 at p = 0.002)
    for n_max in (2 ** 12, 2 ** 16, 2 ** 18):
        u = rn.renewal_sequence(rn.Geometric(p), n_max).u
        assert np.max(np.abs(u[1:] - p)) <= 4.4e-16, n_max


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
    f = rn.FiniteSupport.delta(1)
    a = rn.truncated_mean_scaling(f)
    for n in (1, 2, 7, 1000):
        assert f.truncated_mean(n) == 1.0
        assert a(n) == n
    for y in (1, 2.5, 7.0, 99.01):
        assert invert_scaling(a, y) == math.ceil(y)


def test_scaling_harmonic_values():
    f = rn.PowerTail(1.0)
    assert f.truncated_mean(1) == pytest.approx(1.0, abs=1e-12)
    assert f.truncated_mean(4) == pytest.approx(25 / 12, abs=1e-12)
    assert invert_scaling(rn.truncated_mean_scaling(f), 10) == 44


def test_scaling_monotonicity():
    for f in ALL_KINDS:
        scaling = rn.truncated_mean_scaling(f)
        lengths = [f.truncated_mean(n) for n in range(1, 300)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))
        assert all(l <= n for n, l in enumerate(lengths, start=1))
        ratios = [scaling(n) for n in range(1, 300)]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("f", [rn.PowerTail(1.0), rn.Geometric(0.5),
                               rn.PowerTail(0.5)], ids=lambda f: f.label)
def test_b_generalized_inverse_contract(f):
    a = rn.truncated_mean_scaling(f)
    for y in list(range(2, 50)) + [97, 311, 1000]:
        b = invert_scaling(a, y)
        assert a(b) >= y
        assert a(b - 1) < y


def test_b_horizon_error():
    # a(2**62) = 2**62 / H(2**62) is about 1.06e17 for harmonic lifetimes
    a = rn.truncated_mean_scaling(rn.PowerTail(1.0))
    with pytest.raises(ResourceLimitError, match="at search horizon"):
        invert_scaling(a, 10 ** 18)


# -- diagnostic series --------------------------------------------------------------


def test_queen_geometric_values():
    qs = rn.queen_series(rn.Geometric(0.5), 10)
    assert qs.partial_sums[1] == pytest.approx(1 + 1 / 9, abs=1e-12)
    assert qs.terms[0] == 1.0


def test_queen_delta_constant():
    qs = rn.queen_series(rn.FiniteSupport.delta(1), 50)
    assert np.all(qs.partial_sums == 1.0)


def test_queen_lengths_match_truncated_mean():
    # the L column is a compensated prefix sum of the tails; a plain float
    # cumulative sum drifts to 420 ulps by 2**20 for harmonic
    n_max = 2 ** 16
    f = rn.PowerTail(1.0)
    lengths = rn.queen_series(f, n_max).lengths
    mean = np.array([f.truncated_mean(n) for n in range(1, n_max + 1)])
    assert np.max(np.abs(lengths - mean) / np.spacing(mean)) <= 2


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label)
def test_queen_universal_majorization(f):
    qs = rn.queen_series(f, 5000)
    ns = np.arange(1, 5001, dtype=np.float64)
    assert np.all(qs.terms <= 1.0 / ns ** 2)


def test_dyadic_delta_first_term_only():
    d1 = rn.FiniteSupport.delta(1)
    sc = rn.truncated_mean_scaling(d1)
    ds = rn.dyadic_tail_series(d1, sc, 1.0, 8)
    assert ds.terms[0] == 1.0
    assert np.all(ds.terms[1:] == 0.0)
    assert np.all(ds.partial_sums == 1.0)


def test_dyadic_geometric_frozen_values():
    g = rn.Geometric(0.5)
    ds = rn.dyadic_tail_series(g, rn.truncated_mean_scaling(g), 1.0, 12)
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
    ds = rn.dyadic_tail_series(p, rn.truncated_mean_scaling(p), 1.0, 10)

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
    # 2048.0 = a(4096) up to rounding, so the domain reaches past 4096
    sc = rn.renewal_sequence(g, 4100).as_scaling()
    assert abs(sc(4096) - 2048.0) <= 1e-12
    for y in (1.0, 2.0, 100.5, 2048.0):
        t = invert_scaling(sc, y)
        assert sc(t) >= y
        if t > sc.domain_min:
            assert sc(t - 1) < y
    with pytest.raises(ResourceLimitError, match="at search horizon"):
        invert_scaling(sc, 10 ** 6)


# -- trimmed sums -------------------------------------------------------------------


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
    target = (n * mean(g) - e_max) / res.b_n
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
    with pytest.raises(ConfigError, match="n must be >= 2"):
        rn.trimmed_sum_trials(g, 1, 5, seed=0)
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        rn.trimmed_sum_trials(g, 10, 0, seed=0)


def test_trimmed_sum_overflow_guard():
    class HugeLifetimes(rn.Geometric):
        # every draw is 2**60: three sum below INT64_SUM_LIMIT, four above
        def sample(self, rng, size):
            return np.full(size, 2 ** 60, dtype=np.int64)

    f = HugeLifetimes(0.5)
    res = rn.trimmed_sum_trials(f, 3, 2, seed=0)
    assert res.b_n == 6
    assert np.all(res.ratios == 2 ** 61 / 6)
    with pytest.raises(ResourceLimitError, match="partial sums would overflow int64"):
        rn.trimmed_sum_trials(f, 4, 2, seed=0)


def test_power_tail_overflow_guard():
    p = rn.PowerTail(0.5)

    class TinyUniform:
        def random(self, size):
            return np.full(size, 1.0 - 2.0 ** -40)  # tail draw 2^-40 -> nu = 2^80

    with pytest.raises(ResourceLimitError, match=r"drew a lifetime >= 2\*\*62"):
        p.sample(TinyUniform(), 4)
