"""Scaling sequences and regular-variation band diagnostics."""

import math

import numpy as np
import pytest

from ergosum import regvar as rv
from ergosum import renewal as rn
from ergosum.errors import ConfigError, InvariantViolationError, ResourceLimitError


def _identity():
    return rv.ScalingSequence(lambda n: n, "identity")


def _sqrt_ceil():
    return rv.ScalingSequence(lambda n: math.isqrt(n - 1) + 1, "sqrt-ceil")


# -- scaling sequence surface ----------------------------------------------------


def test_scaling_domain_checks():
    seq = rv.ScalingSequence(lambda n: n, "identity", domain_min=2, domain_max=10)
    assert seq(2) == 2
    with pytest.raises(ConfigError, match="index 1 below domain start 2"):
        seq(1)
    with pytest.raises(ResourceLimitError, match="index 11 beyond domain end 10"):
        seq(11)


def test_invert_scaling_basics():
    seq = _identity()
    assert rv.invert_scaling(seq, 1) == 1
    assert rv.invert_scaling(seq, 17) == 17
    assert rv.invert_scaling(seq, 16.5) == 17
    assert rv.invert_scaling(seq, rv.SEARCH_HORIZON) == rv.SEARCH_HORIZON
    with pytest.raises(ResourceLimitError, match="at search horizon"):
        rv.invert_scaling(seq, rv.SEARCH_HORIZON + 1)
    bounded = rv.ScalingSequence(lambda n: n, "identity", domain_max=50)
    with pytest.raises(ResourceLimitError, match="at search horizon"):
        rv.invert_scaling(bounded, 100)


# -- band diagnostics --------------------------------------------------------------


def test_er_identity_all_ones():
    report = rv.er_diagnostic(_identity(), (2, 4), 8, 1024)
    assert all(r.ratio == 1.0 for r in report.rows)
    assert report.m_hat == 1.0
    assert {r.p for r in report.rows} == {2, 4}


def test_er_sqrt_example():
    report = rv.er_diagnostic(_sqrt_ceil(), (4,), 100, 400, grid_factor=2)
    row = report.rows[0]
    assert (row.p, row.n, row.a_n, row.a_pn) == (4, 100, 10, 20)
    assert row.ratio == 0.5
    assert report.m_hat >= 2.0


def test_er_geometric_renewal_prefix():
    seq = rn.renewal_sequence(rn.Geometric(0.5), 2 ** 14)
    report = rv.er_diagnostic(seq.as_scaling(), (2,), 2 ** 6, 2 ** 13)
    assert all(abs(r.ratio - 1.0) <= 1e-9 for r in report.rows)


def test_er_telescoping_power_of_two():
    # r(4, n) = r(2, 2n) * r(2, n) on closed forms
    for seq in (_scaling_n_over_harmonic(), _sqrt_ceil()):
        r2 = {row.n: row.ratio for row in
              rv.er_diagnostic(seq, (2,), 2 ** 6, 2 ** 14).rows}
        r4 = {row.n: row.ratio for row in
              rv.er_diagnostic(seq, (4,), 2 ** 6, 2 ** 13).rows}
        for n, ratio in r4.items():
            assert abs(ratio - r2[2 * n] * r2[n]) <= 1e-9


def _scaling_n_over_harmonic():
    return rn.truncated_mean_scaling(rn.PowerTail(1.0))


def test_er_report_invariants():
    report = rv.er_diagnostic(_scaling_n_over_harmonic(), (2, 4, 8), 2 ** 8, 2 ** 14)
    assert report.m_hat >= 1.0
    assert all(r.ratio > 0 for r in report.rows)
    assert report.m_hat == max(max(r.ratio, 1 / r.ratio) for r in report.rows)


def test_er_validation():
    with pytest.raises(ConfigError, match="p values must exceed 1"):
        rv.er_diagnostic(_identity(), (1,), 8, 64)
    with pytest.raises(ConfigError, match=r"n_hi = 128 < p\*n_lo = 256"):
        rv.er_diagnostic(_identity(), (4,), 64, 128)
    with pytest.raises(ConfigError, match="n_lo must be >= 1"):
        rv.er_diagnostic(_identity(), (2,), 0, 64)
    # a scaling is positive by contract: a zero breaks it, as it does
    # for normalized_stats
    zero = rv.ScalingSequence(lambda n: 0, "zero")
    with pytest.raises(InvariantViolationError,
                       match="^zero: nonpositive value in table at n=8$"):
        rv.er_diagnostic(zero, (2,), 8, 64)


# -- slow variation: the p = 2 band of n/L(n) is L(n)/L(2n) ---------------------


def _doubling_band(length, n_lo, n_hi):
    """The p = 2 rows of a(n) = n/L(n); each ratio is L(n)/L(2n)."""
    a = rv.ScalingSequence(lambda n: n / length(n), "n/L")
    return rv.er_diagnostic(a, (2,), n_lo, n_hi).rows


def test_sv_constant():
    rows = _doubling_band(lambda n: 1.0, 1, 1024)
    assert len(rows) == 11
    assert all(r.ratio == 1.0 for r in rows)


def test_sv_harmonic_length():
    rows = _doubling_band(rn.PowerTail(1.0).truncated_mean, 2 ** 20, 2 ** 21)
    assert all(abs(r.ratio - 1.0) <= 0.05 for r in rows)


def test_sv_geometric_length():
    rows = _doubling_band(rn.Geometric(0.5).truncated_mean, 30, 240)
    # L(n) = 2(1 - 2^-n): the doubling ratio is 1 + 2^-n, inside 1e-9 from n = 30
    assert [r.n for r in rows] == [30, 60, 120, 240]
    assert all(abs(r.ratio - 1.0) <= 1e-9 for r in rows)


def test_sv_identity_not_slowly_varying():
    # L(n) = n: a(n) = 1, and L doubles with n
    rows = _doubling_band(lambda n: float(n), 4, 256)
    assert all(r.ratio == 0.5 for r in rows)


@pytest.mark.parametrize("f", [rn.Geometric(0.5), rn.PowerTail(1.0), rn.PowerTail(0.75)],
                         ids=lambda f: f.label)
def test_doubling_band_is_the_reciprocal_length_ratio(f):
    # the band of the truncated-mean scaling at p = 2 times L(2n)/L(n) is 1
    # within 2 ulp, on the dyadic grid 8..2^20
    rows = rv.er_diagnostic(rn.truncated_mean_scaling(f), (2,), 8, 2 ** 20).rows
    assert [r.n for r in rows] == [2 ** e for e in range(3, 21)]
    for r in rows:
        sv = f.truncated_mean(2 * r.n) / f.truncated_mean(r.n)
        assert abs(r.ratio * sv - 1.0) <= 2 * math.ulp(1.0), r
