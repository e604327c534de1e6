"""Numeric kernels: exact floor-sum orbit counting, power sums, FFT lengths."""

import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergosum
from ergosum import lattice as lt
from ergosum import renewal as rn
from ergosum.errors import ConfigError


# -- floor-sum orbit counting ----------------------------------------------------


def test_floor_sum_matches_naive_sum():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(1, 30))
        a, b = (int(v) for v in rng.integers(-100, 100, size=2))
        assert lt._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_translate_count_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = rng.uniform(-3, 3)
        beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        x = rng.uniform(0, 1)
        n_box = int(rng.integers(1, 60))
        ks = np.arange(-n_box, n_box + 1, dtype=np.float64)
        vals = (x + ks[:, None] * alpha) + ks[None, :] * beta
        brute = int(np.count_nonzero((vals >= 0.0) & (vals < 1.0)))
        assert lt._translate_count(alpha, beta, x, n_box) == brute


def test_translate_count_rejects_zero_beta():
    with pytest.raises(ConfigError, match="alpha and beta must be nonzero"):
        lt._translate_count(1.0, 0.0, 0.0, 5)


# -- power sums 1^-gamma + ... + n^-gamma ---------------------------------------

# Euler's constant to 50 digits
_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
# Bernoulli numbers B_2 .. B_14
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6))


def _harmonic_oracle(n):
    """H_n to 40 digits from the asymptotic series (n > 2000: error < 1e-80)."""
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(n)
        total = d.ln() + _GAMMA + 1 / (2 * d)
        for k, b in enumerate(_BERNOULLI, start=1):
            total -= Decimal(b.numerator) / (Decimal(b.denominator) * 2 * k * d ** (2 * k))
        return Fraction(total)


_BRUTE_LIMIT = 2000


def _power_sum_oracle(gamma):
    """n -> 1^-gamma + ... + n^-gamma to 40 digits, for 0 < gamma < 1.

    A direct sum up to n = 2000; beyond, the sum to 2000 plus the
    Euler-Maclaurin difference E(n) - E(2000) with seven Bernoulli terms,
    whose remainder at n >= 2000 is below 1e-50.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        g = Decimal(gamma)  # the binary value the code uses, exactly
        sums = [Decimal(0)]
        for k in range(1, _BRUTE_LIMIT + 1):
            sums.append(sums[-1] + Decimal(k) ** -g)

    def expansion(x):
        total = x ** (1 - g) / (1 - g) + x ** -g / 2
        rising = g  # (gamma)_(2k-1)
        for k, b in enumerate(_BERNOULLI, start=1):
            coeff = Decimal(b.numerator) / (Decimal(b.denominator) * math.factorial(2 * k))
            total -= coeff * rising * x ** (1 - g - 2 * k)
            rising *= (g + 2 * k - 1) * (g + 2 * k)
        return total

    def oracle(n):
        with localcontext() as ctx:
            ctx.prec = 40
            if n <= _BRUTE_LIMIT:
                return Fraction(sums[n])
            return Fraction(sums[_BRUTE_LIMIT] + expansion(Decimal(n))
                            - expansion(Decimal(_BRUTE_LIMIT)))

    return oracle


def _ulps(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_harmonic_exact_sums():
    harmonic = rn.PowerTail(1.0)
    exact = Fraction(0)
    for n in range(1, 2001):
        exact += Fraction(1, n)
        assert _ulps(harmonic.truncated_mean(n), exact) <= 2, n


def test_harmonic_decimal_oracle():
    harmonic = rn.PowerTail(1.0)
    rng = np.random.default_rng(13)
    ns = [2001, 2 ** 62] + [int(2 ** e) for e in rng.uniform(11, 62, size=400)]
    for n in ns:
        assert _ulps(harmonic.truncated_mean(n), _harmonic_oracle(n)) <= 2, n


@pytest.mark.parametrize("gamma", [0.5, 0.75, 0.9])
def test_power_sum_decimal_oracle(gamma):
    # measured at most 1.4, 1.5 and 2.1 ulp; a float cumulative sum over
    # 2**20 terms with the expansion calibrated at its end reads up to 248
    f = rn.PowerTail(gamma)
    oracle = _power_sum_oracle(gamma)
    rng = np.random.default_rng(17)
    ns = (list(range(1, _BRUTE_LIMIT + 1)) + [_BRUTE_LIMIT + 1, 2 ** 62]
          + [int(2 ** e) for e in rng.uniform(11, 62, size=200)])
    for n in ns:
        assert _ulps(f.truncated_mean(n), oracle(n)) <= 8, (gamma, n)


# -- FFT lengths and dependencies ------------------------------------------------------


def test_next_fast_len_is_least_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3001):
        assert rn._next_fast_len(n) == next(m for m in itertools.count(n) if smooth(m))


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(ergosum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ergosum.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
