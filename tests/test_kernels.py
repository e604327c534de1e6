"""Numeric kernels: exact floor-sum orbit counting, power sums, compensated
prefix sums, FFT lengths; float64 is the one numeric type in src."""

import ast
import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal, Inexact, localcontext
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


@pytest.mark.parametrize("gamma, const", [
    (1.0, "0x1.2788cfc6fb619p-1"),
    (0.5, "0x1.144c69f031802p-1"),
    (0.75, "0x1.1e0fd77dbc312p-1"),
    (0.9, "0x1.23c818623b80cp-1"),
])
def test_power_sum_constant_pinned(gamma, const):
    # formed in 40-digit decimal arithmetic and rounded once; the 80-bit
    # long-double calibration it replaced gave the same bits at these gammas
    assert rn.PowerTail(gamma)._const.hex() == const


# -- compensated prefix sums --------------------------------------------------------


def _exact_prefix_sums(x):
    """Every prefix sum of x in decimal, exactly (the Inexact trap is set)."""
    with localcontext(prec=200) as ctx:
        ctx.traps[Inexact] = True
        return list(itertools.accumulate(map(Decimal, x.tolist())))


@pytest.mark.parametrize("kind", ["positive", "mixed"])
def test_prefix_sum_correctly_rounded(kind):
    rng = np.random.default_rng(29)
    n = 2 ** 20
    x = rng.random(n) if kind == "positive" else rng.standard_normal(n)
    out = rn._prefix_sum(x, np.empty(n), np.empty(n))
    exact = _exact_prefix_sums(x)
    for i in np.sort(rng.choice(n, size=40, replace=False)):
        assert out[i] == float(exact[i]), i


def test_cumsum_adds_in_order():
    # _prefix_sum's TwoSum errors assume np.cumsum forms s_i = s_{i-1} + x_i
    rng = np.random.default_rng(31)
    for x in (rng.random(2 ** 16), rng.standard_normal(2 ** 16),
              rn.PowerTail(0.5).tail(np.arange(1, 2 ** 16 + 1))):
        s = np.cumsum(x)
        assert np.array_equal(s[1:], s[:-1] + x[1:])


def test_prefix_sum_short_and_strided():
    for n in (0, 1, 2):
        x = np.arange(1.0, n + 1)
        assert np.array_equal(rn._prefix_sum(x, np.empty(n), np.empty(n)), np.cumsum(x))
    out = np.zeros(9)
    rn._prefix_sum(np.full(3, 0.1), out[::4], np.empty(3))
    assert out.tolist() == [0.1, 0, 0, 0, 0.2, 0, 0, 0, 0.30000000000000004]


# -- one numeric type ----------------------------------------------------------------

# the names of NumPy's extended-precision types, and their dtype strings
_EXTENDED = {"longdouble", "clongdouble", "float128", "complex256", "longfloat",
             "clongfloat", "float96", "complex192"}
_EXTENDED_CODES = {"g", "G", "f16", "c32", "f12", "c24"}


def _extended_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.lstrip("<>=|")
            if name in _EXTENDED_CODES:
                found.append(f"{getattr(node, 'lineno', '?')}: {node.value!r}")
                continue
        else:
            continue
        if name in _EXTENDED:
            found.append(f"{getattr(node, 'lineno', '?')}: {name}")
    return found


def test_guard_sees_extended_types():
    source = ("import numpy as np\nfrom numpy import longdouble\n"
              "a = np.longdouble(1)\nb = np.zeros(2, dtype='float128')\n"
              "c = np.dtype('<g')\nd = x.astype(np.clongdouble)\n")
    assert len(_extended_uses(source)) == 5


def test_src_uses_float64_only():
    # one numeric type: NumPy's long double is 80-bit on x86, 64-bit on
    # Windows and macOS arm64 and 128-bit on aarch64 Linux
    package = Path(ergosum.__file__).parent
    stray = [f"{path.name}:{use}" for path in sorted(package.glob("*.py"))
             for use in _extended_uses(path.read_text())]
    assert not stray, stray


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
