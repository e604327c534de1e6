"""Acceptance gate: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria are property- and oracle-based at desk
scale; every expected value below was either computed by an independent
oracle (brute-force counting, hand recursion, direct summation,
semi-analytic expectation) or is exact by construction.

Three criteria (4, 10, and the second half of 11) state tolerances that
the mathematics of the configured experiments cannot meet at the pinned
horizons; they are implemented exactly as stated and fail honestly with
the measured values in the assertion message.  See the repository notes
for the blocking analysis.
"""

import math
import time
import warnings

import numpy as np
import pytest

from ergosum import birkhoff as bk
from ergosum import cli
from ergosum import lattice as lt
from ergosum import rankone as rk
from ergosum import regvar as rv
from ergosum import renewal as rn
from ergosum.streams import spawn

PHI = (1.0 + math.sqrt(5.0)) / 2.0

SHIPPED_DISTRIBUTIONS = [
    rn.Geometric(0.5),
    rn.PowerTail(1.0),
    rn.PowerTail(0.5),
    rn.FiniteSupport.delta(1),
    rn.FiniteSupport([(1, 0.5), (2, 0.5)]),
]


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    return ok


@pytest.fixture(scope="module")
def presets():
    return {name: rk.load_preset(name) for name in rk.PRESETS}


@pytest.fixture(scope="module")
def heavy_ensemble(presets):
    """20-seed heavy2q ensemble on dyadic checkpoints 2^10..2^24 (criteria 3, 4).

    Built as a rank-one run builds it: the samplers and the scaling share one
    tower, and the seeds are counted together at each checkpoint.
    """
    data = presets["heavy2q"]
    checkpoints = tuple(2 ** e for e in range(10, 25))
    start = time.perf_counter()
    tower = rk.Tower(data)
    counts = rk.ensemble_window_counts(
        [rk.NameSampler(tower, spawn(1, i)) for i in range(20)], checkpoints)
    elapsed = time.perf_counter() - start
    scaling = rk.rank_one_scaling(tower)
    return counts, scaling, checkpoints, elapsed


def test_criterion_01_window_oracle_equivalence(presets):
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    names = list(rk.PRESETS)
    # the names of each preset share one tower, as in a rank-one run
    towers = {name: rk.Tower(presets[name]) for name in names}
    mismatches = 0
    checked = 0
    while checked < 100:
        name = names[checked % 3]
        radius = int(rng.integers(0, 2000))
        seed = int(rng.integers(0, 2 ** 32))
        sampler = rk.NameSampler(towers[name], seed)
        level = sampler.ensure_window(radius)
        if sampler.tower.q(level) > 10 ** 5:
            continue  # criterion scopes the oracle to q_n <= 1e5 levels
        word = rk.expand_word(presets[name], level).symbols
        off = sampler.center_offset(level)
        ((s_minus, s_plus),) = rk.ensemble_window_counts([sampler], [radius])[0].tolist()
        brute = int(word[off - radius:off + radius + 1].sum())
        if s_minus + s_plus - 1 != brute:
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    assert report(1, ok, f"100 cases, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_structural_identities(presets):
    budget = rk.DEFAULT_EXPANSION_BUDGET
    failures = []
    for name, data in presets.items():
        # q_n and C_n from the stage data alone: q_{n+1} = c_n q_n + the
        # stage-n spacers ("2q" counts 2 q_n), C_n = c_1 ... c_n
        q, C = [1], [data.stage(1).c]
        for n in range(1, 64):
            stage = data.stage(n)
            q.append(stage.c * q[-1] + sum(2 * q[-1] if s == rk.SPACER_TOKEN else s
                                           for s in stage.spacers))
            C.append(C[-1] * data.stage(n + 1).c)
        tower = rk.Tower(data)
        for n in range(1, 64):
            if tower.q(n + 1) != q[n]:
                failures.append((name, n, "height recursion"))
        for n in range(1, 65):
            if q[n - 1] > budget:
                break
            word = rk.expand_word(data, n).symbols
            if len(word) != q[n - 1]:
                failures.append((name, n, "length"))
            expected_bases = 1 if n == 1 else C[n - 2]
            if int(word.sum(dtype=np.int64)) != expected_bases:
                failures.append((name, n, "base count"))
    assert report(2, not failures, f"all presets to the expansion budget; "
                                   f"failures: {failures or 'none'}")


def test_criterion_03_bounded_cut_sandwich(heavy_ensemble):
    counts, scaling, checkpoints, elapsed = heavy_ensemble
    j_bound = 2
    lo, hi = 1 / (2 * j_bound), 3 * j_bound
    violations = []
    for i, rows in enumerate(counts.transpose(1, 0, 2).tolist()):
        for n, (s_minus, s_plus) in zip(checkpoints, rows):
            ratio = (s_plus + s_minus - 1) / scaling(n)
            if not lo <= ratio <= hi:
                violations.append((i, n, ratio))
    ok = not violations and elapsed < 300.0
    assert report(3, ok, f"20 seeds x {len(checkpoints)} checkpoints in "
                         f"[{lo}, {hi}], build {elapsed:.1f}s, "
                         f"violations: {violations or 'none'}")


def test_criterion_04_oscillation(heavy_ensemble):
    counts, scaling, checkpoints, _ = heavy_ensemble
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = bk.normalized_stats(counts, checkpoints, scaling, burn_in=2 ** 12)
    spreads = (stats.sup_sym - stats.inf_sym).tolist()
    hits = sum(o >= 0.25 for o in spreads)
    ok = hits >= 18
    report(4, ok, f"{hits}/20 seeds with oscillation >= 0.25 "
                  f"(max {max(spreads):.6f}); fixed-seed statistical test")
    assert ok, (
        f"only {hits}/20 seeds reached oscillation 0.25; max observed "
        f"{max(spreads):.6f}. On this construction the dyadic grid "
        "2^10..2^24 lands exactly on the tower heights and their doubles, "
        "where the symmetric ratio equals 1/2 exactly (odd exponents) and "
        "lies strictly inside (1/4, 1/2] (even exponents), so the "
        "per-seed oscillation is provably < 0.25 for every seed.")


def test_criterion_05_renewal_exactness():
    n_max = 10 ** 4
    geo = rn.renewal_sequence(rn.Geometric(0.5), n_max)
    geo_err = float(np.max(np.abs(geo.u[1:] - 0.5)))
    worst = 0.0
    for f in SHIPPED_DISTRIBUTIONS:
        seq = rn.renewal_sequence(f, n_max)
        tails = f.tail(np.arange(1, n_max + 2, dtype=np.int64))
        mass = np.zeros(n_max + 1)
        mass[1:] = tails[:-1] - tails[1:]
        for n in range(1, n_max + 1):
            resid = abs(seq.u[n] - float(np.dot(mass[1:n + 1], seq.u[n - 1::-1])))
            if resid > worst:
                worst = resid
    ok = geo_err <= 1e-12 and worst <= 1e-12
    assert report(5, ok, f"geometric |u-0.5| = {geo_err:.2e}, worst convolution "
                         f"residual over {len(SHIPPED_DISTRIBUTIONS)} "
                         f"distributions = {worst:.2e}")


def test_criterion_06_scaling_inverse_contract():
    a = rn.truncated_mean_scaling(rn.PowerTail(1.0))
    b10 = rv.invert_scaling(a, 10)
    b = {y: rv.invert_scaling(a, y) for y in range(2, 1001)}
    bad = [y for y, t in b.items() if not (a(t) >= y > a(t - 1))]
    ok = b10 == 44 and not bad
    assert report(6, ok, f"b(10) = {b10}, inverse contract violations on "
                         f"y in 2..1000: {bad or 'none'}")


def test_criterion_07_queen_series():
    q2 = float(rn.queen_series(rn.Geometric(0.5), 2).partial_sums[1])
    q2_ok = abs(q2 - (1 + 1 / 9)) <= 1e-12
    bound_violations = 0
    for f in SHIPPED_DISTRIBUTIONS:
        qs = rn.queen_series(f, 10 ** 4)
        ns = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
        bound_violations += int(np.count_nonzero(qs.terms > 1.0 / ns ** 2))
    ok = q2_ok and bound_violations == 0
    assert report(7, ok, f"Q(2) = {q2!r}, majorization violations: "
                         f"{bound_violations}")


def test_criterion_08_translation_density():
    start = time.perf_counter()
    action = lt.TranslationAction(alpha=PHI, x=0.3)
    res = lt.translate_counts(action, 10 ** 6)
    density_err = abs(res.ratio - 1 / PHI)
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(20):
        alpha = rng.uniform(-3, 3)
        x = rng.uniform(0, 1)
        n_box = int(rng.integers(1, 201))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            act = lt.TranslationAction(alpha=alpha, x=x)
        fast = lt.translate_counts(act, n_box).count
        ks = np.arange(-n_box, n_box + 1, dtype=np.float64)
        vals = (x + ks[:, None] * alpha) + ks[None, :]
        if fast != int(np.count_nonzero((vals >= 0.0) & (vals < 1.0))):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = density_err <= 0.01 and mismatches == 0 and elapsed < 60.0
    assert report(8, ok, f"|ratio - 1/phi| = {density_err:.2e} at N=1e6, "
                         f"{mismatches} brute-force mismatches, {elapsed:.1f}s")


def test_criterion_09_walk_counts():
    start = time.perf_counter()
    g = rn.Geometric(0.5)
    n_box = 10 ** 6
    a_u = float(rn.renewal_sequence(g, n_box).a_u[n_box])
    counts, ratios = [], []
    identity_failures = 0
    for i in range(50):
        walk = lt.walk_sample(g, spawn(2, i), J=n_box)
        count = lt.walk_counts(walk, n_box)
        # direct box scan equals the interarrival count, exactly
        s_vals = np.concatenate([-walk.s_backward_mag[:n_box][::-1],
                                 [0], walk.s_forward[:n_box]])
        direct = int(np.count_nonzero(np.abs(s_vals) <= n_box))
        if direct != count:
            identity_failures += 1
        counts.append(count)
        ratios.append(count / a_u)
    mean_density = float(np.mean(counts)) / (2 * n_box + 1)
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - start
    ok = (identity_failures == 0
          and abs(mean_density - 0.5) <= 0.025
          and 1.8 <= mean_ratio <= 2.2
          and elapsed < 120.0)
    assert report(9, ok, f"identity failures {identity_failures}, mean density "
                         f"{mean_density:.4f}, mean renewal ratio "
                         f"{mean_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_10_trimmed_sums():
    res = rn.trimmed_sum_trials(rn.PowerTail(1.0), 10 ** 5, 200, seed=1)
    dev = abs(res.mean - 1.0)
    ok = dev <= 0.15
    report(10, ok, f"trial mean {res.mean:.4f}, |mean - 1| = {dev:.4f} "
                   f"(tolerance 0.15)")
    assert ok, (
        f"trial mean {res.mean:.4f} deviates {dev:.4f} from 1. The "
        "normalized trimmed sum approaches 1 only at rate "
        "~ln(n)/ln(b(n)); its exact expectation at n = 1e5 is 0.789 "
        "(semi-analytic evaluation of E[sum - max]/b), so the 0.15 "
        "tolerance cannot be met at this horizon for any seed.")


def test_criterion_11_extended_regular_variation_band():
    n_lo, n_hi = 2 ** 10, 2 ** 20
    p_values = (2, 4, 8)
    seq = rn.renewal_sequence(rn.Geometric(0.5), p_values[-1] * n_hi)
    m_geo = rv.er_diagnostic(seq.as_scaling(), p_values, n_lo, n_hi).m_hat
    tm = rn.truncated_mean_scaling(rn.PowerTail(1.0))
    m_harm = rv.er_diagnostic(tm, p_values, n_lo, n_hi).m_hat
    ok = m_geo <= 1.2 and m_harm <= 1.2
    report(11, ok, f"M_hat geometric a_u = {m_geo:.12f}, "
                   f"M_hat n/H_n = {m_harm:.6f} (band 1.2)")
    assert ok, (
        f"M_hat for n/H_n over [2^10, 2^20] is {m_harm:.6f} > 1.2: the "
        "largest deviation sits at the table corner (p=8, n=2^10) where "
        "H(2^13)/H(2^10) = 1.276863; the band only tightens under 1.2 "
        "from n = 2^15 upward (H(2^18)/H(2^15) = 1.189482).")


def test_criterion_12_reproducibility(tmp_path):
    base = ["walk", "--dist", "geometric:0.5", "--N", "20000", "--seeds", "5",
            "--seed", "7"]
    outs = []
    for name, extra in (("a", ["--threads", "1"]), ("b", ["--threads", "1"]),
                        ("c", ["--threads", "4"])):
        out = tmp_path / name
        assert cli.main([*base, *extra, "--out", str(out)]) == 0
        outs.append((out / "walk.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    assert report(12, ok, "rerun and thread-count invariance of data rows: "
                          f"{'byte-identical' if ok else 'MISMATCH'}")
