"""Tower construction, symbolic words, lazy window counting."""

import csv
import itertools
import json
import math
import tracemalloc
import warnings
from bisect import bisect_right
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import cli
from ergosum import rankone as rk
from ergosum.birkhoff import normalized_stats
from ergosum.errors import (
    ConfigError,
    InvariantViolationError,
    ResourceLimitError,
)
from ergosum.streams import spawn


@pytest.fixture(scope="module")
def presets():
    return {name: rk.load_preset(name) for name in rk.PRESETS}


# -- construction data -------------------------------------------------------


def test_preset_roundtrip(presets):
    for data in presets.values():
        doc = {"stages": [{"c": st.c, "spacers": list(st.spacers)} for st in data.stages],
               "repeat_from": data.repeat_from, "name": data.name}
        assert rk.ConstructionData.from_json(json.dumps(doc)) == data


def test_stage_validation():
    with pytest.raises(ConfigError):
        rk.Stage(1, (0,))
    with pytest.raises(ConfigError):
        rk.Stage(2, (0,))
    with pytest.raises(ConfigError):
        rk.Stage(2, (0, -1))
    with pytest.raises(ConfigError):
        rk.ConstructionData((rk.Stage(2, (0, 0)),), repeat_from=5)


def test_finite_data_exhausts():
    data = rk.ConstructionData((rk.Stage(2, (0, 0)),), repeat_from=None)
    with pytest.raises(ConfigError,
                       match="^construction custom lists 1 stage without"):
        rk.Tower(data).q(5)
    named = rk.ConstructionData(data.stages * 2, name="two")
    with pytest.raises(ConfigError, match="^construction two lists 2 stages "):
        rk.Tower(named).q(5)


def test_repeating_suffix_cycles():
    data = rk.ConstructionData(
        (rk.Stage(2, (0, 0)), rk.Stage(3, (1, 0, 0)), rk.Stage(2, (0, 1))),
        repeat_from=1)
    assert data.stage(1).c == 2
    assert data.stage(2).c == 3
    assert data.stage(3).c == 2
    assert data.stage(4).c == 3
    assert data.stage(5).c == 2


# -- tower heights and cut products ----------------------------------------------


def _heights_and_cuts(data, n_max):
    """[q_1..q_{n_max}] and [C_1..C_{n_max}] from the stage data alone.

    q_{n+1} = c_n q_n + the stage-n spacers, a "2q" entry counting 2 q_n,
    and C_n = c_1 ... c_n; no tower is built.
    """
    q = [1]
    for n in range(1, n_max):
        stage = data.stage(n)
        q.append(stage.c * q[-1] + sum(2 * q[-1] if s == rk.SPACER_TOKEN else s
                                       for s in stage.spacers))
    return q, list(accumulate((data.stage(n).c for n in range(1, n_max + 1)), mul))


def _tower_heights_and_cuts(data, n_max):
    """The same lists as read from a tower: its heights, and C_n = a(q_n)."""
    tower = rk.Tower(data)
    scaling = rk.rank_one_scaling(tower)
    q = [tower.q(n) for n in range(1, n_max + 1)]
    return q, [scaling(h) for h in q]


def test_tower_stats_odometer(presets):
    q, C = _tower_heights_and_cuts(presets["odometer"], 4)
    assert q == [1, 2, 4, 8]
    assert C == [2, 4, 8, 16]


def test_tower_stats_chacon(presets):
    q, C = _tower_heights_and_cuts(presets["chacon"], 4)
    assert q == [1, 4, 13, 40]
    assert C == [3, 9, 27, 81]


def test_tower_stats_heavy2q(presets):
    q, C = _tower_heights_and_cuts(presets["heavy2q"], 3)
    assert q == [1, 4, 16]
    assert C == [2, 4, 8]


def test_tower_recursion_deep(presets):
    for data in presets.values():
        q, C = _heights_and_cuts(data, 64)
        assert _tower_heights_and_cuts(data, 64) == (q, C)
        tower = rk.Tower(data)
        tower.ensure_stage(63)
        for n in range(1, 64):
            # copy k of B_n starts after k copies and the first k spacer runs
            row = [2 * q[n - 1] if s == rk.SPACER_TOKEN else s for s in data.stage(n).spacers]
            assert tower._starts[n - 1] == tuple(k * q[n - 1] + sum(row[:k])
                                                 for k in range(len(row)))
        assert all(b > a for a, b in zip(C, C[1:]))


@given(st.lists(st.tuples(st.integers(2, 4),
                          st.lists(st.integers(0, 3), min_size=4, max_size=4)),
                min_size=1, max_size=4))
def test_tower_recursion_random(stage_specs):
    stages = tuple(rk.Stage(c, tuple(sp[:c])) for c, sp in stage_specs)
    data = rk.ConstructionData(stages, repeat_from=0)
    tower_q, tower_C = _tower_heights_and_cuts(data, 8)
    q = 1
    cut = 1
    for n in range(1, 9):
        st_n = data.stage(n)
        assert tower_q[n - 1] == q
        cut *= st_n.c
        assert tower_C[n - 1] == cut
        q = st_n.c * q + sum(st_n.spacers)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 4),
                          st.lists(st.sampled_from((0, 1, 2, rk.SPACER_TOKEN)),
                                   min_size=4, max_size=4)),
                min_size=1, max_size=3))
def test_prefix_count_every_index(stage_specs):
    # every block start, block end and spacer interior of each level word
    stages = tuple(rk.Stage(c, tuple(sp[:c])) for c, sp in stage_specs)
    data = rk.ConstructionData(stages, repeat_from=0)
    tower = rk.Tower(data)
    level = 1
    while tower.q(level) <= 2000:
        word = rk.expand_word(data, level).symbols
        want = [0, *np.cumsum(word, dtype=np.int64).tolist()]
        assert tower.prefix_counts(range(tower.q(level) + 1)).tolist() == want
        level += 1
    with pytest.raises(ConfigError, match="prefix index -1 is negative"):
        tower.prefix_counts([-1])


def _scalar_prefix(tower, level, j):
    """The one-position descent, one bisection per level, in Python ints."""
    def bases(lev):
        return math.prod(len(tower._starts[m - 1]) for m in range(1, lev))

    total = 0
    while j > 0:
        if j >= tower.q(level):
            return total + bases(level)
        level -= 1
        row = tower._starts[level - 1]
        k = bisect_right(row, j) - 1
        total += k * bases(level)
        j -= row[k]
    return total


def _scalar_prefixes(tower, positions):
    """_scalar_prefix of each position, from the lowest level that holds it."""
    return [_scalar_prefix(tower, next(lev for lev in range(1, 200) if tower.q(lev) >= j), j)
            for j in positions]


def _scalar_series(data, seed, cps):
    """(s_plus, s_minus, sigma) per checkpoint, from scalar descents on a fresh tower."""
    sampler = rk.NameSampler(rk.Tower(data), seed)
    rows = []
    for n in cps:
        off = sampler.center_offset(sampler.ensure_window(n))
        start, before, after, end = _scalar_prefixes(
            sampler.tower, (off - n, off, off + 1, off + n + 1))
        assert after - before == 1
        rows.append((end - before, after - start, end - start))
    return rows


def _series(samplers, cps):
    """(s_plus, s_minus, sigma) per checkpoint of each sampler, from one descent."""
    counts = rk.ensemble_window_counts(samplers, cps).transpose(1, 0, 2).tolist()
    return [[(sp, sm, sm + sp - 1) for sm, sp in rows] for rows in counts]


def _counted(samplers, radius, **kwargs):
    """(s_minus, s_plus) of each sampler at one radius, a grid of one."""
    (row,) = rk.ensemble_window_counts(samplers, [radius], **kwargs).tolist()
    return [tuple(w) for w in row]


def test_prefix_counts_hand_off_past_int64(presets):
    # heavy2q out to 2^60: levels reach q ~ 2^73 and the int64 descent
    # starts at most from q_31 = 2^60, so the widest windows start in
    # Python ints and finish in the int64 descent
    data = presets["heavy2q"]
    cps = tuple(2 ** e for e in range(10, 61))
    tower = rk.Tower(data)
    ensemble = _series([rk.NameSampler(tower, spawn(23, i)) for i in range(20)], cps)
    for i, rows in enumerate(ensemble):
        assert rows == _scalar_series(data, spawn(23, i), cps)
    assert tower._top() == tower.q(31) == 2 ** 60 and tower.q(32) >= 2 ** 62
    # around 2^62 and 2^63, and the whole word
    level = next(lev for lev in range(1, 80) if tower.q(lev) > 2 ** 63)
    positions = [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 2 ** 63, tower.q(level) - 1,
                 tower.q(level)]
    assert tower.prefix_counts(positions).tolist() == [
        _scalar_prefix(tower, level, j) for j in positions]


C3 = {"stages": [{"c": 3, "spacers": [0, 0, "2q"]}], "repeat_from": 0}


def test_prefix_counts_in_spacer_run_past_int64():
    # q_n = 5^(n-1): the position lies in the spacer run after the third
    # copy of B_27, 2*10^18 past its start, and covers that whole copy
    tower = rk.Tower(rk.ConstructionData.from_dict(C3))
    j = 2 * tower.q(27) + 2 * 10 ** 18
    assert j >= 2 ** 62 and j - 2 * tower.q(27) > tower.q(27)
    assert tower.prefix_counts([j]).tolist() == [3 * 3 ** 26] == [_scalar_prefix(tower, 28, j)]
    assert tower._top() == tower.q(27) and tower.q(28) >= 2 ** 62


def test_rank_one_c3_past_int64(tmp_path):
    data_file = tmp_path / "c3.json"
    data_file.write_text(json.dumps(C3))
    out = tmp_path / "out"
    cps = tuple(2 ** e for e in range(40, 62))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(["rank-one", "--data", str(data_file), "--seeds", "10",
                         "--checkpoints", "dyadic:40:61", "--burn-in", "1",
                         "--seed", "7", "--out", str(out)])
    assert code == 0
    data = rk.ConstructionData.from_dict(C3)
    for i in (0, 4, 9):
        with open(out / f"series_{i:03d}.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        got = [(int(r["s_plus"]), int(r["s_minus"]), int(r["sigma"])) for r in rows]
        assert got == _scalar_series(data, spawn(7, i), cps)


def test_prefix_counts_without_table():
    # the first stage already passes 2^62: the int64 descent holds only level 1
    data = rk.ConstructionData.from_dict(
        {"stages": [{"c": 2, "spacers": [0, 2 ** 63]}], "repeat_from": 0})
    tower = rk.Tower(data)
    positions = [0, 1, 2, 3, 2 ** 63, 2 ** 63 + 2, 2 ** 64 + 5]
    assert tower.prefix_counts(positions).tolist() == [0, 1, 2, 2, 2, 2, 4]
    assert tower._top() == tower.q(1) == 1 and tower.q(2) >= 2 ** 62
    assert _scalar_prefixes(tower, positions) == [0, 1, 2, 2, 2, 2, 4]
    cps = (1, 2, 10, 2 ** 40)
    ensemble = _series([rk.NameSampler(tower, spawn(3, i)) for i in range(5)], cps)
    for i, rows in enumerate(ensemble):
        assert rows == _scalar_series(data, spawn(3, i), cps)


def test_window_counts_at_top_level_of_finite_construction():
    # two listed stages and no repeat: B_3 = BBsBB, q_3 = 5.  A radius-1
    # window embedded at level 3 reaches q_3, and counting it must not
    # ask for stage 3
    data = rk.ConstructionData.from_dict(
        {"stages": [{"c": 2, "spacers": [0, 0]}, {"c": 2, "spacers": [1, 0]}]})
    tower = rk.Tower(data)
    samplers = [rk.NameSampler(tower, 0, choices=c) for c in ([2, 1], [1, 2])]
    windows = _counted(samplers, 1)
    assert windows == [(2, 1), (1, 2)]
    for sampler, w in zip(samplers, windows):
        assert sampler.level == 3
        off = sampler.center_offset()
        start, before, after, end = _scalar_prefixes(tower, (off - 1, off, off + 1, off + 2))
        assert after - before == 1 and w == (after - start, end - before)
    assert tower._top() == tower.q(3) == 5


@settings(max_examples=40, deadline=None)
@given(stage_specs=st.lists(st.tuples(st.integers(2, 4),
                                      st.lists(st.sampled_from((0, 1, 2, rk.SPACER_TOKEN)),
                                               min_size=4, max_size=4)),
                            min_size=1, max_size=3),
       repeating=st.booleans(), data=st.data(),
       seeds=st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=3))
def test_grid_oracle_random_constructions(stage_specs, repeating, data, seeds):
    # a whole grid, sorted or shuffled, counted in one descent on a shared
    # tower gives the scalar descents of each seed on a fresh tower.  A
    # finite construction draws radii up to a quarter of its top height,
    # and fails to embed a window in both or in neither
    stages = tuple(rk.Stage(c, tuple(sp[:c])) for c, sp in stage_specs)
    construction = rk.ConstructionData(stages, repeat_from=0 if repeating else None)
    radius = (st.one_of(st.integers(0, 100), st.integers(0, 2 ** 62)) if repeating
              else st.integers(0, rk.Tower(construction).q(len(stages) + 1) // 4))
    radii = data.draw(st.lists(radius, min_size=1, max_size=8, unique=True))
    if data.draw(st.booleans()):
        radii.sort()
    else:
        data.draw(st.randoms(use_true_random=False)).shuffle(radii)
    want = []
    for seed in seeds:
        try:
            want.append(_scalar_series(construction, seed, radii))
        except ConfigError:
            assert not repeating
            with pytest.raises(ConfigError, match="is undefined"):
                _grid_rows(construction, seeds, radii)
            return
    assert _grid_rows(construction, seeds, radii) == want


def _grid_rows(data, seeds, radii):
    """(s_plus, s_minus, sigma) of each seed at each radius, from one grid on one tower."""
    tower = rk.Tower(data)
    counts = rk.ensemble_window_counts([rk.NameSampler(tower, s) for s in seeds], radii)
    return [[(sp, sm, sp + sm - 1) for sm, sp in column]
            for column in counts.transpose(1, 0, 2).tolist()]


@pytest.mark.parametrize("name", ["chacon", "heavy2q"])
def test_grid_straddles_int64_top_in_one_descent(presets, name, monkeypatch):
    # dyadic:50:62 in one descent: some window ends pass the highest height
    # below 2^62 and hand off from Python ints, others start under it
    data = presets[name]
    cps = tuple(2 ** e for e in range(50, 63))
    tower = rk.Tower(data)
    calls = []
    descend, hand_off = tower.prefix_counts, tower._descend_wide

    def spy(positions):
        calls.append([int(j) for j in positions])
        return descend(positions)

    handed = []
    monkeypatch.setattr(tower, "prefix_counts", spy)
    monkeypatch.setattr(tower, "_descend_wide",
                        lambda j, top: handed.append(j) or hand_off(j, top))
    ensemble = _series([rk.NameSampler(tower, spawn(29, i)) for i in range(6)], cps)
    for i, rows in enumerate(ensemble):
        assert rows == _scalar_series(data, spawn(29, i), cps)
    (positions,) = calls
    top = tower._top()
    assert 0 < len(handed) < len(positions)
    assert sorted(handed) == sorted(j for j in positions if j > top)
    assert max(positions) >= 2 ** 63 and min(positions) < top


# -- words ---------------------------------------------------------------------


def _letters(data, level):
    """The level word as a string, B for base and s for spacer."""
    return "".join("B" if x else "s" for x in rk.expand_word(data, level).symbols)


def test_expand_word_examples(presets):
    assert _letters(presets["odometer"], 3) == "BBBB"
    assert _letters(presets["chacon"], 3) == "BBsBBBsBsBBsB"
    w = rk.expand_word(presets["chacon"], 3).symbols
    assert len(w) == 13
    assert int(w.sum()) == 9
    assert _letters(presets["heavy2q"], 2) == "BBss"
    assert _letters(presets["odometer"], 1) == "B"


def test_word_structural_identities(presets):
    # |B_n| = q_n and base-count(B_n) = C_{n-1}, up to q_n <= 1e5
    for data in presets.values():
        q, C = _heights_and_cuts(data, 24)
        for n in range(1, 25):
            if q[n - 1] > 10 ** 5:
                break
            w = rk.expand_word(data, n).symbols
            assert len(w) == q[n - 1]
            assert int(w.sum()) == (1 if n == 1 else C[n - 2])


def test_expand_budget_error(presets):
    with pytest.raises(ResourceLimitError,  # q_10 = 512 named in the error
                       match="^level 10 word has q_10 = 512 symbols, "
                             "exceeding the expansion budget 100$"):
        rk.expand_word(presets["odometer"], 10, budget=100)


# -- samplers -------------------------------------------------------------------


def test_sample_name_forced_chacon(presets):
    s = rk.NameSampler(rk.Tower(presets["chacon"]), 0, choices=[3])
    s.ensure_level(2)
    assert s.center_offset(2) == 3
    w = rk.expand_word(presets["chacon"], 2)
    assert w.symbols[3] == rk.BASE


def test_sample_name_forced_heavy2q(presets):
    s = rk.NameSampler(rk.Tower(presets["heavy2q"]), 0, choices=[1])
    s.ensure_level(2)
    assert s.center_offset(2) == 0


def test_sampler_deterministic(presets):
    # two samplers of one seed on one tower, one of them counted earlier at
    # a smaller radius, draw the same columns: the same centre at every level
    tower = rk.Tower(presets["chacon"])
    a, b = rk.NameSampler(tower, 42), rk.NameSampler(tower, 42)
    _counted([b], 10)
    wa, wb = _counted([a, b], 1000)
    assert wa == wb and a.level == b.level
    assert ([a.center_offset(lev) for lev in range(1, a.level + 1)]
            == [b.center_offset(lev) for lev in range(1, b.level + 1)])


def test_forced_choice_validation(presets):
    s = rk.NameSampler(rk.Tower(presets["odometer"]), 0, choices=[5])
    with pytest.raises(ConfigError):
        s.ensure_level(2)


def test_samplers_share_one_tower(presets):
    # samplers on one tower, taking turns to extend it, give the scalar
    # descents of the same seeds on fresh towers
    cps = tuple(2 ** e for e in range(0, 41, 3))
    for data in presets.values():
        tower = rk.Tower(data)
        samplers = [rk.NameSampler(tower, spawn(19, i)) for i in range(4)]
        rows = [[] for _ in samplers]
        for step, n in enumerate(cps):
            # a different sampler goes first at each checkpoint
            order = [(step + k) % len(samplers) for k in range(len(samplers))]
            windows = _counted([samplers[k] for k in order], n)
            for k, w in zip(order, windows):
                rows[k].append(w)
        for i, got in enumerate(rows):
            assert got == [(sm, sp) for sp, sm, _ in _scalar_series(data, spawn(19, i), cps)]


@pytest.mark.parametrize("c", [2, 3, 5, 7, 40, 2 ** 31 + 11])
def test_choice_rule_is_generator_integers(c):
    # call by call, the rule on the stream's words draws what
    # Generator.integers draws; at c = 2^31 + 11 nearly half the words are
    # rejected, low and high halves alike
    draws = 10 ** 4
    for i in range(3):
        rng = spawn(7, i)
        read = itertools.count()  # its next value is the number of words read
        words = (w for w, _ in zip(rk._stream_words(spawn(7, i).bit_generator), read))
        assert ([rk._choose(c, words) for _ in range(draws)]
                == [int(rng.integers(1, c + 1)) for _ in range(draws)])
        if c > 2 ** 31:
            assert next(read) > 1.5 * draws


def test_choice_rule_rejects_into_the_next_half_word(presets):
    # at c = 3 only the zero word is rejected ((2^32 - 3) mod 3 = 1): the
    # draw moves on to the next 32-bit word, the stream's next half output
    words = iter([0, 2 ** 32 - 1, 7])
    assert rk._choose(3, words) == 3 and next(words) == 7
    assert rk._choose(3, iter([1])) == 1
    # 3 * 0xAAAAAAAB = 2^33 + 1: the threshold itself is accepted
    assert rk._choose(3, iter([0xAAAAAAAB])) == 3
    sampler = rk.NameSampler(rk.Tower(presets["chacon"]), 0)
    sampler._words = iter([0, 2 ** 31, 0, 0, 2 ** 32 - 1])
    sampler.ensure_level(3)
    # chacon's stage starts are (0, q + 0, 2q + 1): k = 2 at level 1, then 3
    assert [sampler.center_offset(lev) for lev in (1, 2, 3)] == [0, 1, 1 + 2 * 4 + 1]


@pytest.mark.parametrize("block", [1, 64])
def test_rows_do_not_depend_on_the_raw_block(presets, monkeypatch, block):
    cps = tuple(2 ** e for e in range(0, 41, 4))

    def rows():
        out = []
        for name in ("chacon", "heavy2q"):
            tower = rk.Tower(presets[name])
            out.append(rk.ensemble_window_counts(
                [rk.NameSampler(tower, spawn(5, i)) for i in range(6)], cps).tolist())
        return out

    want = rows()
    monkeypatch.setattr(rk, "_RAW_BLOCK", block)
    assert rows() == want


def test_names_come_from_pcg64_streams(presets):
    with pytest.raises(TypeError, match="MT19937"):
        rk.NameSampler(rk.Tower(presets["chacon"]),
                       np.random.Generator(np.random.MT19937(1)))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(("chacon", "heavy2q")),
       exponents=st.lists(st.integers(0, 62), min_size=1, max_size=6, unique=True),
       seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3),
       order=st.randoms(use_true_random=False))
def test_window_counts_do_not_depend_on_counting_order(presets, name, exponents,
                                                       seeds, order):
    # samplers sharing a tower count a grid of checkpoints of dyadic:0:62 in
    # a random order: a window embedded after wider ones fits at once at a
    # higher level, and its counts are those of the scalar descents, radius by
    # radius, on a fresh tower (as perfbench's output check replays them)
    data = presets[name]
    cps = sorted(2 ** e for e in exponents)
    tower = rk.Tower(data)
    samplers = [rk.NameSampler(tower, seed) for seed in seeds]
    shuffled = list(cps)
    order.shuffle(shuffled)
    got = dict(zip(shuffled, rk.ensemble_window_counts(samplers, shuffled).tolist()))
    for i, seed in enumerate(seeds):
        assert [tuple(got[n][i]) for n in cps] == [
            (sm, sp) for sp, sm, _ in _scalar_series(data, seed, cps)]


def test_center_symbol_is_base_every_level(presets):
    for data in presets.values():
        s = rk.NameSampler(rk.Tower(data), 9)
        s.ensure_level(8)
        offsets = [s.center_offset(level) + d for level in range(1, 9) for d in (0, 1)]
        counts = s.tower.prefix_counts(offsets)
        assert [b - a for a, b in zip(counts[::2], counts[1::2])] == [1] * 8


def test_center_invariant_checked_for_every_sampler(presets):
    # chacon's level-3 word is BBsBBBsBsBBsB; samplers 1 and 2 get spacer
    # centres there, and the first of them in sampler order is named
    tower = rk.Tower(presets["chacon"])
    samplers = [rk.NameSampler(tower, spawn(3, i)) for i in range(3)]
    for sampler in samplers:
        sampler.ensure_level(3)
    samplers[1]._offsets[2] = 2
    samplers[2]._offsets[2] = 6
    with pytest.raises(InvariantViolationError, match="at level 3 offset 2 is not base"):
        rk.ensemble_window_counts(samplers, [1])


def test_center_invariant_names_the_first_failing_window_of_a_grid(presets):
    # every window of the grid embeds before the check, which runs radius by
    # radius and sampler by sampler: the first failing pair is named
    for grid in ([2, 1], [1, 2, 3]):
        tower = rk.Tower(presets["chacon"])
        samplers = [rk.NameSampler(tower, spawn(3, i)) for i in range(3)]
        for sampler in samplers:
            sampler.ensure_level(3)
        samplers[1]._offsets[2] = 2
        samplers[2]._offsets[2] = 6
        with pytest.raises(InvariantViolationError,
                           match="^center symbol at level 3 offset 2 is not base$"):
            rk.ensemble_window_counts(samplers, grid)


# -- window counting -------------------------------------------------------------


def _windows(data, seeds, radius):
    """Window counts of the seeds' names, counted together on one tower."""
    tower = rk.Tower(data)
    return _counted([rk.NameSampler(tower, s) for s in seeds], radius)


def test_window_counts_trivia(presets):
    # (s_minus, s_plus): the centre counts on both sides
    assert _windows(presets["odometer"], range(3), 8) == [(9, 9)] * 3
    for data in presets.values():
        assert _windows(data, range(3), 0) == [(1, 1)] * 3


def test_window_counts_chacon_bracket(presets):
    for s_minus, s_plus in _windows(presets["chacon"], range(10), 13):
        assert 9 <= s_minus + s_plus - 1 <= 27


def test_bracketing_all_presets(presets):
    # window of radius q_n contains a full level-n word and meets at most 3
    for data in presets.values():
        q, C = _heights_and_cuts(data, 7)
        tower = rk.Tower(data)
        samplers = [rk.NameSampler(tower, spawn(11, seed)) for seed in range(5)]
        for n in range(2, 8):
            c_prev = C[n - 2]
            for s_minus, s_plus in _counted(samplers, q[n - 1]):
                assert c_prev <= s_minus + s_plus - 1 <= 3 * c_prev


def test_window_oracle_equivalence(presets):
    # lazy counts equal brute-force counts on materialized words, exactly;
    # the names of each preset share one tower
    rng = np.random.default_rng(12345)
    names = list(rk.PRESETS)
    towers = {name: rk.Tower(presets[name]) for name in names}
    checked = 0
    resamples = 0
    while checked < 100:
        name = names[checked % 3]
        radius = int(rng.integers(0, 2000))
        seed = int(rng.integers(0, 2 ** 32))
        s = rk.NameSampler(towers[name], seed)
        level = s.ensure_window(radius)
        if s.tower.q(level) > 10 ** 6:
            resamples += 1
            assert resamples < 50
            continue
        word = rk.expand_word(presets[name], level, budget=10 ** 6).symbols
        off = s.center_offset(level)
        (w,) = _counted([s], radius)
        assert w == (int(word[off - radius:off + 1].sum()),
                     int(word[off:off + radius + 1].sum()))
        assert word[off] == rk.BASE
        checked += 1


def test_depth_cap(presets):
    s = rk.NameSampler(rk.Tower(presets["odometer"]), 0, choices=[1] * 50)
    with pytest.raises(ResourceLimitError,
                       match=r"^window of radius 4 did not embed within 30 levels "
                             r"\(residual probability <= 2\*\*\(1-30\)\)$"):
        _counted([s], 4, depth_cap=30)


def test_depth_cap_of_a_later_radius(presets, monkeypatch):
    # the whole grid embeds before any descent: radius 0 embeds at level 1,
    # radius 4 raises its own depth-cap error, and nothing is counted
    tower = rk.Tower(presets["odometer"])
    samplers = [rk.NameSampler(tower, 0, choices=[1] * 50), rk.NameSampler(tower, 1)]
    monkeypatch.setattr(tower, "prefix_counts", lambda positions: pytest.fail("counted"))
    with pytest.raises(ResourceLimitError,
                       match=r"^window of radius 4 did not embed within 30 levels "
                             r"\(residual probability <= 2\*\*\(1-30\)\)$"):
        rk.ensemble_window_counts(samplers, [0, 4], depth_cap=30)
    assert samplers[0].level == 30 and samplers[1].level == 1


# tracemalloc peak, in bytes, of counting chacon's windows, 400 seeds,
# dyadic:10:40, with one prefix descent per checkpoint
_PEAK_PER_CHECKPOINT = 3_326_692


def test_series_memory_peak(presets):
    # the grid's positions and counts are int64 arrays, and the ratios are
    # divided one checkpoint row at a time; counting and the statistics
    # together stay within 10% of the checkpoint-by-checkpoint descents
    cps = tuple(2 ** e for e in range(10, 41))

    def peak(seeds):
        tower = rk.Tower(presets["chacon"])
        scaling = rk.rank_one_scaling(tower)
        samplers = [rk.NameSampler(tower, spawn(1, i)) for i in range(seeds)]
        tracemalloc.start()
        try:
            counts = rk.ensemble_window_counts(samplers, cps)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                normalized_stats(counts, cps, scaling, burn_in=cps[0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # the first run also holds one-time allocations of NumPy
    assert peak(400) <= 1.1 * _PEAK_PER_CHECKPOINT


# -- scaling ----------------------------------------------------------------------


def test_rank_one_scaling_values(presets):
    sc = rk.rank_one_scaling(rk.Tower(presets["heavy2q"]))
    assert sc(5) == 4
    assert sc(1) == 2
    sco = rk.rank_one_scaling(rk.Tower(presets["odometer"]))
    assert [sco(2 ** (v - 1)) for v in range(1, 11)] == [2 ** v for v in range(1, 11)]
    scc = rk.rank_one_scaling(rk.Tower(presets["chacon"]))
    assert scc(1) == 3


def test_rank_one_scaling_monotone_step(presets):
    for data in presets.values():
        sc = rk.rank_one_scaling(rk.Tower(data))
        values = [sc(n) for n in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        q, C = _heights_and_cuts(data, 64)
        levels = [nu for nu in range(1, 64) if q[nu] <= 2 ** 62]
        assert len(levels) >= 31  # heavy2q, the fastest-growing preset, has 31
        for nu in levels:
            # right-continuous step: jumps exactly at the tower heights
            assert sc(q[nu - 1]) == C[nu - 1]
            assert sc(q[nu] - 1) == C[nu - 1]
            assert sc(q[nu]) == C[nu]


def test_scaling_sandwich(presets):
    # bounded cuts: sigma_n / a(n) within [1/(2J), 3J]
    for data in presets.values():
        max_c = max(stage.c for stage in data.stages)
        tower = rk.Tower(data)  # shared, as in a rank-one run
        sc = rk.rank_one_scaling(tower)
        cps = (3, 10, 50, 211, 1024, 5000)
        (rows,) = _series([rk.NameSampler(tower, 77)], cps)
        for n, (_, _, sigma) in zip(cps, rows):
            ratio = sigma / sc(n)
            assert 1 / (2 * max_c) <= ratio <= 3 * max_c


# -- hypothesis: counting on random small constructions -------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_window_oracle_random_constructions(data_strategy):
    c = data_strategy.draw(st.integers(2, 4))
    spacers = tuple(data_strategy.draw(
        st.lists(st.integers(0, 2), min_size=c, max_size=c)))
    seeds = data_strategy.draw(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=4))
    radius = data_strategy.draw(st.integers(0, 200))
    data = rk.ConstructionData((rk.Stage(c, spacers),), repeat_from=0)
    tower = rk.Tower(data)
    samplers = [rk.NameSampler(tower, seed) for seed in seeds]
    for s, w in zip(samplers, _counted(samplers, radius)):
        level = s.ensure_window(radius)
        if tower.q(level) > 10 ** 5:
            continue
        word = rk.expand_word(data, level, budget=10 ** 5).symbols
        off = s.center_offset(level)
        assert w == (int(word[off - radius:off + 1].sum()),
                     int(word[off:off + radius + 1].sum()))
