"""CLI: configs, outputs, provenance, reproducibility, exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergosum
from ergosum import cli, lattice, rankone, renewal
from ergosum.errors import InvariantViolationError, PrecisionWarning
from ergosum.streams import spawn


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, out


def read_table(path):
    with open(path) as fh:
        lines = fh.readlines()
    header = [line for line in lines if line.startswith("# ")]
    rows = [line for line in lines if not line.startswith("# ")]
    return header, list(csv.DictReader(rows))


# -- spec command examples -------------------------------------------------------


def test_rank_one_radius_example(tmp_path):
    with pytest.warns(UserWarning, match="beta_lower_hat"):
        code, out = run_cli(["rank-one", "--preset", "chacon", "--checkpoints", "13",
                             "--seeds", "1"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "series_000.csv")
    assert len(rows) == 1
    assert rows[0]["n"] == "13"
    assert 9 <= int(rows[0]["sigma"]) <= 27
    assert (out / "summary.csv").exists()


def test_default_burn_in_gives_way_to_a_short_grid(tmp_path):
    # no checkpoint reaches the default 4096: the first one serves, and
    # 4096 given is the default, as the config hash reads it
    summaries = []
    for i, extra in enumerate(([], ["--burn-in", "13"], ["--burn-in", "4096"])):
        with pytest.warns(UserWarning, match="beta_lower_hat"):
            code, out = run_cli(["rank-one", "--preset", "chacon", "--checkpoints", "13",
                                 "--seeds", "2", *extra], tmp_path, f"b{i}")
        assert code == 0
        summaries.append(read_table(out / "summary.csv")[1])
    assert summaries[0] == summaries[1] == summaries[2]


@pytest.mark.parametrize("burn_in", ["4097", "100000000"])
def test_given_burn_in_past_every_checkpoint_exits(burn_in, tmp_path, capsys):
    code = cli.main(["rank-one", "--preset", "chacon", "--checkpoints", "dyadic:4:12",
                     "--burn-in", burn_in, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: no checkpoints at or past burn-in {burn_in}"]
    assert not (tmp_path / "out").exists()


def test_rank_one_run_builds_one_tower(tmp_path, monkeypatch):
    # the scaling and every seed's sampler share the run's tower
    built = []
    init = rankone.Tower.__init__

    def counted(self, data):
        built.append(data.name)
        init(self, data)

    monkeypatch.setattr(rankone.Tower, "__init__", counted)
    cfg = cli.ExperimentConfig(kind="rank-one", trials=5, out=str(tmp_path),
                               params={"preset": "heavy2q", "checkpoints": "dyadic:4:20",
                                       "burn_in": 16})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tables = cli.run_rank_one(cfg)
    assert built == ["heavy2q"]
    assert len(tables) == 6


def test_renewal_geometric_example(tmp_path):
    code, out = run_cli(["renewal", "--dist", "geometric:0.5", "--n", "10"],
                        tmp_path)
    assert code == 0
    _, rows = read_table(out / "renewal.csv")
    assert [r["u"] for r in rows[1:]] == ["0.5"] * 10


def test_renewal_far_delta(tmp_path):
    # the truncated mean of a finite support needs no table up to its atom
    code, out = run_cli(["renewal", "--dist", "delta:100000000000", "--n", "10"],
                        tmp_path)
    assert code == 0
    _, rows = read_table(out / "renewal.csv")
    assert [float(r["u"]) for r in rows] == [1.0] + [0.0] * 10


def test_translate_golden_example(tmp_path):
    code, out = run_cli(["translate", "--alpha", "golden", "--x", "0.3",
                         "--grid", "0"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "translate.csv")
    assert rows[0]["count"] == "1"


def test_translate_exact_flag_is_noop(tmp_path):
    # a float strip count misses orbit points on the window edge here
    args = ["translate", "--alpha=-2.2", "--beta=-0.3", "--x", "0.1",
            "--grid", "dyadic:0:3"]
    with pytest.warns(PrecisionWarning):
        assert run_cli(args, tmp_path, "plain")[0] == 0
    with pytest.warns(PrecisionWarning):
        assert run_cli([*args, "--exact"], tmp_path, "exact")[0] == 0
    _, plain = read_table(tmp_path / "plain" / "translate.csv")
    _, exact = read_table(tmp_path / "exact" / "translate.csv")
    assert plain == exact
    assert [r["count"] for r in plain] == ["2", "3", "4", "8"]


# -- other subcommands -----------------------------------------------------------


def test_queen_and_dyadic_tables(tmp_path):
    code, out = run_cli(["queen", "--dist", "geometric:0.5", "--n", "50"],
                        tmp_path, "q")
    assert code == 0
    _, rows = read_table(out / "queen.csv")
    assert float(rows[1]["Q"]) == pytest.approx(1 + 1 / 9, abs=1e-12)

    code, out = run_cli(["dyadic-tail", "--dist", "geometric:0.5", "--n", "8"],
                        tmp_path, "d")
    assert code == 0
    _, rows = read_table(out / "dyadic_tail.csv")
    assert rows[1]["b"] == "4"


def test_dyadic_tail_threshold_past_int64(tmp_path):
    # ceil(t b) reaches 1e30, past the atom: every tail term is exactly 0
    code, out = run_cli(["dyadic-tail", "--dist", "delta:2", "--n", "3",
                         "--t", "1e30"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "dyadic_tail.csv")
    assert int(rows[0]["threshold"]) >= 10 ** 30
    assert [r["term"] for r in rows] == ["0.0"] * 4


def test_trimmed_tables(tmp_path):
    code, out = run_cli(["trimmed", "--dist", "delta:1", "--n", "100",
                         "--trials", "4"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "trimmed.csv")
    assert [r["ratio"] for r in rows] == ["0.99"] * 4
    _, srows = read_table(out / "trimmed_summary.csv")
    assert srows[0]["b_n"] == "100"


def test_walk_table(tmp_path):
    code, out = run_cli(["walk", "--dist", "delta:1", "--N", "5",
                         "--seeds", "2"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "walk.csv")
    assert [r["count"] for r in rows] == ["11", "11"]
    assert [r["ratio"] for r in rows] == ["2.2", "2.2"]


def test_walk_reads_only_its_steps(tmp_path):
    # a heavy-tailed walk keeps, on each side, the steps whose partial sums
    # stay at or below N; test_walk_sample_far_atom_exact covers draws past
    # them whose sums pass int64
    n_box = 262144
    code, out = run_cli(["walk", "--dist", "power:0.5", "--N", str(n_box),
                         "--seeds", "40", "--seed", "4"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "walk.csv")
    # independent recount: N uniforms of the trial's stream (forward) and
    # of the stream jumped from it (backward) as power:0.5 steps in
    # float64, whose partial sums are exact below 2**53
    rng = spawn(4, 1)
    backward = np.random.Generator(rng.bit_generator.jumped())
    want = 1
    for side in (rng, backward):
        steps = np.maximum(np.ceil((1.0 - side.random(n_box)) ** -2.0 - 1.0), 1.0)
        want += int(np.count_nonzero(np.cumsum(steps) <= n_box))
    assert rows[1]["seed"] == "1" and rows[1]["count"] == str(want)


def test_walk_rows_are_one_orbit_at_every_horizon(tmp_path):
    # each trial's row at N = 1000 is the count at 1000 of the same trial
    # sampled for a horizon a hundred times longer
    f = cli.parse_distribution("power:0.75")
    code, out = run_cli(["walk", "--dist", "power:0.75", "--N", "1000",
                         "--seeds", "6", "--seed", "3"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "walk.csv")
    want = [lattice.walk_counts(lattice.walk_sample(f, spawn(3, i), J=10 ** 5), 1000)
            for i in range(6)]
    assert [row["count"] for row in rows] == [str(c) for c in want]


def test_regvar_tables(tmp_path):
    code, out = run_cli(["regvar", "--scaling", "identity", "--p", "2,4",
                         "--n-lo", "8", "--n-hi", "64"], tmp_path, "er")
    assert code == 0
    _, rows = read_table(out / "regvar_er.csv")
    assert all(r["ratio"] == "1.0" for r in rows)

    # the p = 2 band of n/L(n) is L(n)/L(2n): here L(n) = 2(1 - 2^-n)
    code, out = run_cli(["regvar", "--scaling", "tm:geometric:0.5", "--p", "2",
                         "--n-lo", "30", "--n-hi", "120"], tmp_path, "sv")
    assert code == 0
    _, rows = read_table(out / "regvar_er.csv")
    assert [r["n"] for r in rows] == ["30", "60", "120"]
    assert all(abs(float(r["ratio"]) - 1.0) <= 1e-9 for r in rows)


def test_construction_data_file(tmp_path):
    doc = {"stages": [{"c": 2, "spacers": [0, "2q"]}], "repeat_from": 0}
    data_file = tmp_path / "heavy.json"
    data_file.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="beta_lower_hat"):
        code, out = run_cli(["rank-one", "--data", str(data_file), "--checkpoints", "16",
                             "--seeds", "1"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "series_000.csv")
    assert 4 <= int(rows[0]["sigma"]) <= 12  # level-3 bracket for heavy spacers


# -- provenance and reproducibility ------------------------------------------------


def test_provenance_header_fields(tmp_path):
    _, out = run_cli(["trimmed", "--dist", "delta:1", "--n", "3", "--trials", "2",
                      "--seed", "9"], tmp_path)
    header, _ = read_table(out / "trimmed.csv")
    text = "".join(header)
    assert "# tool: ergosum" in text
    assert "# config-sha256: " in text
    assert "# seed: 9\n# trials: 2\n# rng: PCG64" in text
    assert "timestamp" not in text  # nothing that differs between reruns
    # a deterministic table reads no stream: its header names none, so
    # two seeds write one file
    for seed in ("1", "2"):
        run_cli(["renewal", "--dist", "geometric:0.5", "--n", "4", "--seed", seed],
                tmp_path, seed)
    header, _ = read_table(tmp_path / "1" / "renewal.csv")
    assert [line.partition(":")[0] for line in header] == [
        "# tool", "# experiment", "# config-sha256"]
    assert ((tmp_path / "1" / "renewal.csv").read_bytes()
            == (tmp_path / "2" / "renewal.csv").read_bytes())


def test_walk_header_names_the_backward_stream(tmp_path):
    _, out = run_cli(["walk", "--dist", "geometric:0.5", "--N", "20", "--seeds", "2"],
                     tmp_path)
    header, rows = read_table(out / "walk.csv")
    assert "# rng-backward: Generator(bit_generator.jumped()) of the trial's stream\n" \
        in header
    assert header[-2] == "# rng: PCG64(SeedSequence(master, spawn_key=(trial,)))\n"
    assert len(rows) == 2
    _, out = run_cli(["renewal", "--dist", "delta:1", "--n", "3"], tmp_path, "other")
    header, _ = read_table(out / "renewal.csv")
    assert not any("rng-backward" in line for line in header)


def test_rerun_byte_identical(tmp_path):
    args = ["walk", "--dist", "geometric:0.5", "--N", "3000", "--seeds", "4",
            "--seed", "5"]
    _, out1 = run_cli(args, tmp_path, "a")
    _, out2 = run_cli(args, tmp_path, "b")
    assert (out1 / "walk.csv").read_bytes() == (out2 / "walk.csv").read_bytes()


def test_thread_count_invariance(tmp_path):
    runs = {
        "walk": ["walk", "--dist", "geometric:0.5", "--N", "3000", "--seeds", "6"],
        "rank-one": ["rank-one", "--preset", "chacon", "--seeds", "6",
                     "--checkpoints", "dyadic:4:30", "--burn-in", "16"],
    }
    for kind, base in runs.items():
        # rank-one runs its trials in one thread and takes no --threads
        one, four = (["--threads", "1"], ["--threads", "4"]) if kind == "walk" else ([], [])
        _, out1 = run_cli([*base, "--seed", "5", *one], tmp_path, f"{kind}1")
        _, out4 = run_cli([*base, "--seed", "5", *four], tmp_path, f"{kind}4")
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names == sorted(p.name for p in out4.glob("*.csv"))
        assert len(names) == (1 if kind == "walk" else 7)
        for name in names:
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_renewal_rows_independent_of_blas_threads(tmp_path):
    # a threaded BLAS dot splits long sums by its thread count; no renewal
    # row may depend on that
    src = str(Path(ergosum.__file__).resolve().parents[1])
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "ergosum.cli", "renewal",
                        "--dist", "harmonic", "--n", "32768", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        raw = (out / "renewal.csv").read_bytes()
        bodies.append([line for line in raw.splitlines() if not line.startswith(b"#")])
    assert len(bodies[0]) == 32770
    assert bodies[0] == bodies[1]


def test_walk_counts_independent_of_cpu_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES makes NumPy take the loops of an AVX2-only,
    # then of a baseline x86-64 CPU; no walk count may depend on that,
    # whether the steps come from the guide-table search (p >= 1/3) or from
    # NumPy's own rng.geometric (p < 1/3)
    from numpy._core._multiarray_umath import __cpu_dispatch__
    groups = ["X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3"]
    if not set(groups) <= set(__cpu_dispatch__):
        pytest.skip("NumPy dispatches no x86-64 feature groups here")
    src = str(Path(ergosum.__file__).resolve().parents[1])
    counts = []
    for disabled in (groups[:3], groups):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(disabled))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for dist in ("geometric:0.5", "geometric:0.1"):
            out = tmp_path / f"{len(disabled)}-{dist}"
            subprocess.run([sys.executable, "-m", "ergosum.cli", "walk", "--dist",
                            dist, "--N", "4096", "--seeds", "8", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            _, rows = read_table(out / "walk.csv")
            counts.append([row["count"] for row in rows])
    assert [len(c) for c in counts] == [8] * 4
    assert counts[:2] == counts[2:]


def test_long_tables_written_block_by_block(tmp_path):
    # 9001 and 9000 rows cross 35 block boundaries of the row builder and
    # of the writer
    n_max = 9000
    _, out = run_cli(["renewal", "--dist", "power:0.5", "--n", str(n_max)], tmp_path)
    seq = renewal.renewal_sequence(renewal.PowerTail(0.5), n_max)
    _, rows = read_table(out / "renewal.csv")
    assert [row["n"] for row in rows] == [str(n) for n in range(n_max + 1)]
    assert [row["u"] for row in rows] == [repr(x) for x in seq.u.tolist()]
    assert [row["a_u"] for row in rows] == [repr(x) for x in seq.a_u.tolist()]
    _, out = run_cli(["queen", "--dist", "harmonic", "--n", str(n_max)], tmp_path, "q")
    qs = renewal.queen_series(renewal.PowerTail(1.0), n_max)
    _, rows = read_table(out / "queen.csv")
    assert [row["n"] for row in rows] == [str(n) for n in range(1, n_max + 1)]
    assert [row["Q"] for row in rows] == [repr(x) for x in qs.partial_sums.tolist()]
    assert [row["tail"] for row in rows] == [repr(x) for x in qs.tails.tolist()]


# one small run of each subcommand
_TINY_RUNS = [
    ["rank-one", "--preset", "chacon", "--checkpoints", "dyadic:4:10", "--seeds", "2",
     "--burn-in", "16"],
    ["renewal", "--dist", "geometric:0.5", "--n", "600"],
    ["queen", "--dist", "harmonic", "--n", "600"],
    ["dyadic-tail", "--dist", "harmonic", "--n", "10"],
    ["trimmed", "--dist", "harmonic", "--n", "100", "--trials", "5"],
    ["translate", "--alpha", "golden", "--grid", "dyadic:2:5"],
    ["walk", "--dist", "geometric:0.5", "--N", "64", "--seeds", "3", "--threads", "1"],
    ["regvar", "--scaling", "tm:harmonic", "--n-lo", "8", "--n-hi", "256"],
]


def test_tiny_runs_cover_every_subcommand():
    assert sorted(argv[0] for argv in _TINY_RUNS) == sorted(cli.RUNNERS)


@pytest.mark.parametrize("argv", _TINY_RUNS, ids=" ".join)
def test_saved_config_of_the_given_flags_hashes_as_the_flags(argv):
    # flags fill in every default; a saved config that holds only the
    # given flags names the same run, so it gets the same hash
    args = cli.build_parser().parse_args(argv)
    flags = {arg.partition("=")[0] for arg in argv if arg.startswith("--")}
    params = {name: getattr(args, name) for name in cli.PARAMS[argv[0]][1]
              if "--" + name.replace("_", "-") in flags}
    from_flags = cli.config_from_args(args)
    saved = cli.ExperimentConfig(kind=argv[0], params=params, seed=from_flags.seed,
                                 trials=from_flags.trials)
    assert saved.config_hash() == from_flags.config_hash()


def test_config_hash_does_not_see_how_defaults_are_spelled():
    parser = cli.build_parser()
    rank_one = cli.config_from_args(parser.parse_args(["rank-one", "--preset", "chacon"]))
    assert rank_one.config_hash() == cli.ExperimentConfig.from_json(
        '{"kind":"rank-one","params":{"preset":"chacon"}}').config_hash()
    translate = cli.config_from_args(
        parser.parse_args(["translate", "--alpha", "golden", "--grid", "4"]))
    assert translate.config_hash() == cli.ExperimentConfig(
        kind="translate", params={"alpha": "golden", "grid": "4", "exact": False,
                                  "beta": None, "x": 0}).config_hash()


@pytest.mark.parametrize("argv", _TINY_RUNS, ids=" ".join)
def test_every_row_has_one_cell_per_field(argv):
    # each table is one column per field, all of one length
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    for name, fields, columns in cli.RUNNERS[cfg.kind](cfg):
        assert len(columns) == len(fields), name
        assert len({len(column) for column in columns}) == 1, name
        assert len(columns[0]) > 0, name


def _row_by_row(cfg, fields, rows):
    """The bytes of a table written one row at a time, joining str cells."""
    text = "".join(f"# {line}\n" for line in cli.provenance_lines(cfg))
    text += "".join(",".join(map(str, row)) + "\r\n" for row in [fields, *rows])
    return text.encode()


_B = cli._ROW_BLOCK
_A = cli._ARRAY_BLOCK
_CELLS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64]),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-310, 1e16, 1e-5]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.just(""),
)
# a NaN with another payload, which str does not show
_NAN_PAYLOAD = float(np.int64(0x7FF8000000000001).view(np.float64))
_FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, _NAN_PAYLOAD, math.inf, -math.inf,
                     5e-324, -1e-310, 0.7, 1e16]),
    st.floats())


_KINDS = ("range", "list", "tuple", "int64", "float64")


@st.composite
def _columns(draw, kinds=_KINDS):
    """Equal-length columns of the given kinds a runner hands write_outputs:
    a range, a list or tuple of mixed cells, or an int64 or float64 array.
    The lists and arrays are each a pattern of 1 to 5 values repeated, so
    blocks repeat where the period divides the block.  Some float arrays
    have the zeros of chosen blocks, of the list writer's or of the array
    writer's size, negated: those blocks equal their neighbours as floats
    but not as bits."""
    size = draw(st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 1, 4 * _B + 3,
                                 _A - 1, _A + 1, 2 * _A + 1]))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "range":
            first = draw(st.integers(0, 2 ** 64))
            columns.append(range(first, first + size))
        elif kind in ("list", "tuple"):
            pattern = draw(st.lists(_CELLS, min_size=1, max_size=5))
            cells = [pattern[i % len(pattern)] for i in range(size)]
            columns.append(cells if kind == "list" else tuple(cells))
        elif kind == "int64":
            pattern = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                    min_size=1, max_size=5))
            columns.append(np.resize(np.array(pattern, dtype=np.int64), size))
        else:
            pattern = draw(st.lists(_FLOAT_VALUES, min_size=1, max_size=5))
            column = np.resize(np.array(pattern, dtype=np.float64), size)
            step = draw(st.sampled_from([_B, _A]))
            for b in draw(st.lists(st.integers(0, 4), max_size=3)):
                block = column[b * step:(b + 1) * step]
                block[block == 0.0] *= -1.0
            columns.append(column)
    return columns


@settings(max_examples=120, deadline=None)
@given(columns=_columns())
# 0.0 in one block and -0.0 in the next: equal as floats, apart as bits
@example(columns=[range(2 * _B + _B // 2),
                  np.repeat([0.0, -0.0, 0.0], [_B, _B, _B // 2])])
# a NaN payload in one block and the plain NaN in the next
@example(columns=[np.repeat([_NAN_PAYLOAD, math.nan], [_B, _B]),
                  [2 ** 64, np.float64(-0.0), ""] * (2 * _B // 3) + [np.int64(-1)] * 2])
def test_write_outputs_bytes_match_row_by_row_writer(columns, tmp_path_factory):
    # the block format, with an array's repeated blocks formatted once,
    # writes the bytes of joining each row's str cells
    cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                               out=str(tmp_path_factory.mktemp("blocks")))
    fields = tuple(f"c{j}" for j in range(len(columns)))
    [path] = cli.write_outputs(cfg, [("table", fields, columns)])
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert path.read_bytes() == _row_by_row(cfg, fields, rows)


@settings(max_examples=80, deadline=None)
@given(columns=_columns(kinds=("int64", "float64")), first=st.integers(0, 1))
# 0.0 in one block and -0.0 in the next: equal as floats, apart as bits
@example(columns=[np.repeat([0.0, -0.0, 0.0], [_B, _B, _B // 2])], first=0)
# the same across the array writer's blocks, beside a NaN payload in one
# block and the plain NaN in the next
@example(columns=[np.repeat([0.0, -0.0, 0.0], [_A, _A, _A // 2]),
                  np.repeat([_NAN_PAYLOAD, math.nan, 1.0], [_A, _A, _A // 2])], first=0)
def test_array_tables_match_row_by_row_writer(columns, first, tmp_path_factory):
    # the runners' usual table, an index range and arrays, with the arrays'
    # repeated blocks formatted once, writes the bytes of joining each
    # row's str cells
    cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                               out=str(tmp_path_factory.mktemp("arrays")))
    fields = ("n", *(f"c{j}" for j in range(len(columns))))
    index = range(first, first + len(columns[0]))
    [path] = cli.write_outputs(cfg, [("table", fields, [index, *columns])])
    rows = zip(index, *(c.tolist() for c in columns))
    assert path.read_bytes() == _row_by_row(cfg, fields, rows)


def _repr_oracle_values():
    """Floats on which a shortest-digit routine is easily wrong: every power
    of two and of ten with both neighbours, the subnormal and normal
    boundaries, zeros and non-finite values, 0.7 n, and seeded uniform,
    log-uniform and random-bit draws."""
    rng = np.random.default_rng(20131)
    edges = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                            [float(f"1e{k}") for k in range(-325, 309)],
                            [2.2250738585072014e-308, 2.2250738585072009e-308]])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, math.inf)])
    log_uniform = 10.0 ** rng.uniform(-320, 308, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    return np.concatenate([
        edges, -edges, [0.0, -0.0, math.inf, -math.inf, math.nan, _NAN_PAYLOAD],
        0.7 * np.arange(2 ** 18 + 1), rng.random(200_000), log_uniform,
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)])


_ORACLE_WRITER = """
import sys
import numpy as np
from ergosum import cli
cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                           out=sys.argv[2])
cli.write_outputs(cfg, [("oracle", ("x",), (np.load(sys.argv[1]),))])
"""


def test_array_writer_matches_repr(tmp_path):
    # every float cell of the array writer is repr of its value, also with
    # NumPy's X86_V4 and X86_V3 loops disabled: the digits are computed
    # with +, -, *, floor and integer division only
    values = _repr_oracle_values()
    cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                               out=str(tmp_path / "native"))
    [path] = cli.write_outputs(cfg, [("oracle", ("x",), (values,))])
    rows = path.read_bytes().split(b"\r\n")
    assert rows[0].endswith(b"\nx") and rows[-1] == b""
    assert rows[1:-1] == [repr(x).encode() for x in values.tolist()]
    from numpy._core._multiarray_umath import __cpu_dispatch__
    groups = ["X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3"]
    if not set(groups) <= set(__cpu_dispatch__):
        pytest.skip("NumPy dispatches no x86-64 feature groups here")
    np.save(tmp_path / "values.npy", values)
    src = str(Path(ergosum.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(groups))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _ORACLE_WRITER, str(tmp_path / "values.npy"),
                    str(tmp_path / "baseline")], env=env, check=True, capture_output=True,
                   timeout=120)
    assert (tmp_path / "baseline" / "oracle.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("columns", [
    [range(3), [1.0, 2.0, 3.0]],
    [range(3), [1.0, 2.0, 3.0], np.arange(2)],
    [range(3), (), np.arange(3)],
], ids=["missing-column", "short-array", "empty-tuple"])
def test_write_outputs_refuses_a_misshapen_table(columns, tmp_path):
    # a table whose cells would not fill its rows is refused before any
    # file of the run opens, the well-formed table listed first included
    cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                               out=str(tmp_path / "out"))
    good = ("good", ("n",), [range(3)])
    with pytest.raises(InvariantViolationError, match="'bad' has 3 fields"):
        cli.write_outputs(cfg, [good, ("bad", ("n", "x", "y"), columns)])
    assert not (tmp_path / "out").exists()


def test_write_outputs_streams_its_rows(tmp_path):
    # no table is held whole: 2^18 rows, a range and an array that repeats
    # one block, peak at no more traced memory than four blocks do (a list
    # of the rows alone takes 2 MB); the repeated column keeps only its
    # previous block's strings, which formatting copies without allocating
    cfg = cli.ExperimentConfig(kind="renewal", params={"dist": "harmonic", "n": 1},
                               out=str(tmp_path))
    u = np.full(2 ** 18, 0.7)

    def peak(count):
        tracemalloc.start()
        try:
            cli.write_outputs(cfg, [("long", ("n", "u"), (range(count), u[:count]))])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4 * _B)  # first writes allocate once for the process
    assert peak(2 ** 18) <= 2 * peak(4 * _B)


def test_config_roundtrip_and_file(tmp_path):
    cfg = cli.ExperimentConfig(kind="renewal",
                               params={"dist": "geometric:0.5", "n": 4},
                               seed=7, trials=1, out=str(tmp_path / "cfgout"))
    again = cli.ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()
    assert again.config_hash() == cfg.config_hash()

    # a config file runs by itself, and wins wholesale over inline flags
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(cfg.to_json())
    assert cli.main(["renewal", "--config", str(cfg_file)]) == 0
    code = cli.main(["renewal", "--dist", "ignored:0", "--n", "1",
                     "--config", str(cfg_file), "--out", str(tmp_path / "c")])
    assert code == 0
    assert not (tmp_path / "c").exists()
    _, rows = read_table(tmp_path / "cfgout" / "renewal.csv")
    assert len(rows) == 5


def test_config_hash_pinned():
    # provenance headers carry these digests; the row contract drops them
    parser = cli.build_parser()
    pins = [
        (["rank-one", "--preset", "chacon", "--seeds", "400",
          "--checkpoints", "dyadic:10:40"],
         "bc9b409410972cac4f7c0ae1786c425abd8f07407941482305e1d231aad22b5a"),
        (["translate", "--alpha", "golden", "--beta", "1", "--x", "0.3", "--exact",
          "--grid", "dyadic:6:13"],
         "e7e09e259f2b9ac3c521a0512d4ee3da71ce6756ae6f7c11f7bac28a3d3e1a7a"),
        (["regvar", "--scaling", "tm:harmonic", "--p", "2"],
         "08fd2763cfc5e4a421b2cad46c85b8e0445fda55ffebd8d0517c547b3ae50c48"),
    ]
    for argv, digest in pins:
        cfg = cli.config_from_args(parser.parse_args(argv))
        assert cfg.config_hash() == digest, argv
        # saved, it loads with the same hash ("exact": true included)
        assert cli.ExperimentConfig.from_json(cfg.to_json()).config_hash() == digest
    saved = cli.ExperimentConfig.from_json(
        '{"kind":"renewal","params":{"dist":"geometric:0.5","n":4},"seed":7}')
    assert saved.config_hash() == (
        "e70ba54bda4f9e23cc7a32d3684a22aa9908a09ad9ac7d5b96300995d7522c23")


def test_deterministic_table_hash_ignores_seed():
    # --seed stays accepted everywhere, but only a trial kind's rows read it
    parser = cli.build_parser()

    def digest(kind, *argv):
        return cli.config_from_args(parser.parse_args([kind, *argv])).config_hash()

    args = ["--dist", "geometric:0.5", "--n", "4"]
    assert digest("renewal", *args, "--seed", "1") == digest("renewal", *args, "--seed", "2")
    assert digest("trimmed", *args, "--seed", "1") != digest("trimmed", *args, "--seed", "2")


def test_config_values_defaults_and_types():
    cfg = cli.ExperimentConfig(kind="translate",
                               params={"alpha": "golden", "grid": "3", "x": 0})
    values = cfg.values()
    assert values == {"alpha": "golden", "beta": "1.0", "x": 0.0, "grid": "3",
                      "exact": False}
    assert type(values["x"]) is float
    assert cfg.params == {"alpha": "golden", "grid": "3", "x": 0}


def test_hash_ignores_execution_knobs():
    a = cli.ExperimentConfig(kind="renewal", params={"dist": "delta:1", "n": 2},
                             threads=1, out="x")
    b = cli.ExperimentConfig(kind="renewal", params={"dist": "delta:1", "n": 2},
                             threads=8, out="y")
    assert a.config_hash() == b.config_hash()


# -- exit codes ---------------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    code = cli.main(["renewal", "--dist", "nosuch:1", "--n", "5",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _arg_id(arg):
    return f"finite:@{json.dumps(arg)}" if isinstance(arg, dict) else arg


# a dict stands for a finite:@FILE distribution spec holding it
@pytest.mark.parametrize("args", [
    ["renewal", "--dist", "geometric:abc", "--n", "5"],
    ["renewal", "--dist", "power:", "--n", "5"],
    # harmonic takes no argument
    ["renewal", "--dist", "harmonic:junk", "--n", "3"],
    ["renewal", "--dist", "harmonic:0.5", "--n", "3"],
    ["renewal", "--dist", "geometric:0.5", "--n", "-1"],
    ["regvar", "--scaling", "au:geometric:0.5:xx"],
    ["regvar", "--scaling", "tm:harmonic", "--p", "2,x"],
    ["regvar", "--scaling", "tm:harmonic", "--p", "0", "--n-hi", "4096"],
    ["regvar", "--scaling", "tm:harmonic", "--n-lo", "0"],
    ["queen", "--dist", "harmonic", "--n", "0"],
    ["walk", "--dist", "geometric:0.5", "--N", "0"],
    ["trimmed", "--dist", "harmonic", "--n", "1"],
    ["dyadic-tail", "--dist", "harmonic", "--n", "3", "--t", "-1"],
    ["rank-one", "--preset", "chacon", "--checkpoints", "-3"],
    ["renewal", "--dist", {"kind": "finite", "mass": [[1, "x"]]}, "--n", "5"],
    ["renewal", "--dist", {"kind": "geometric"}, "--n", "5"],
    # a key the file format does not define
    ["renewal", "--dist", {"kind": "finite", "mass": [[1, 0.5], [2, 0.5]],
                           "masss": [[3, 1.0]]}, "--n", "5"],
    ["renewal", "--dist", {"kind": "finite", "mass": [[1, 1.0]], "p": 0.5}, "--n", "5"],
    # an atom is a JSON integer: 1.5 does not run as 1, nor true as delta:1
    ["renewal", "--dist", {"kind": "finite", "mass": [[1.5, 0.5], [2.9, 0.5]]}, "--n", "5"],
    ["renewal", "--dist", {"kind": "finite", "mass": [[True, 1.0]]}, "--n", "5"],
    # delta:5 renews first at time 5: a_u(3) = 0, and no walk ratio exists
    ["walk", "--dist", "delta:5", "--N", "3", "--seeds", "1"],
    # p < 0 and |total - 1| > 1e-12 are both false for a NaN mass
    ["renewal", "--dist", {"kind": "finite", "mass": [[1, math.nan], [2, 1.0]]},
     "--n", "3"],
    ["walk", "--dist", {"kind": "finite", "mass": [[1, math.nan], [2, 1.0]]},
     "--N", "5"],
    # a lifetime has one spelling, its label, in --dist and in scalings
    ["renewal", "--dist", "power:1", "--n", "3"],
    ["renewal", "--dist", "power:1.0", "--n", "3"],
    ["renewal", "--dist", "delta:03", "--n", "3"],
    ["renewal", "--dist", "delta:+3", "--n", "3"],
    ["renewal", "--dist", "geometric:5e-1", "--n", "3"],
    ["renewal", "--dist", "geometric:1", "--n", "3"],
    ["walk", "--dist", "power:0.50", "--N", "8"],
    ["regvar", "--scaling", "tm:power:1", "--n-lo", "8", "--n-hi", "64"],
    ["regvar", "--scaling", "au:geometric:5e-1:64", "--n-lo", "8", "--n-hi", "64"],
    ["dyadic-tail", "--dist", "harmonic", "--n", "3", "--scaling", "tm:delta:03"],
    # atoms past int64
    ["renewal", "--dist", "delta:9223372036854775808", "--n", "3"],
    ["renewal", "--dist", {"kind": "finite", "mass": [[2 ** 70, 1.0]]}, "--n", "3"],
    ["translate", "--alpha", "x", "--grid", "4"],
    ["regvar", "--scaling", "nosuch:1"],
    # a directory is no readable file
    ["rank-one", "--data", ".", "--checkpoints", "13"],
    ["renewal", "--config", "."],
    ["renewal", "--dist", "finite:@.", "--n", "3"],
], ids=lambda args: " ".join(map(_arg_id, args)))
def test_exit_code_bad_value(args, tmp_path, capsys):
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            path = tmp_path / "dist.json"
            path.write_text(json.dumps(arg))
            arg = f"finite:@{path}"
        argv.append(arg)
    code = cli.main([*argv, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


@pytest.mark.parametrize("args,named", [
    (["translate", "--alpha", "golden", "--grid", "dyadic:-1:3"], "'dyadic:-1:3'"),
    (["rank-one", "--preset", "chacon", "--checkpoints", "dyadic:-2:3"], "'dyadic:-2:3'"),
    (["regvar", "--scaling", "tm:harmonic", "--p", "2", "--n-lo", "100", "--n-hi", "10"],
     "n_hi = 10 < p*n_lo = 200"),
    (["translate", "--alpha", "golden", "--grid", "dyadic:1:x"], "'dyadic:1:x'"),
    (["translate", "--alpha", "golden", "--grid", "4,x"], "'4,x'"),
    (["rank-one", "--preset", "chacon", "--checkpoints", "5,3"],
     "checkpoints must be strictly increasing"),
], ids=["translate-negative-exponent", "rank-one-negative-exponent", "regvar-empty",
        "translate-dyadic-not-integer", "translate-list-not-integer",
        "rank-one-decreasing"])
def test_exit_code_bad_grid(args, named, tmp_path, capsys):
    # a negative dyadic exponent, a malformed or decreasing grid or an
    # empty grid writes no table
    code = cli.main([*args, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,named", [
    (["regvar", "--scaling", "au:harmonic:4194304", "--p", "0"], "p values must exceed 1"),
    (["regvar", "--scaling", "au:harmonic:4194304", "--n-lo", "0"], "n_lo must be >= 1"),
    (["regvar", "--scaling", "au:harmonic:4194304", "--factor", "1"],
     "grid factor must be >= 2"),
    (["regvar", "--scaling", "au:harmonic:4194304", "--p", "2", "--n-lo", "100",
      "--n-hi", "10"], "n_hi = 10 < p*n_lo = 200"),
    (["dyadic-tail", "--dist", "harmonic", "--n", "3", "--t", "-1",
      "--scaling", "au:harmonic:4194304"], "t must be positive"),
    (["dyadic-tail", "--dist", "harmonic", "--n", "0",
      "--scaling", "au:harmonic:4194304"], "n_max must be >= 1"),
], ids=["regvar-p", "regvar-n-lo", "regvar-factor", "regvar-empty", "dyadic-t", "dyadic-n"])
def test_range_checks_run_before_the_scaling_is_built(args, named, tmp_path, capsys,
                                                       monkeypatch):
    # an au: scaling costs a renewal inversion, which a bad value never reaches
    def refuse(*_):
        raise AssertionError("renewal_sequence called")
    monkeypatch.setattr(renewal, "renewal_sequence", refuse)
    code = cli.main([*args, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {named}"], err


def test_config_hash_covers_finite_masses(tmp_path):
    # a finite:@FILE lifetime is hashed by the masses the file holds, in
    # --dist and inside tm: and au: scalings, not by its path
    one, other = tmp_path / "one.json", tmp_path / "other.json"

    def hashes():
        argvs = [["renewal", "--dist", f"finite:@{one}", "--n", "4"],
                 ["regvar", "--scaling", f"tm:finite:@{one}"],
                 ["dyadic-tail", "--dist", "harmonic", "--n", "3",
                  "--scaling", f"au:finite:@{one}:64"]]
        parser = cli.build_parser()
        return [cli.config_from_args(parser.parse_args(argv)).config_hash()
                for argv in argvs]

    def write(path, mass):
        path.write_text(json.dumps({"kind": "finite", "mass": mass}))

    write(one, [[1, 0.5], [2, 0.5]])
    first = hashes()
    write(one, [[1, 0.25], [2, 0.75]])
    second = hashes()
    assert all(a != b for a, b in zip(first, second))
    # the same masses under another path: the same hashes
    write(other, [[1, 0.25], [2, 0.75]])
    one, other = other, one
    assert hashes() == second
    # one atom is the lifetime delta:3, and hashes as its spec does
    write(one, [[3, 1.0]])
    parser = cli.build_parser()
    assert (cli.config_from_args(parser.parse_args(
        ["renewal", "--dist", f"finite:@{one}", "--n", "4"])).config_hash()
        == cli.config_from_args(parser.parse_args(
            ["renewal", "--dist", "delta:3", "--n", "4"])).config_hash())


def test_config_hash_covers_construction_stages(tmp_path):
    # a --data file is hashed by the stages and repeat_from it holds, not
    # by its path, its name or its spelling
    path = tmp_path / "d.json"
    argv = ["rank-one", "--data", str(path), "--checkpoints", "13,100"]

    def hash_and_row(text):
        path.write_text(text)
        with warnings.catch_warnings():
            # the beta_lower_hat review flag fires on the heavy2q stages
            warnings.simplefilter("ignore", UserWarning)
            code, out = run_cli(argv, tmp_path, f"out{len(list(tmp_path.iterdir()))}")
        assert code == 0
        header, rows = read_table(out / "series_000.csv")
        digest = cli.config_from_args(cli.build_parser().parse_args(argv)).config_hash()
        assert f"# config-sha256: {digest}\n" in header
        return digest, [rows[0][k] for k in ("s_plus", "s_minus", "sigma")]

    chacon = hash_and_row('{"stages": [{"c": 3, "spacers": [0, 1, 0]}], "repeat_from": 0}')
    heavy = hash_and_row('{"stages": [{"c": 2, "spacers": [0, "2q"]}], "repeat_from": 0}')
    assert chacon[1] == ["10", "9", "18"] and heavy[1] == ["2", "3", "4"]
    assert chacon[0] != heavy[0]
    # the same stages, keys reordered, spaced otherwise and named
    assert hash_and_row('{"repeat_from":0,"name":"mine",\n "stages":[{"spacers":[0,1,0],'
                        '"c":3}]}') == chacon
    # repeat_from is part of the construction
    assert hash_and_row('{"stages": [{"c": 3, "spacers": [0, 1, 0]}, '
                        '{"c": 3, "spacers": [0, 1, 0]}], "repeat_from": 1}')[0] != chacon[0]


@pytest.mark.parametrize("doc,named", [
    ({"kind": "renewal", "params": None}, "'params'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5"}}, "'n'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": None}}, "'n'"),
    ({"kind": "walk", "params": {"dist": "geometric:0.5", "N": 10}, "trials": "x"},
     "'trials'"),
    ({"kind": "nosuch", "params": {}}, "'nosuch'"),
    ({"kind": "renewal", "params": {"dist": 5, "n": 4}}, "'dist'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": [1]}}, "'n'"),
    ({"kind": "rank-one", "params": {"preset": "chacon", "checkpoints": 7}},
     "'checkpoints'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": 4.7}}, "'n'"),
    ({"kind": "walk", "params": {"dist": "geometric:0.5", "N": True}}, "'N'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": 4, "nn": 9}}, "'nn'"),
    ({"kind": "translate", "params": {"alpha": "golden", "grid": "4", "x": 10 ** 400}},
     "'x'"),
    # retired keys: --json, --stamp and rank-one's --radius
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": 4},
      "json_mirror": False}, "'json_mirror'"),
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": 4}, "stamp": True},
     "'stamp'"),
    ({"kind": "rank-one", "params": {"preset": "chacon", "radius": 13}}, "'radius'"),
], ids=["params-null", "missing-n", "null-n", "trials-string", "unknown-kind",
        "dist-int", "n-list", "checkpoints-int", "n-float", "N-bool", "unknown-key",
        "x-too-large", "json-mirror", "stamp", "radius"])
def test_exit_code_malformed_config(doc, named, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    doc = {**doc, "out": str(tmp_path / "out")}
    cfg_file.write_text(json.dumps(doc))
    code = cli.main(["renewal", "--config", str(cfg_file)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,named", [
    (["translate", "--alpha", "inf", "--grid", "4"], "alpha"),
    (["translate", "--alpha", "golden", "--beta=-1e400", "--grid", "4"], "beta"),
    (["translate", "--alpha", "golden", "--x", "inf", "--grid", "4"], "'x'"),
    (["dyadic-tail", "--dist", "harmonic", "--n", "3", "--t", "inf"], "'t'"),
    (["dyadic-tail", "--dist", "harmonic", "--n", "3", "--t", "nan"], "'t'"),
], ids=["alpha-inf", "beta-overflow", "x-inf", "t-inf", "t-nan"])
def test_exit_code_non_finite_real(args, named, tmp_path, capsys):
    code = cli.main([*args, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,named", [
    (["walk", "--dist", "geometric:0.5", "--N", "10", "--seeds", "0"], "'trials'"),
    (["walk", "--dist", "geometric:0.5", "--N", "10", "--seeds", "-3"], "'trials'"),
    (["trimmed", "--dist", "harmonic", "--n", "100", "--trials", "0"], "'trials'"),
    (["rank-one", "--preset", "chacon", "--checkpoints", "13", "--seeds", "0"],
     "'trials'"),
    (["walk", "--dist", "geometric:0.5", "--N", "10", "--seed", "-1"], "'seed'"),
    (["walk", "--dist", "geometric:0.5", "--N", "10", "--threads", "-1"], "'threads'"),
], ids=["walk-seeds-0", "walk-seeds-negative", "trimmed-trials-0", "rank-one-seeds-0",
        "walk-seed-negative", "walk-threads-negative"])
def test_exit_code_bad_run_setting(args, named, tmp_path, capsys):
    code = cli.main([*args, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,named", [
    ({"kind": "renewal", "params": {"dist": "geometric:0.5", "n": 4}, "trials": 3},
     "'trials'"),
    ({"kind": "translate", "params": {"alpha": "golden", "N": 5, "grid": "dyadic:0:2"}},
     "translate has no parameter 'N'"),
    ({"kind": "translate", "params": {"alpha": "golden"}}, "--grid"),
], ids=["renewal-trials-3", "translate-N-and-grid", "translate-no-horizon"])
def test_exit_code_saved_run_setting(doc, named, tmp_path, capsys):
    # a deterministic table has one trial, and translate one horizon
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**doc, "out": str(tmp_path / "out")}))
    code = cli.main([doc["kind"], "--config", str(cfg_file)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,flag", [
    (["renewal", "--dist", "geometric:0.5", "--n", "4", "--trials", "2"], "--trials 2"),
    (["rank-one", "--preset", "chacon", "--checkpoints", "13", "--threads", "2"],
     "--threads 2"),
    # retired flags: --json, --stamp and rank-one's --radius
    (["renewal", "--dist", "geometric:0.5", "--n", "4", "--json"], "--json"),
    (["renewal", "--dist", "geometric:0.5", "--n", "4", "--stamp"], "--stamp"),
    (["rank-one", "--preset", "chacon", "--checkpoints", "13", "--radius", "13"],
     "--radius 13"),
    # translate's radii are --grid alone
    (["translate", "--alpha", "golden", "--N", "5"], "--N 5"),
], ids=["renewal-trials", "rank-one-threads", "renewal-json", "renewal-stamp",
        "rank-one-radius", "translate-N"])
def test_run_setting_a_run_does_not_read(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"error: unrecognized arguments: {flag}"), err


def test_option_strings_pinned():
    # a flag that no run reads shows up here
    common = ["--config", "--out", "--seed"]
    pins = {
        "rank-one": ["--seeds", "--preset", "--data", "--checkpoints", "--burn-in"],
        "renewal": ["--dist", "--n"],
        "queen": ["--dist", "--n"],
        "dyadic-tail": ["--dist", "--n", "--t", "--scaling"],
        "trimmed": ["--trials", "--dist", "--n"],
        "translate": ["--alpha", "--beta", "--x", "--grid", "--exact"],
        "walk": ["--seeds", "--threads", "--dist", "--N"],
        "regvar": ["--scaling", "--p", "--n-lo", "--n-hi", "--factor"],
    }
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert subs.choices.keys() == pins.keys()
    total = 0
    for kind, sub in subs.choices.items():
        options = sorted(opt for action in sub._actions for opt in action.option_strings
                         if opt not in ("-h", "--help"))
        assert options == sorted(common + pins[kind]), kind
        total += len(options)
    assert total == 54


def test_walk_threads_zero_uses_all_cores(tmp_path, monkeypatch):
    workers = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    cfg = cli.ExperimentConfig(kind="walk", params={"dist": "delta:1", "N": 5},
                               trials=4, out=str(tmp_path))
    assert cfg.threads == 0
    seeds, _, counts, *_ = cli.run_walk(cfg)[0][2]
    assert workers == [3]
    assert list(seeds) == [0, 1, 2, 3] and len(counts) == 4


def test_walk_threads_capped_at_cores(tmp_path, monkeypatch):
    # a pool starts one thread per task up to max_workers: the count asked
    # for is capped at the cores, and the tasks here run serially
    workers = []

    class Serial:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Serial)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = cli.ExperimentConfig(kind="walk", params={"dist": "delta:1", "N": 5},
                               trials=5, threads=10 ** 5, out=str(tmp_path))
    columns = cli.run_walk(cfg)[0][2]
    assert workers == [2]
    assert columns == cli.run_walk(dataclasses.replace(cfg, threads=1))[0][2]


@pytest.mark.parametrize("doc,named", [
    ({"stages": [{"c": 2.7, "spacers": [0, 0.9]}], "repeat_from": 0.5}, "'c'"),
    ({"stages": [{"c": 2, "spacers": [0, 0]}], "repeat_from": [0]}, "repeat_from"),
    ({"stages": [{"c": True, "spacers": [0, 0]}], "repeat_from": 0}, "'c'"),
    ({"stages": [{"c": 2, "spacers": [0, 0.9]}], "repeat_from": 0}, "spacer"),
], ids=["c-float", "repeat-from-list", "c-bool", "spacer-float"])
def test_construction_data_holds_integers(doc, named, tmp_path, capsys):
    _assert_construction_refused(doc, named, tmp_path, capsys)


@pytest.mark.parametrize("doc,named", [
    ({"stages": [{"c": 2, "spacers": [0, 0], "x": 1}], "repeat_from": 0}, "'x'"),
    ({"stages": [{"c": 2, "spacers": [0, 0]}], "repeat_from": 0, "repat_from": 1},
     "'repat_from'"),
    ({"stages": [{"c": 2, "spacers": [0, 0]}], "repeat_from": 0, "name": 5}, "'name'"),
    ([{"c": 2, "spacers": [0, 0]}], "construction data must be a JSON object"),
    ({"stages": [[2, [0, 0]]], "repeat_from": 0}, "a stage must be a JSON object"),
], ids=["stage-key", "top-level-typo", "name-int", "not-an-object", "stage-list"])
def test_construction_data_names_only_known_keys(doc, named, tmp_path, capsys):
    _assert_construction_refused(doc, named, tmp_path, capsys)


def _assert_construction_refused(doc, named, tmp_path, capsys):
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(doc))
    code = cli.main(["rank-one", "--data", str(data_file), "--checkpoints", "13",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


def test_presets_hold_only_known_keys():
    for name in rankone.PRESETS:
        text = (Path(rankone.__file__).parent / "presets" / f"{name}.json").read_text()
        doc = json.loads(text)
        assert set(doc) == {"name", "stages", "repeat_from"} and doc["name"] == name
        assert all(set(stage) == {"c", "spacers"} for stage in doc["stages"])


def test_unnamed_finite_data_exhausts_as_custom(tmp_path, capsys):
    doc = {"stages": [{"c": 2, "spacers": [0, 0]}]}
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(doc))
    code = cli.main(["rank-one", "--data", str(data_file), "--checkpoints", "13",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: construction custom lists 1 stage without a repeating "
        "suffix; stage 2 is undefined"]


def test_readme_commands_parse():
    # every ergosum line of README's sh blocks names only flags the parser
    # has and builds a valid config, without running it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh")[1:]]
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("ergosum ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    kinds = {cli.config_from_args(parser.parse_args(argv)).kind for argv in commands}
    assert kinds == cli.RUNNERS.keys()


@pytest.mark.parametrize("doc,named", [
    ({"kind": "finite", "mass": [[1, 0.5], [2, 0.5]], "masss": [[3, 1.0]]}, "'masss'"),
    ({"kind": "finite", "mass": [[1, 1.0]], "name": "one"}, "'name'"),
    ([[1, 1.0]], "must be a JSON object"),
    ({"mass": [[1, 1.0]]}, "kind must be 'finite', got None"),
], ids=["masss", "name", "list", "no-kind"])
def test_distribution_file_names_its_fault(doc, named, tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["renewal", "--dist", f"finite:@{path}", "--n", "3",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


def test_translate_overflowing_ratio(tmp_path):
    # alpha/beta overflows to inf: not a small rational, and the count is exact
    code, out = run_cli(["translate", "--alpha", "1e308", "--beta", "1e-308", "--grid", "4"],
                        tmp_path)
    assert code == 0
    _, rows = read_table(out / "translate.csv")
    assert rows[0]["count"] == "5"


def test_exit_code_missing_required_flag(tmp_path, capsys):
    # required-ness is checked on the config, not by the parser
    code = cli.main(["renewal", "--n", "4", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "'dist'" in err[0], err


def test_no_cell_needs_quoting():
    # write_outputs joins cells with commas and quotes nothing
    params = {
        "rank-one": {"preset": "chacon", "checkpoints": "0,1,13,40", "burn_in": 13},
        "renewal": {"dist": "geometric:0.5", "n": 8},
        "queen": {"dist": "harmonic", "n": 8},
        "dyadic-tail": {"dist": "geometric:0.5", "n": 6},
        "trimmed": {"dist": "harmonic", "n": 100},
        "translate": {"alpha": "golden", "x": 0.3, "grid": "dyadic:0:3"},
        "walk": {"dist": "geometric:0.5", "N": 50},
        "regvar": {"scaling": "identity", "n_lo": 8, "n_hi": 64},
    }
    assert params.keys() == cli.RUNNERS.keys()
    configs = [cli.ExperimentConfig(kind=kind, params=p,
                                    trials=2 if kind in cli.TRIAL_FLAGS else 1)
               for kind, p in params.items()]
    for cfg in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables = cli.RUNNERS[cfg.kind](cfg)
        for name, fields, columns in tables:
            for cells in (fields, *columns):
                for cell in cells:
                    assert not set(str(cell)) & set(',"\r\n'), (name, cell)


def test_exit_code_resource_error(tmp_path, capsys):
    code = cli.main(["dyadic-tail", "--dist", "harmonic", "--n", "80",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert "resource limit" in capsys.readouterr().err


def test_trimmed_tiny_geometric_reaches_the_horizon(tmp_path, capsys):
    # L(n) is about n at p = 1e-300, so a(n) stays near 1 and b(100) lies
    # past the search horizon; the L(n) of 1 - (1-p)^n was 0 there
    code = cli.main(["trimmed", "--dist", "geometric:1e-300", "--n", "100",
                     "--trials", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert "at search horizon" in capsys.readouterr().err


def test_exit_code_invariant_and_defect(tmp_path, capsys, monkeypatch):
    # a broken invariant exits 4; an exception outside the three classes
    # is a defect, and leaves main as it was raised
    def raising(exc):
        def runner(cfg):
            raise exc
        return runner

    args = ["renewal", "--dist", "geometric:0.5", "--n", "4",
            "--out", str(tmp_path / "out")]
    monkeypatch.setitem(cli.RUNNERS, "renewal",
                        raising(InvariantViolationError("broken identity")))
    assert cli.main(args) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err.splitlines() == ["invariant violation: broken identity"]
    monkeypatch.setitem(cli.RUNNERS, "renewal", raising(ValueError("a defect")))
    with pytest.raises(ValueError, match="^a defect$"):
        cli.main(args)
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


def test_exit_code_refused_allocation(tmp_path, capsys):
    # 8 * 10^14 bytes is beyond the address space a process may map, so
    # the allocation fails at once and nothing is allocated
    code = cli.main(["renewal", "--dist", "geometric:0.5", "--n", "100000000000000",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource limit: "), err


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 63 - 1, 2 ** 63])
@pytest.mark.parametrize("args", [
    "renewal --dist delta:1 --n {n}",
    "queen --dist delta:1 --n {n}",
    "walk --dist delta:1 --N {n}",
    "regvar --scaling au:delta:1:{n}",
], ids=lambda args: args.split()[0])
def test_exit_code_huge_horizon(args, n, tmp_path, capsys):
    # refused before any array is built: NumPy would call a table this
    # long too big (exit 2), and past int64 its range wraps
    code = cli.main([*args.format(n=n).split(), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RESOURCE
    assert f"horizon n = {n} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    "trimmed --dist delta:1 --n 4611686018427387904 --trials 1",
    "dyadic-tail --dist delta:1 --n 4611686018427387904",
], ids=lambda args: args.split()[0])
def test_exit_code_huge_sample_or_index(args, tmp_path, capsys):
    # 2^62 draws, or 2^62 + 1 dyadic terms: refused before any is sampled
    # or allocated, where NumPy would call the array too big (exit 2)
    code = cli.main([*args.split(), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RESOURCE
    assert "resource limit: horizon n = 4611686018427387904 " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dyadic_tail_threshold_overflowing_float(tmp_path, capsys):
    # t * b(2^n) is inf, so the integer threshold ceil(t b) does not exist
    code = cli.main(["dyadic-tail", "--dist", "delta:2", "--n", "3", "--t", "1e308",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "t = 1e+308" in err and "dyadic index n = 1" in err


def test_exit_code_missing_inputs(tmp_path):
    assert cli.main(["rank-one", "--checkpoints", "5",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert cli.main(["translate", "--alpha", "golden",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
