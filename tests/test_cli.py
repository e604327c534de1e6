"""CLI: configs, outputs, provenance, reproducibility, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergosum
from ergosum import cli
from ergosum.errors import PrecisionWarning


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
        code, out = run_cli(["rank-one", "--preset", "chacon", "--radius", "13",
                             "--seeds", "1"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "series_000.csv")
    assert len(rows) == 1
    assert rows[0]["n"] == "13"
    assert 9 <= int(rows[0]["sigma"]) <= 27
    assert (out / "summary.csv").exists()


def test_renewal_geometric_example(tmp_path):
    code, out = run_cli(["renewal", "--dist", "geometric:0.5", "--n", "10"],
                        tmp_path)
    assert code == 0
    _, rows = read_table(out / "renewal.csv")
    assert [r["u"] for r in rows[1:]] == ["0.5"] * 10


def test_translate_golden_example(tmp_path):
    code, out = run_cli(["translate", "--alpha", "golden", "--x", "0.3",
                         "--N", "0"], tmp_path)
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


def test_regvar_tables(tmp_path):
    code, out = run_cli(["regvar", "--scaling", "identity", "--p", "2,4",
                         "--n-lo", "8", "--n-hi", "64"], tmp_path, "er")
    assert code == 0
    _, rows = read_table(out / "regvar_er.csv")
    assert all(r["ratio"] == "1.0" for r in rows)

    code, out = run_cli(["regvar", "--scaling", "tm:geometric:0.5", "--sv",
                         "--n-lo", "30", "--n-hi", "120"], tmp_path, "sv")
    assert code == 0
    _, rows = read_table(out / "regvar_sv.csv")
    assert all(abs(float(r["ratio"]) - 1.0) <= 1e-9 for r in rows)


def test_construction_data_file(tmp_path):
    doc = {"stages": [{"c": 2, "spacers": [0, "2q"]}], "repeat_from": 0}
    data_file = tmp_path / "heavy.json"
    data_file.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="beta_lower_hat"):
        code, out = run_cli(["rank-one", "--data", str(data_file), "--radius", "16",
                             "--seeds", "1"], tmp_path)
    assert code == 0
    _, rows = read_table(out / "series_000.csv")
    assert 4 <= int(rows[0]["sigma"]) <= 12  # level-3 bracket for heavy spacers


# -- provenance and reproducibility ------------------------------------------------


def test_provenance_header_fields(tmp_path):
    _, out = run_cli(["renewal", "--dist", "delta:1", "--n", "3", "--seed", "9"],
                     tmp_path)
    header, _ = read_table(out / "renewal.csv")
    text = "".join(header)
    assert "# tool: ergosum" in text
    assert "# config-sha256: " in text
    assert "# seed: 9" in text
    assert "# rng: PCG64" in text
    assert "timestamp" not in text  # stamp-free by default


def test_stamp_flag_adds_timestamp(tmp_path):
    _, out = run_cli(["renewal", "--dist", "delta:1", "--n", "3", "--stamp"],
                     tmp_path)
    header, _ = read_table(out / "renewal.csv")
    assert any("timestamp" in line for line in header)


def test_rerun_byte_identical(tmp_path):
    args = ["walk", "--dist", "geometric:0.5", "--N", "3000", "--seeds", "4",
            "--seed", "5"]
    _, out1 = run_cli(args, tmp_path, "a")
    _, out2 = run_cli(args, tmp_path, "b")
    assert (out1 / "walk.csv").read_bytes() == (out2 / "walk.csv").read_bytes()


def test_thread_count_invariance(tmp_path):
    base = ["walk", "--dist", "geometric:0.5", "--N", "3000", "--seeds", "6",
            "--seed", "5"]
    _, out1 = run_cli([*base, "--threads", "1"], tmp_path, "t1")
    _, out2 = run_cli([*base, "--threads", "4"], tmp_path, "t4")
    assert (out1 / "walk.csv").read_bytes() == (out2 / "walk.csv").read_bytes()


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


def test_json_mirror_matches_csv(tmp_path):
    _, out = run_cli(["renewal", "--dist", "geometric:0.5", "--n", "5", "--json"],
                     tmp_path)
    doc = json.loads((out / "renewal.json").read_text())
    _, rows = read_table(out / "renewal.csv")
    assert doc["columns"] == ["n", "u", "a_u"]
    assert len(doc["rows"]) == len(rows)
    assert float(doc["rows"][1][1]) == float(rows[1]["u"])


def test_config_roundtrip_and_file(tmp_path):
    cfg = cli.ExperimentConfig(kind="renewal",
                               params={"dist": "geometric:0.5", "n": 4},
                               seed=7, trials=1, out=str(tmp_path / "cfgout"))
    again = cli.ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()
    assert again.config_hash() == cfg.config_hash()

    # a config file wins wholesale over inline flags
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(cfg.to_json())
    code = cli.main(["renewal", "--dist", "ignored:0", "--n", "1",
                     "--config", str(cfg_file), "--out", str(tmp_path / "c")])
    assert code == 0
    _, rows = read_table(tmp_path / "cfgout" / "renewal.csv")
    assert len(rows) == 5


def test_hash_ignores_execution_knobs():
    a = cli.ExperimentConfig(kind="renewal", params={"dist": "delta:1", "n": 2},
                             threads=1, out="x")
    b = cli.ExperimentConfig(kind="renewal", params={"dist": "delta:1", "n": 2},
                             threads=8, out="y", json_mirror=True)
    assert a.config_hash() == b.config_hash()


# -- exit codes ---------------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    code = cli.main(["renewal", "--dist", "nosuch:1", "--n", "5",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_code_resource_error(tmp_path, capsys):
    code = cli.main(["dyadic-tail", "--dist", "harmonic", "--n", "80",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert "resource limit" in capsys.readouterr().err


def test_exit_code_missing_inputs(tmp_path):
    assert cli.main(["rank-one", "--radius", "5",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert cli.main(["translate", "--alpha", "golden",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
