#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Usage: python3 perfbench/selftest.py

Runs every workload with tiny configs (the same subcommands at small
sizes) with ``--trace 0`` and ``--trace 1``, and checks that

* the last output line is the result JSON, with exactly the metrics that
  BENCHMARK.json names for that mode, each with its unit, and that every
  metric is also printed by name with its unit in the human-readable lines;
* a perturbed output row is counted as a failure: by the oracles for
  rank-one, translate and walk rows, and by the pass-to-pass row
  comparison for any file;
* without ``src/`` the benchmark exits with a non-zero status and prints
  no result;
* a pass timed while the host was slower counts proportionally less.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "tower_ensemble": [
        ["rank-one", "--preset", "chacon", "--seeds", "3", "--checkpoints", "dyadic:10:16"],
        ["rank-one", "--preset", "heavy2q", "--seeds", "2", "--checkpoints", "dyadic:10:16"],
    ],
    "renewal_scan": [
        ["renewal", "--dist", "geometric:0.3", "--n", "64"],
        ["renewal", "--dist", "harmonic", "--n", "64"],
        ["renewal", "--dist", "geometric:0.7", "--n", "40000"],
        ["regvar", "--scaling", "au:geometric:0.7:4096", "--n-lo", "16", "--n-hi", "512"],
        ["dyadic-tail", "--dist", "harmonic", "--n", "10"],
    ],
    "orbit_count": [
        ["translate", "--alpha", "golden", "--beta", "1", "--x", "0.3", "--grid", "dyadic:4:8"],
        ["translate", "--alpha", "sqrt2", "--beta=-1", "--x", "0.1", "--grid", "dyadic:4:8"],
        ["translate", "--alpha", "golden", "--beta", "1", "--x", "0.3", "--exact",
         "--grid", "dyadic:4:8"],
        ["walk", "--dist", "geometric:0.5", "--N", "256", "--seeds", "3"],
        ["trimmed", "--dist", "harmonic", "--n", "100", "--trials", "5"],
    ],
}

results = []


def check(ok: bool, what: str):
    results.append(ok)
    print(f"[{'ok' if ok else 'FAIL'}] {what}")


def run_main(argv) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    check(code == 0, f"run.py {' '.join(argv)} exits 0")
    return buf.getvalue().strip().splitlines()


def check_report(workload: str, trace: int, spec: dict):
    lines = run_main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                      "--trace", str(trace)])
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace {trace}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: no failed operations ({result['failed']} of "
          f"{result['attempted']})")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{workload} trace {trace}: metrics are exactly those of BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        printed = any(line.startswith(f"{m['name']}: ") and f" {m['unit']}" in line
                      for line in lines[:-1])
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
              and printed, f"{workload} trace {trace}: {m['name']} printed with unit {m['unit']}")


def perturb_row(path: Path, column: int, row_index: int = 0):
    """Add 1 to one numeric cell of a data row."""
    lines = path.read_bytes().decode().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    target = data[row_index]
    row = lines[target].rstrip("\r\n")
    cells = row.split(",")
    value = cells[column]
    cells[column] = str(int(value) + 1) if value.lstrip("-").isdigit() else repr(float(value) + 1.0)
    lines[target] = ",".join(cells) + lines[target][len(row):]
    path.write_bytes("".join(lines).encode())


def check_perturbations():
    import ergosum.cli as cli
    from workloads import build_configs

    for workload, filename, column in (("tower_ensemble", "series_000.csv", 1),
                                       ("orbit_count", "translate.csv", 1),
                                       ("orbit_count", "walk.csv", 2)):
        configs = build_configs(cli, WORKLOADS[workload], 7, run.WORKDIR / workload)
        before = sum(not ok for _, ok, _ in oracles.check_outputs(cli, configs))
        path = next(Path(c.out) / filename for c in configs
                    if (Path(c.out) / filename).exists())
        original = path.read_bytes()
        perturb_row(path, column)
        after = sum(not ok for _, ok, _ in oracles.check_outputs(cli, configs))
        check(before == 0 and after >= 1,
              f"perturbed {filename} row: oracle failures {before} -> {after}")
        path.unlink()
        missing = sum(not ok for _, ok, _ in oracles.check_outputs(cli, configs))
        path.write_bytes(original)
        check(missing >= 1, f"deleted {filename}: {missing} failed oracle checks")

    configs = build_configs(cli, WORKLOADS["renewal_scan"], 7, run.WORKDIR / "renewal_scan")
    ledger = run.Ledger()
    _, _, reference, _ = run.run_pass(cli, configs, ledger)
    target = Path(configs[0].out) / "renewal.csv"
    u_err_before = max(v for _, m, v in oracles.accuracy(configs) if m == "renewal_u_err")
    perturb_row(target, 1, row_index=5)
    u_err_after = max(v for _, m, v in oracles.accuracy(configs) if m == "renewal_u_err")
    check(u_err_before < 1e-9 and u_err_after >= 0.5,
          f"perturbed u row raises renewal_u_err {u_err_before:.3g} -> {u_err_after:.3g}")
    reference[str(target)] = oracles.data_digest(target)
    ledger = run.Ledger()
    run.run_pass(cli, configs, ledger, reference)
    check(len(ledger.failures) == 1 and ledger.attempted == len(configs),
          f"row comparison counts the perturbed file: {len(ledger.failures)} of "
          f"{ledger.attempted} failed")


def check_without_sources():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "orbit_count", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def check_calibration():
    check(set(run.HOST_KERNEL) == set(WORKLOADS)
          and set(run.HOST_KERNEL.values()) <= set(hostspeed.KERNELS),
          "every workload names a host-speed kernel")
    for kernel, nominal in hostspeed.NOMINAL_S.items():
        got = hostspeed.calibrated(3.0, [2 * nominal, 3 * nominal, 9 * nominal], kernel)
        check(abs(got - 1.0) < 1e-12, f"{kernel} rescaling: 3 s at a third of nominal "
                                      f"speed is {got} s")
        wall, cpu = hostspeed.sample(kernel)
        check(wall > 0 and cpu > 0, f"{kernel} sample: {wall:.4f} s wall, {cpu:.4f} s CPU")


def main() -> int:
    spec = run.load_spec()
    WORKLOADS.update(TINY)
    for workload in TINY:
        for trace in (0, 1):
            check_report(workload, trace, spec)
    check_perturbations()
    check_without_sources()
    check_calibration()
    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
