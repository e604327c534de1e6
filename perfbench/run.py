#!/usr/bin/env python3
"""End-to-end benchmark of ergosum's experiment CLI, with a traced run per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/workloads.py) are fixed lists of CLI invocations,
run in-process through ``ergosum.cli.run`` one after another (closed loop,
one process); ``--seed`` is every invocation's master seed.  The program
is imported from ``src/`` of the checkout this file sits in; without it
the benchmark exits with status 2.

A run first makes a reference pass at the CLI-default thread count in a
fresh interpreter (perfbench/probe.py), whose peak RSS is reported, then
single-threaded passes in-process for ``--seconds`` (an untimed warm-up
pass, then at least MIN_PASSES timed ones).
Data rows of every pass must equal the reference rows byte for byte, which
checks determinism across passes and thread counts; the last pass's
outputs are then checked against the oracles in perfbench/oracles.py.

The timed passes are single-threaded because at the CLI default of two
threads on a 2-vCPU virtual machine the trials contend for the interpreter
lock and stall whenever the host preempts a vCPU: tower_ensemble's median
pass wall time then spread by a third of its median over 10 seeds
(quartile distance), against 0.15 single-threaded.

``--trace 0`` reports the end-to-end metrics: median wall and CPU time of a
pass, the median set-up time of fresh interpreters, and peak RSS.  Before
each config of a timed pass and after the last one, a fixed reference
kernel of the workload's kind (perfbench/hostspeed.py) samples the host's
speed, and the pass's
times are rescaled to the nominal host speed by the median sample: on a
shared host the speed of a vCPU drifts by tens of per cent within a
minute, and unscaled medians of half-minute runs then spread by up to a
quarter of their median from run to run.  The unscaled figures are
printed beside them.  Set-up time is not rescaled: it is
spent in imports and process start-up, which the kernels do not track.
``--trace 1`` instead alternates untraced and traced passes (spans from
perfbench/tracing.py) and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import HOST_KERNEL, WORKLOADS, build_configs  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3

EXIT_NO_PROGRAM = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


# -- environment -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def provenance(ergosum, seed: int) -> dict:
    """Commit, backend, versions and machine size; call after importing ergosum.cli."""
    import numpy

    scipy = sys.modules.get("scipy")
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError as exc:
            commit = f"unavailable ({exc})"
    return {
        "commit": commit,
        "backend": getattr(ergosum, "BACKEND", "n/a"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy else "not imported by ergosum",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- set-up ----------------------------------------------------------------------


def probe(workload: str, seed: int, outroot: Path, importtime=False, one_pass=False):
    """Run perfbench/probe.py on the workload's invocations in a fresh interpreter.

    Returns (process wall seconds, the probe's JSON report, its stderr).
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), *(["pass"] if one_pass else [])]
    request = json.dumps({"invocations": WORKLOADS[workload], "seed": seed,
                          "outroot": str(outroot)})
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=request, capture_output=True, text=True,
                          env=child_env(), timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` log (children are listed before their parents)."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1))))
    total_us = 0
    ancestors = []  # (depth, name) of the enclosing imports, outermost first
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
            total_us += cumulative_us
        ancestors.append((depth, name))
    return total_us * 1e-6


# -- passes ----------------------------------------------------------------------


class Ledger:
    """Operations attempted, and a description of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_pass(cli, configs, ledger: Ledger, reference=None, tag="pass", kernel=None):
    """Run every config once; return (wall s, cpu s, {path: data digest},
    host-speed samples).

    A config that raises, or (given ``reference``) whose data rows differ
    from the reference digests, is a failed operation.  Given a hostspeed
    ``kernel``, a sample of it is taken before each config and after the
    last one, outside the timed spans.
    """
    gc.collect()
    written, host = {}, []
    wall = cpu = 0.0
    for cfg in configs:
        if kernel is not None:
            host.append(hostspeed.sample(kernel))
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            written[cfg.out] = cli.run(cfg)
        except Exception as exc:  # a failed config is counted, the pass goes on
            written[cfg.out] = None
            ledger.record(False, f"{tag} {oracles.label(cfg)}: {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
    if kernel is not None:
        host.append(hostspeed.sample(kernel))
    digests = {}
    for cfg in configs:
        paths = written[cfg.out]
        if paths is None:
            continue
        got = {str(p): oracles.data_digest(p) for p in paths}
        digests.update(got)
        if reference is not None:
            same = bool(got) and all(reference.get(p) == d for p, d in got.items())
            ledger.record(same, f"{tag} {oracles.label(cfg)}: data rows differ from "
                                f"the reference pass")
    return wall, cpu, digests, host


def fits(start: float, step: float, seconds: float) -> bool:
    """Whether one more step of about ``step`` seconds ends within the budget."""
    return time.perf_counter() - start + step <= seconds


def single_threaded(configs):
    return [dataclasses.replace(cfg, threads=1) for cfg in configs]


# -- reporting -------------------------------------------------------------------


def calibrated_note(samples, what):
    return (f"median of {len(samples)} {what}, each rescaled to the nominal host speed; "
            f"as measured: median {statistics.median(samples):.4f}, "
            f"min {min(samples):.4f}, max {max(samples):.4f}")


def trace_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass of ``wall`` seconds (times are self times)."""
    st, tot, calls, cnt = tracer.self_time, tracer.total, tracer.calls, tracer.counts
    windows = calls["rankone.window_counts"]
    columns = cnt["lattice.translate_columns"]
    translate_total = tot["lattice.translate_float"] + tot["lattice.translate_exact"]
    self_sum = sum(st.values())
    values = {
        "rankone.window_counts_s": st["rankone.window_counts"],
        "rankone.window_counts_calls": windows,
        "rankone.levels_max": cnt["rankone.levels_max"],
        "rankone.us_per_window": tot["rankone.window_counts"] / windows * 1e6 if windows else 0.0,
        "birkhoff.series_from_name_s": st["birkhoff.series_from_name"],
        "birkhoff.normalized_stats_s": st["birkhoff.normalized_stats"],
        "birkhoff.series_rows_s": st["birkhoff.series_rows"],
        "regvar.scaling_calls": calls["regvar.scaling"],
        "regvar.scaling_s": st["regvar.scaling"],
        "regvar.er_diagnostic_s": st["regvar.er_diagnostic"],
        "regvar.invert_scaling_s": st["regvar.invert_scaling"],
        "renewal.direct_s": st["renewal.direct"],
        "renewal.direct_n": cnt["renewal.direct_n"],
        "renewal.fft_s": st["renewal.fft"],
        "renewal.fft_n": cnt["renewal.fft_n"],
        "renewal.trimmed_s": st["renewal.trimmed_sum_trials"],
        "renewal.draws": cnt["renewal.draws"],
        "kernels.renewal_convolve_s": st["kernels.renewal_convolve"],
        "kernels.translate_count_s": st["kernels.translate_count"],
        "lattice.translate_float_s": st["lattice.translate_float"],
        "lattice.translate_exact_s": st["lattice.translate_exact"],
        "lattice.translate_columns": columns,
        "lattice.ns_per_column": translate_total / columns * 1e9 if columns else 0.0,
        "lattice.walk_sample_s": st["lattice.walk_sample"],
        "lattice.walk_counts_s": st["lattice.walk_counts"],
        "lattice.walk_steps": cnt["lattice.walk_steps"],
        "cli.runner_s": sum(t for n, t in st.items() if n.startswith("cli.run_")),
        "cli.write_outputs_s": st["cli.write_outputs"],
        "cli.files_written": cnt["cli.files_written"],
        "cli.bytes_written": cnt["cli.bytes_written"],
        "trace.wall_s": wall,
        "trace.remainder_s": wall - self_sum,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self(layer)
    return values


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- measurements ---------------------------------------------------------------


def end_to_end(cli, args, configs, ledger, reference, ref, outroot):
    """Set-up samples, then a warm-up pass and timed single-threaded passes,
    with host-speed samples (perfbench/hostspeed.py) around each config."""
    setup, imports = [], []
    for _ in range(SETUP_SAMPLES):
        elapsed, report, _ = probe(args.workload, args.seed, outroot)
        setup.append(elapsed)
        imports.append(report["import_s"])
    serial = single_threaded(configs)
    start = time.perf_counter()
    # warm-up: the first pass and the first sample of a process run cold
    # (lazy imports, FFT plans, first-touch memory) and are not timed
    kernel = HOST_KERNEL[args.workload]
    hostspeed.sample(kernel)
    run_pass(cli, serial, ledger, reference, tag="warm-up pass")
    walls, cpus, scaled_walls, scaled_cpus, samples = [], [], [], [], []
    while len(walls) < MIN_PASSES or fits(start, (time.perf_counter() - start) / (len(walls) + 1),
                                          args.seconds):
        wall, cpu, _, host = run_pass(cli, serial, ledger, reference,
                                      tag=f"pass {len(walls) + 1}", kernel=kernel)
        walls.append(wall)
        cpus.append(cpu)
        scaled_walls.append(hostspeed.calibrated(wall, [h[0] for h in host], kernel))
        scaled_cpus.append(hostspeed.calibrated(cpu, [h[1] for h in host], kernel))
        samples += host
    metrics = {
        "wall_s": statistics.median(scaled_walls),
        "cpu_s": statistics.median(scaled_cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": ref["peak_rss_mb"],
    }
    notes = {
        "wall_s": calibrated_note(walls, "passes"),
        "cpu_s": calibrated_note(cpus, "passes"),
        "setup_s": f"median of {len(setup)} fresh interpreters; min {min(setup):.4f}, "
                   f"max {max(setup):.4f}" +
                   f"; import ergosum.cli {statistics.median(imports):.4f} s",
        "peak_rss_mb": "ru_maxrss of the fresh interpreter that ran the reference pass",
    }
    sample_walls = [h[0] for h in samples]
    lines = [f"host speed: {kernel} kernel sample median "
             f"{statistics.median(sample_walls):.4f} s wall (nominal "
             f"{hostspeed.NOMINAL_S[kernel]} s; range {min(sample_walls):.4f}-"
             f"{max(sample_walls):.4f} s over {len(samples)} samples)"]
    return metrics, notes, lines


def per_layer(cli, args, configs, ledger, reference, outroot):
    """Untraced and traced single-threaded passes, then import-time probes."""
    serial = single_threaded(configs)
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or fits(start, (time.perf_counter() - start) / len(traced),
                             args.seconds):
        wall, _, _, _ = run_pass(cli, serial, ledger, reference,
                                 tag=f"untraced pass {len(plain) + 1}")
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, _, _, _ = run_pass(cli, serial, ledger, reference,
                                     tag=f"traced pass {len(traced) + 1}")
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append((trace_metrics(tracer, wall), dict(tracer.self_time),
                         dict(tracer.calls), dict(tracer.scaling_by_name)))
    imports, scipy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        _, report, log = probe(args.workload, args.seed, outroot, importtime=True)
        imports.append(report["import_s"])
        scipy_s.append(scipy_import_seconds(log))
    # per-layer values of the traced pass with the median wall time
    order = sorted(range(len(traced)), key=traced.__getitem__)
    values, self_times, calls, scaling_by_name = per_pass[order[len(order) // 2]]
    metrics = dict(values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.import_scipy_s"] = statistics.median(scipy_s)
    notes = {
        "cli.import_s": f"median of {IMPORTTIME_SAMPLES} fresh interpreters under -X importtime",
        "cli.import_scipy_s": "cumulative import time of the outermost scipy modules",
        "trace.overhead_s": "median traced minus median untraced pass",
    }
    lines = [f"traced passes: {len(traced)} (walls {', '.join(f'{w:.3f}' for w in traced)} s); "
             f"untraced: {len(plain)} "
             f"(walls {', '.join(f'{w:.3f}' for w in plain)} s)",
             "layer self time in the median traced pass:"]
    wall = values["trace.wall_s"]
    for layer in LAYERS:
        t = values[f"{layer}.self_s"]
        lines.append(f"  {layer:<10} {t:9.4f} s  {100 * t / wall:5.1f} %")
    lines.append(f"  {'remainder':<10} {values['trace.remainder_s']:9.4f} s  "
                 f"{100 * values['trace.remainder_s'] / wall:5.1f} %  (outside any span)")
    lines.append(f"  {'total':<10} {wall:9.4f} s")
    lines.append("span self times:")
    for name in sorted(self_times, key=self_times.get, reverse=True):
        lines.append(f"  {name:<36} {self_times[name]:9.4f} s  {calls.get(name, 0):8d} calls")
    if scaling_by_name:
        lines.append("regvar.scaling self time by sequence:")
        for name, t in sorted(scaling_by_name.items()):
            lines.append(f"  {name:<36} {t:9.4f} s")
    return metrics, notes, lines


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ergosum" / "__init__.py").is_file():
        print("perfbench: no ergosum package under src/ of this checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import ergosum
    import ergosum.cli as cli

    if Path(ergosum.__file__).resolve().parent != (SRC / "ergosum").resolve():
        print(f"perfbench: imported ergosum from {ergosum.__file__}, not src/",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    outroot = WORKDIR / args.workload
    shutil.rmtree(outroot, ignore_errors=True)
    configs = build_configs(cli, WORKLOADS[args.workload], args.seed, outroot)
    ledger = Ledger()
    lines = [f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
             f"trace: {args.trace}  configs: {len(configs)}",
             f"provenance: {json.dumps(provenance(ergosum, args.seed), sort_keys=True)}"]

    # reference pass: CLI-default threads in a fresh interpreter, whose peak RSS is reported
    _, ref, _ = probe(args.workload, args.seed, outroot, one_pass=True)
    reference = {}
    for cfg in configs:
        error = ref["errors"].get(cfg.out)
        ledger.record(error is None, f"reference pass {oracles.label(cfg)}: {error}")
        for path in ref["written"].get(cfg.out, []):
            reference[path] = oracles.data_digest(Path(path))

    if args.trace == 0:
        metrics, notes, extra = end_to_end(cli, args, configs, ledger, reference, ref, outroot)
    else:
        metrics, notes, extra = per_layer(cli, args, configs, ledger, reference, outroot)
    lines += extra

    # oracles on the outputs the last pass left on disk
    for name, ok, detail in oracles.check_outputs(cli, configs):
        ledger.record(ok, f"{name}: {detail}")
    accuracy = oracles.accuracy(configs)
    for measure in ("renewal_u_err", "renewal_au_relerr", "renewal_residual"):
        vals = [v for _, m, v in accuracy if m == measure]
        note = (f"max over {len(vals)} configs" if vals
                else "n/a: the workload writes no rows it applies to")
        if args.trace == 1:
            metrics[measure] = max(vals, default=0.0)
            notes[measure] = note
        else:
            lines.append(f"{measure}: {max(vals):.6g} 1  ({note})" if vals
                         else f"{measure}: {note}")
    if args.trace == 1 and accuracy:
        lines.append("accuracy by config:")
        for cfg_label, measure, value in accuracy:
            lines.append(f"  {measure:<18} {value:.6g}  {cfg_label}")

    failed = len(ledger.failures)
    lines.append(f"failed_frac: {failed / ledger.attempted:.6g} 1 "
                 f"({failed} of {ledger.attempted} operations)")
    for what in ledger.failures[:20]:
        lines.append(f"FAILED: {what}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        lines.append(f"{name}: {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
