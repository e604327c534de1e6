"""The surface of ergosum that the benchmark in perfbench/ reads, at tiny sizes.

perfbench/selftest.py runs the whole harness and takes tens of seconds.
These checks are quick: every workload invocation still parses into a
config, and the functions and attributes that the oracles
(perfbench/oracles.py) and the tracer (perfbench/tracing.py) read still
exist and answer as they expect.
"""

import ast
import dataclasses
import importlib.util
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from ergosum import birkhoff, cli, lattice, rankone, regvar, renewal
from ergosum.streams import spawn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_invocations_parse(workloads, tmp_path):
    parser = cli.build_parser()
    for name, invocations in workloads.WORKLOADS.items():
        for index, argv in enumerate(invocations):
            out = tmp_path / name / f"{index:02d}"
            args = parser.parse_args([*argv, "--seed", "5", "--out", str(out)])
            cfg = dataclasses.replace(cli.config_from_args(args), threads=1)
            assert cfg.kind == argv[0] and cfg.kind in cli.RUNNERS, argv
            assert (cfg.seed, cfg.threads, cfg.out) == (5, 1, str(out))


def test_rank_one_oracle_surface():
    data = rankone.load_preset("chacon")
    sampler = rankone.sample_name(data, spawn(5, 0))
    radius = 13
    level = sampler.ensure_window(radius)
    off = sampler.center_offset(level)
    word = rankone.expand_word(data, level).symbols
    assert len(word) == sampler.tower.q(level)
    assert word[off] == rankone.BASE
    s_minus = int(word[off - radius:off + 1].sum(dtype=np.int64))
    s_plus = int(word[off:off + radius + 1].sum(dtype=np.int64))
    counts = rankone.ensemble_window_counts([sampler], [radius])
    assert counts.tolist() == [[[s_minus, s_plus]]]


# the files each workload's subcommands write, and their headers: perfbench
# digests every file a run writes, and its oracles and accuracy measures
# index columns by position (series n..sigma, translate N and count, walk
# seed, N, count and a_u, renewal n, u and a_u, regvar_er p, n, a_n, a_pn)
_SERIES = ["n", "s_plus", "s_minus", "sigma", "a_n", "ratio_sym", "ratio_plus"]
_OUTPUTS = [
    (["rank-one", "--preset", "chacon", "--seeds", "2", "--checkpoints", "dyadic:4:8",
      "--burn-in", "16"],
     {"series_000.csv": _SERIES, "series_001.csv": _SERIES,
      "summary.csv": ["seed", "alpha_hat", "beta_hat", "beta_lower_hat", "oscillation"]}),
    (["renewal", "--dist", "geometric:0.5", "--n", "16"],
     {"renewal.csv": ["n", "u", "a_u"]}),
    (["regvar", "--scaling", "au:geometric:0.5:64", "--p", "2,4", "--n-lo", "4",
      "--n-hi", "16"],
     {"regvar_er.csv": ["p", "n", "a_n", "a_pn", "ratio"]}),
    (["translate", "--alpha", "golden", "--grid", "dyadic:2:4", "--exact"],
     {"translate.csv": ["N", "count", "ratio"]}),
    (["walk", "--dist", "power:0.75", "--N", "64", "--seeds", "2", "--threads", "1"],
     {"walk.csv": ["seed", "N", "count", "a_u", "ratio"]}),
]


@pytest.mark.parametrize("argv,headers", _OUTPUTS, ids=[argv[0] for argv, _ in _OUTPUTS])
def test_outputs_the_benchmark_reads(argv, headers, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rank-one's review flag
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0].split(",") == header, name
        assert len(data) > 1, name


def test_walk_and_renewal_oracle_surface():
    f = cli.parse_distribution("geometric:0.5")
    sample = lattice.walk_sample(f, spawn(5, 0), J=64)
    assert sample.J == 64
    # the oracle recounts from the steps: each side's, up to the first
    # partial sum past J, are the first draws of its stream, the trial's
    # own forward and the one jumped from it backward
    rng = spawn(5, 0)
    backward = np.random.Generator(rng.bit_generator.jumped())
    blocks = f.sample(rng, 64), f.sample(backward, 64)
    for steps, block in zip((sample.omega_forward, sample.omega_backward), blocks):
        kept = min(int(np.count_nonzero(np.cumsum(block) <= 64)) + 1, 64)
        assert np.array_equal(steps, block[:kept])
    seq = renewal.renewal_sequence(f, 64)
    assert len(seq.u) == 65
    # the tracer keys the renewal spans and counters by the engine's name
    assert isinstance(seq.method, str) and seq.method
    assert cli.parse_real("golden") == cli.NAMED_CONSTANTS["golden"]


def test_traced_functions_are_public():
    # perfbench/run.py reads these spans; the tracer wraps public functions
    traced = [birkhoff.series_from_names, birkhoff.normalized_stats,
              birkhoff.series_rows, rankone.ensemble_window_counts,
              regvar.er_diagnostic, regvar.invert_scaling,
              renewal.renewal_sequence, renewal.trimmed_sum_trials,
              lattice.translate_counts, lattice.walk_sample,
              lattice.walk_counts, cli.write_outputs, cli.run]
    for fn in traced:
        module = inspect.getmodule(fn)
        assert inspect.isfunction(fn) and not fn.__name__.startswith("_")
        assert getattr(module, fn.__name__) is fn
    assert all(fn.__name__.startswith("run_") for fn in cli.RUNNERS.values())


def test_samplers_define_their_own_sample():
    # the tracer wraps vars(cls)["sample"] as the renewal.sample span and
    # counts renewal.draws from it; an inherited sample would read 0
    for cls in (renewal.Geometric, renewal.PowerTail, renewal.FiniteSupport):
        assert "sample" in vars(cls), cls.__name__


def test_perfbench_reads_exist():
    # every module attribute that a perfbench script reads, such as
    # rankone.sample_name or cli.RUNNERS, is still defined
    modules = {m.__name__.rpartition(".")[2]: m
               for m in (birkhoff, cli, lattice, rankone, regvar, renewal)}
    reads, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.add(f"{node.value.id}.{node.attr}")
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert {"rankone.sample_name", "rankone.expand_word", "cli.run"} <= reads
    assert not missing, missing
