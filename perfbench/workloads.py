"""The benchmark's workloads: fixed lists of ergosum CLI invocations.

Each workload is a list of argument vectors for ``ergosum`` subcommands;
why each one exists is recorded in BENCHMARK.json.
The benchmark's ``--seed`` becomes every invocation's master ``--seed``;
each invocation writes into its own output directory.  Configs are built
by the CLI's own parser, so they carry the CLI defaults a user gets
(notably the thread count).
"""

from __future__ import annotations

from pathlib import Path

_DYADIC = "dyadic:10:40"

WORKLOADS = {
    # c=3 with one spacer reaches 2^40 in ~40 levels; c=2 with a 2q spacer
    # in ~20, so a descent change tuned to one shape shows on the other.
    "tower_ensemble": [
        ["rank-one", "--preset", "chacon", "--seeds", "400", "--checkpoints", _DYADIC],
        ["rank-one", "--preset", "heavy2q", "--seeds", "200", "--checkpoints", _DYADIC],
    ],
    # n = 2^12 and 2^15 take the direct path, 2^18 and the 2^20 au tables
    # the FFT path; the geometric cases have closed-form oracles.
    "renewal_scan": [
        ["renewal", "--dist", "geometric:0.3", "--n", "4096"],
        ["renewal", "--dist", "geometric:0.3", "--n", "32768"],
        ["renewal", "--dist", "harmonic", "--n", "4096"],
        ["renewal", "--dist", "harmonic", "--n", "32768"],
        ["renewal", "--dist", "geometric:0.7", "--n", "262144"],
        ["regvar", "--scaling", "au:geometric:0.7:1048576", "--p", "2,4,8",
         "--n-lo", "1024", "--n-hi", "131072"],
        ["regvar", "--scaling", "au:harmonic:1048576", "--p", "2,4,8",
         "--n-lo", "1024", "--n-hi", "131072"],
        ["dyadic-tail", "--dist", "harmonic", "--n", "40"],
        ["dyadic-tail", "--dist", "power:0.5", "--n", "28"],
    ],
    # Both signs of beta, both counting paths; horizons 2^10..2^13 are shared
    # by the float and exact runs of the golden action.  The infinite-mean
    # walk uses power:0.75, not power:0.5: at this size power:0.5 draws a
    # lifetime >= 2^62 (SamplingHorizonError, exit 3) for about 1 master
    # seed in 50, and a benchmark run must not fail for its seed.
    "orbit_count": [
        ["translate", "--alpha", "golden", "--beta", "1", "--x", "0.3",
         "--grid", "dyadic:10:22"],
        ["translate", "--alpha", "sqrt2", "--beta=-1", "--x", "0.1",
         "--grid", "dyadic:10:22"],
        ["translate", "--alpha", "golden", "--beta", "1", "--x", "0.3",
         "--exact", "--grid", "dyadic:6:13"],
        ["walk", "--dist", "geometric:0.5", "--N", "262144", "--seeds", "40"],
        ["walk", "--dist", "power:0.75", "--N", "262144", "--seeds", "40"],
        ["trimmed", "--dist", "harmonic", "--n", "100000", "--trials", "200"],
    ],
}

# The reference kernel (perfbench/hostspeed.py) that samples the host's
# speed during a timed pass: the one whose work is most like the
# workload's, as it tracked the host's drift best.
HOST_KERNEL = {
    "tower_ensemble": "python",
    "renewal_scan": "numpy",
    "orbit_count": "numpy",
}


def build_configs(cli, invocations, seed: int, outroot: Path) -> list:
    """Parse each invocation with the CLI parser into an ExperimentConfig."""
    parser = cli.build_parser()
    configs = []
    for index, argv in enumerate(invocations):
        out = outroot / f"{index:02d}-{argv[0]}"
        args = parser.parse_args([*argv, "--seed", str(seed), "--out", str(out)])
        configs.append(cli.config_from_args(args))
    return configs
