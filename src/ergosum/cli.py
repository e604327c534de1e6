"""Reproducible experiment runner.

Every experiment is described by a config (kind, parameters, master seed,
trial count); outputs are CSV files whose data rows are byte-identical
across reruns and thread counts, with '#'-prefixed provenance headers
(tool version, config hash, seed, generator).  A JSON
mirror of each table is written with --json.

Exit codes: 0 success, 2 config error, 3 resource/horizon error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

from . import __version__, birkhoff, lattice, rankone, regvar, renewal
from .errors import (
    ConfigError,
    ErgosumError,
    InvariantViolationError,
    ResourceLimitError,
)
from .streams import GENERATOR_NAME, spawn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

NAMED_CONSTANTS = {
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "sqrt2": math.sqrt(2.0),
}

DEFAULT_CHECKPOINTS = "dyadic:10:24"

# parameters read with no default; the parser requires the same flags
_REQUIRED_PARAMS = {"renewal": ("dist", "n"), "queen": ("dist", "n"),
                    "dyadic-tail": ("dist", "n"), "trimmed": ("dist", "n"),
                    "translate": ("alpha",), "walk": ("dist", "N"), "regvar": ("scaling",)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment deterministically.

    ``params`` holds the kind-specific knobs.  The config hash covers only
    the semantic payload (kind, params, seed, trials), so thread count and
    output location never change the recorded provenance.
    """

    kind: str
    params: dict
    seed: int = 1
    trials: int = 1
    threads: int = 1
    out: str = "."
    json_mirror: bool = False
    stamp: bool = False

    def __post_init__(self):
        # a saved config is free-form JSON: check it before anything runs
        for name, kind in get_type_hints(ExperimentConfig).items():
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"config field {name!r} must be {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        for key in _REQUIRED_PARAMS.get(self.kind, ()):
            if self.params.get(key) is None:
                raise ConfigError(f"{self.kind} config misses parameter {key!r}")
        if (self.kind == "translate" and self.params.get("N") is None
                and not self.params.get("grid")):
            raise ConfigError("translate needs --N or --grid")

    def payload(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "seed": self.seed, "trials": self.trials}

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
            return cls(**doc)
        except (json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"bad config file: {exc}") from exc

    def config_hash(self) -> str:
        canon = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# -- small parsers -----------------------------------------------------------


def parse_checkpoints(spec: str) -> tuple[int, ...]:
    """'dyadic:LO:HI' -> (2^LO, ..., 2^HI); otherwise a comma list of ints."""
    if spec.startswith("dyadic:"):
        try:
            _, lo, hi = spec.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad checkpoint spec {spec!r}") from exc
        if not 0 <= lo <= hi:
            raise ConfigError(f"bad checkpoint spec {spec!r}: need 0 <= LO <= HI")
        return tuple(2 ** e for e in range(lo, hi + 1))
    try:
        cps = tuple(int(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad checkpoint spec {spec!r}") from exc
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigError("checkpoints must be strictly increasing")
    return cps


def parse_real(text: str) -> float:
    if text in NAMED_CONSTANTS:
        return NAMED_CONSTANTS[text]
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number or named constant: {text!r}") from exc


def parse_distribution(spec: str) -> renewal.LifetimeDistribution:
    if spec.startswith("finite:@"):
        path = spec[len("finite:@"):]
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read distribution file {path!r}: {exc}") from exc
        return renewal.LifetimeDistribution.from_spec(doc)
    return renewal.LifetimeDistribution.parse(spec)


def parse_scaling(spec: str) -> regvar.ScalingSequence:
    """'tm:DIST', 'au:DIST:NMAX', 'rankone:PRESET', or 'identity'."""
    if spec == "identity":
        return regvar.ScalingSequence(lambda n: n, "identity")
    head, _, rest = spec.partition(":")
    if head == "tm":
        return renewal.truncated_mean_scaling(parse_distribution(rest)).as_scaling()
    if head == "au":
        dist_spec, _, nmax = rest.rpartition(":")
        if not dist_spec or not nmax.isdigit():
            raise ConfigError(f"au scaling needs 'au:DIST:NMAX', got {spec!r}")
        seq = renewal.renewal_sequence(parse_distribution(dist_spec), int(nmax))
        return seq.as_scaling()
    if head == "rankone":
        return rankone.rank_one_scaling(rankone.Tower(rankone.load_preset(rest)))
    raise ConfigError(f"cannot parse scaling {spec!r}")


def _load_construction(params: dict) -> rankone.ConstructionData:
    preset = params.get("preset")
    data_file = params.get("data")
    if (preset is None) == (data_file is None):
        raise ConfigError("give exactly one of --preset or --data")
    if preset is not None:
        return rankone.load_preset(preset)
    try:
        text = Path(data_file).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read construction file {data_file!r}: {exc}") from exc
    return rankone.ConstructionData.from_json(text)


# -- runners ------------------------------------------------------------------
# Each returns a list of (table_name, fieldnames, rows).


def _map_trials(cfg: ExperimentConfig, fn):
    """Run fn(0..trials-1) on cfg.threads threads, results in index order.

    Only walk trials use it: they spend their time in NumPy, which
    releases the GIL.
    """
    if cfg.threads <= 1 or cfg.trials <= 1:
        return [fn(i) for i in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, range(cfg.trials)))


def run_rank_one(cfg: ExperimentConfig):
    data = _load_construction(cfg.params)
    if cfg.params.get("radius") is not None:
        cps = (int(cfg.params["radius"]),)
    else:
        cps = parse_checkpoints(cfg.params.get("checkpoints", DEFAULT_CHECKPOINTS))
    burn_in = int(cfg.params.get("burn_in", 4096))
    if not any(n >= burn_in for n in cps):
        burn_in = cps[0] if cps[0] >= 1 else 1
    # the scaling and every sampler share one lazily extended tower, so the
    # trials run in this thread (they hold the GIL; a pool would not help)
    tower = rankone.Tower(data)
    scaling = rankone.rank_one_scaling(tower)
    ensemble = birkhoff.series_from_names(
        [rankone.NameSampler(tower, spawn(cfg.seed, i)) for i in range(cfg.trials)],
        cps)
    stats = birkhoff.normalized_stats(ensemble, scaling, burn_in)
    tables = []
    for i, series in enumerate(ensemble):
        tables.append((f"series_{i:03d}",
                       ("n", "s_plus", "s_minus", "sigma", "a_n",
                        "ratio_sym", "ratio_plus"),
                       birkhoff.series_rows(series, stats.series[i])))
    summary = [(i, s.sup_plus, s.sup_sym, s.inf_sym, s.oscillation)
               for i, s in enumerate(stats.series)]
    tables.append(("summary",
                   ("seed", "alpha_hat", "beta_hat", "beta_lower_hat",
                    "oscillation"),
                   summary))
    return tables


def run_renewal(cfg: ExperimentConfig):
    f = parse_distribution(cfg.params["dist"])
    n_max = int(cfg.params["n"])
    seq = renewal.renewal_sequence(f, n_max)
    rows = list(zip(range(n_max + 1), seq.u.tolist(), seq.a_u.tolist()))
    return [("renewal", ("n", "u", "a_u"), rows)]


def run_queen(cfg: ExperimentConfig):
    f = parse_distribution(cfg.params["dist"])
    n_max = int(cfg.params["n"])
    qs = renewal.queen_series(f, n_max)
    rows = list(zip(range(1, n_max + 1), qs.tails.tolist(), qs.lengths.tolist(),
                    qs.terms.tolist(), qs.partial_sums.tolist()))
    return [("queen", ("n", "tail", "L", "term", "Q"), rows)]


def run_dyadic_tail(cfg: ExperimentConfig):
    f = parse_distribution(cfg.params["dist"])
    n_max = int(cfg.params["n"])
    t = float(cfg.params.get("t", 1.0))
    scaling_spec = cfg.params.get("scaling") or f"tm:{cfg.params['dist']}"
    scaling = parse_scaling(scaling_spec)
    ds = renewal.dyadic_tail_series(f, scaling, t, n_max)
    rows = [(n, 2 ** n, ds.b_values[n], ds.thresholds[n],
             float(ds.terms[n]), float(ds.partial_sums[n]))
            for n in range(n_max + 1)]
    return [("dyadic_tail", ("n", "pow2", "b", "threshold", "term", "D"), rows)]


def run_trimmed(cfg: ExperimentConfig):
    f = parse_distribution(cfg.params["dist"])
    n = int(cfg.params["n"])
    res = renewal.trimmed_sum_trials(f, n, cfg.trials, cfg.seed)
    rows = [(i, float(r)) for i, r in enumerate(res.ratios)]
    q = res.quantiles
    summary = [(res.n, res.trials, res.b_n, res.mean, res.std,
                q["q05"], q["q25"], q["q50"], q["q75"], q["q95"])]
    return [("trimmed", ("trial", "ratio"), rows),
            ("trimmed_summary",
             ("n", "trials", "b_n", "mean", "std",
              "q05", "q25", "q50", "q75", "q95"),
             summary)]


def run_translate(cfg: ExperimentConfig):
    action = lattice.TranslationAction(
        alpha=parse_real(cfg.params["alpha"]),
        beta=parse_real(cfg.params.get("beta", "1.0")),
        x=float(cfg.params.get("x", 0.0)),
    )
    if cfg.params.get("grid"):
        horizons = parse_checkpoints(cfg.params["grid"])
    else:
        horizons = (int(cfg.params["N"]),)
    rows = []
    for n_box in horizons:
        res = lattice.translate_counts(action, n_box)
        rows.append((n_box, res.count, res.ratio))
    return [("translate", ("N", "count", "ratio"), rows)]


def run_walk(cfg: ExperimentConfig):
    f = parse_distribution(cfg.params["dist"])
    n_box = int(cfg.params["N"])
    seq = renewal.renewal_sequence(f, n_box)

    def trial(i):
        sample = lattice.walk_sample(f, spawn(cfg.seed, i), J=n_box)
        res = lattice.walk_counts(sample, n_box, renewal=seq)
        return (i, n_box, res.count, res.a_u_value, res.ratio_to_renewal)

    rows = _map_trials(cfg, trial)
    return [("walk", ("seed", "N", "count", "a_u", "ratio"), rows)]


def run_regvar(cfg: ExperimentConfig):
    spec = cfg.params["scaling"]
    n_lo = int(cfg.params.get("n_lo", 2 ** 10))
    n_hi = int(cfg.params.get("n_hi", 2 ** 20))
    factor = int(cfg.params.get("factor", 2))
    if cfg.params.get("sv"):
        head, _, rest = spec.partition(":")
        if head != "tm":
            raise ConfigError("--sv needs a truncated-mean scaling (tm:DIST)")
        tm = renewal.truncated_mean_scaling(parse_distribution(rest))
        rows = regvar.sv_diagnostic(tm.L, n_lo, n_hi, factor)
        return [("regvar_sv", regvar.SVRow._fields, rows)]
    p_spec = str(cfg.params.get("p", "2,4,8"))
    try:
        p_values = tuple(int(tok) for tok in p_spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad p list {p_spec!r}") from exc
    report = regvar.er_diagnostic(parse_scaling(spec), p_values, n_lo, n_hi, factor)
    return [("regvar_er", regvar.ERRow._fields, report.rows)]


RUNNERS = {
    "rank-one": run_rank_one,
    "renewal": run_renewal,
    "queen": run_queen,
    "dyadic-tail": run_dyadic_tail,
    "trimmed": run_trimmed,
    "translate": run_translate,
    "walk": run_walk,
    "regvar": run_regvar,
}


# -- output -------------------------------------------------------------------


def provenance_lines(cfg: ExperimentConfig) -> list[str]:
    lines = [
        f"tool: ergosum {__version__}",
        f"experiment: {cfg.kind}",
        f"config-sha256: {cfg.config_hash()}",
        f"seed: {cfg.seed}",
        f"trials: {cfg.trials}",
        f"rng: {GENERATOR_NAME}",
    ]
    if cfg.stamp:
        lines.append(f"timestamp: {datetime.now(timezone.utc).isoformat()}")
    return lines


def write_outputs(cfg: ExperimentConfig, tables) -> list[Path]:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    header = provenance_lines(cfg)
    written = []
    for name, fields, rows in tables:
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows(rows)
        written.append(path)
        if cfg.json_mirror:
            jpath = outdir / f"{name}.json"
            doc = {
                "provenance": header,
                "columns": list(fields),
                "rows": [list(r) for r in rows],
            }
            jpath.write_text(json.dumps(doc, sort_keys=True, default=str))
            written.append(jpath)
    return written


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute a config and write its outputs; deterministic given (config, seed)."""
    runner = RUNNERS.get(cfg.kind)
    if runner is None:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    return write_outputs(cfg, runner(cfg))


# -- argument parsing ----------------------------------------------------------


def _add_common(sub, trials_flag="--trials"):
    sub.add_argument("--config", help="JSON config file (overrides inline flags)")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=1, help="master seed (u64)")
    sub.add_argument(trials_flag, type=int, default=1, dest="trials",
                     help="number of independent trials/streams")
    sub.add_argument("--threads", type=int, default=0,
                     help="threads for walk trials (0 = all cores); "
                          "never changes output rows")
    sub.add_argument("--json", action="store_true", dest="json_mirror",
                     help="also write JSON mirrors")
    sub.add_argument("--stamp", action="store_true",
                     help="include a timestamp header line (breaks diffability)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergosum",
        description="Reproducible occupation-statistics experiments")
    parser.add_argument("--version", action="version",
                        version=f"ergosum {__version__}")
    subs = parser.add_subparsers(dest="kind", required=True)

    p = subs.add_parser("rank-one", help="tower orbit series and ratio statistics")
    _add_common(p, trials_flag="--seeds")
    p.add_argument("--preset", choices=rankone.PRESETS)
    p.add_argument("--data", help="construction data JSON file")
    p.add_argument("--radius", type=int, help="single checkpoint radius")
    p.add_argument("--checkpoints", default=DEFAULT_CHECKPOINTS,
                   help="dyadic:LO:HI or comma list")
    p.add_argument("--burn-in", type=int, default=4096, dest="burn_in")

    p = subs.add_parser("renewal", help="renewal sequence and prefix sums")
    _add_common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("queen", help="small-tail diagnostic series (F/L)^2")
    _add_common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("dyadic-tail", help="dyadic tail series 2^n F(t b(2^n))^2")
    _add_common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True, help="largest dyadic index")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--scaling", help="tm:DIST | au:DIST:NMAX (default tm of --dist)")

    p = subs.add_parser("trimmed", help="trimmed-sum Monte Carlo")
    _add_common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("translate", help="planar translation orbit counts")
    _add_common(p)
    p.add_argument("--alpha", required=True, help="number or golden/sqrt2")
    p.add_argument("--beta", default="1.0", help="number or golden/sqrt2")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--N", type=int)
    p.add_argument("--grid", help="dyadic:LO:HI of box radii")
    # kept so saved configs and their hashes stay valid
    p.add_argument("--exact", action="store_true",
                   help="no effect: counts are always exact")

    p = subs.add_parser("walk", help="random-walk skew-product orbit counts")
    _add_common(p, trials_flag="--seeds")
    p.add_argument("--dist", required=True)
    p.add_argument("--N", type=int, required=True)

    p = subs.add_parser("regvar", help="regular-variation band diagnostics")
    _add_common(p)
    p.add_argument("--scaling", required=True,
                   help="tm:DIST | au:DIST:NMAX | rankone:PRESET | identity")
    p.add_argument("--p", default="2,4,8")
    p.add_argument("--n-lo", type=int, default=2 ** 10, dest="n_lo")
    p.add_argument("--n-hi", type=int, default=2 ** 20, dest="n_hi")
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--sv", action="store_true",
                   help="tabulate L(2n)/L(n) instead of the band")

    return parser


_COMMON_KEYS = {"kind", "config", "out", "seed", "trials", "threads",
                "json_mirror", "stamp"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        return ExperimentConfig.from_json(text)
    params = {k: v for k, v in vars(args).items()
              if k not in _COMMON_KEYS and v is not None and v is not False}
    threads = args.threads
    if threads <= 0:
        import os
        threads = os.cpu_count() or 1
    return ExperimentConfig(
        kind=args.kind, params=params, seed=args.seed, trials=args.trials,
        threads=threads, out=args.out, json_mirror=args.json_mirror,
        stamp=args.stamp)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        written = run(cfg)
    except (ConfigError, ValueError) as exc:
        # the library's ValueErrors are range checks on the parameters
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ErgosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
