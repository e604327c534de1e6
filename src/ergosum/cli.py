"""Reproducible experiment runner.

Every experiment is described by a config (kind, parameters, master seed,
trial count); its outputs are CSV files only, byte-identical across
reruns and thread counts, each opening with '#'-prefixed provenance
lines (tool version, config hash; a trial kind's seed, trials, generator).
Each runner hands write_outputs its tables as columns, and write_outputs
alone cuts them into rows, checks their shape and formats them.

Each subcommand takes only the run settings its runner reads: rank-one and
walk take their trial count as --seeds, trimmed as --trials, and only walk
takes --threads; the other subcommands run one deterministic table.

Each run input has one spelling, and every spec grammar lives here:
lifetimes (parse_distribution), scalings (parse_scaling), checkpoint and
radius grids (parse_checkpoints) and reals (parse_real).

Exit codes: 0 success, 2 ConfigError, 3 ResourceLimitError or MemoryError,
4 InvariantViolationError; any other exception is a defect (traceback, 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import __version__, birkhoff, lattice, rankone, regvar, renewal
from .errors import (
    ConfigError,
    InvariantViolationError,
    ResourceLimitError,
    check_keys,
)
from .streams import BACKWARD_NAME, GENERATOR_NAME, spawn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

NAMED_CONSTANTS = {
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "sqrt2": math.sqrt(2.0),
}
# the str parameters that hold a number or a named constant
REAL_TEXTS = ("alpha", "beta")


class Param(NamedTuple):
    """One subcommand parameter: config key NAME, flag --NAME (``_`` as ``-``)."""

    type: type
    default: object = None
    help: str | None = None
    required: bool = False


_DIST = Param(str, help="lifetime distribution spec", required=True)
_N = Param(int, required=True)

# each subcommand's help and parameters: they build its flags, check every
# config of its kind, and give the runners their defaults
PARAMS = {
    "rank-one": ("tower orbit series and ratio statistics", {
        "preset": Param(str, help="one of " + ", ".join(rankone.PRESETS)),
        "data": Param(str, help="construction data JSON file"),
        "checkpoints": Param(str, "dyadic:10:24", "dyadic:LO:HI or comma list"),
        "burn_in": Param(int, 4096),
    }),
    "renewal": ("renewal sequence and prefix sums", {"dist": _DIST, "n": _N}),
    "queen": ("small-tail diagnostic series (F/L)^2", {"dist": _DIST, "n": _N}),
    "dyadic-tail": ("dyadic tail series 2^n F(t b(2^n))^2", {
        "dist": _DIST,
        "n": Param(int, help="largest dyadic index", required=True),
        "t": Param(float, 1.0),
        "scaling": Param(str, help="tm:DIST | au:DIST:NMAX (default tm of --dist)"),
    }),
    "trimmed": ("trimmed-sum Monte Carlo", {"dist": _DIST, "n": _N}),
    "translate": ("planar translation orbit counts", {
        "alpha": Param(str, help="number or golden/sqrt2", required=True),
        "beta": Param(str, "1.0", "number or golden/sqrt2"),
        "x": Param(float, 0.0),
        "grid": Param(str, help="box radius, comma list or dyadic:LO:HI",
                      required=True),
        # kept for saved configs that hold it, and because perfbench's
        # orbit_count workload passes --exact; it goes with that workload
        "exact": Param(bool, False, "no effect: counts are always exact"),
    }),
    "walk": ("random-walk skew-product orbit counts", {"dist": _DIST, "N": _N}),
    "regvar": ("regular-variation band diagnostics", {
        "scaling": Param(str, help="tm:DIST | au:DIST:NMAX | rankone:PRESET | identity",
                         required=True),
        "p": Param(str, "2,4,8"),
        "n_lo": Param(int, 2 ** 10),
        "n_hi": Param(int, 2 ** 20),
        "factor": Param(int, 2),
    }),
}

# the subcommands that run trials, with the flags of the run settings they
# read: the trial-count flag, then --threads where trials share a thread pool
TRIAL_FLAGS = {
    "rank-one": ("--seeds",),
    "trimmed": ("--trials",),
    "walk": ("--seeds", "--threads"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment deterministically.

    ``params`` holds the kind-specific knobs (``PARAMS``); a missing or
    null one takes its default.  ``trials`` is 1 for a kind outside
    ``TRIAL_FLAGS``, and ``threads`` 0 means all cores.  The config hash
    covers only the semantic payload (kind, ``values()``, trials, and the
    seed of a trial kind), so defaults given or left out, thread count,
    output location and a deterministic table's seed never change it; a
    'finite:@FILE' lifetime enters as the label of its masses, not its path.
    """

    kind: str
    params: dict
    seed: int = 1
    trials: int = 1
    threads: int = 0
    out: str = "."

    def __post_init__(self):
        # a saved config is free-form JSON: check it before anything runs
        for name, kind in get_type_hints(ExperimentConfig).items():
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"config field {name!r} must be {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if self.kind not in PARAMS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name in ("seed", "threads"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config field {name!r} must be >= 0, "
                                  f"got {getattr(self, name)}")
        if self.kind not in TRIAL_FLAGS and self.trials != 1:
            raise ConfigError(f"{self.kind} runs no trials: config field 'trials' "
                              f"must be 1, got {self.trials}")
        if self.trials < 1:
            raise ConfigError(f"config field 'trials' must be >= 1, got {self.trials}")
        params = PARAMS[self.kind][1]
        for name in self.params:
            if name not in params:
                raise ConfigError(f"{self.kind} has no parameter {name!r}")
        for name, p in params.items():
            value = self.params.get(name)
            if value is None:
                if p.required:
                    raise ConfigError(f"{self.kind} config misses parameter {name!r} "
                                      f"(--{name.replace('_', '-')})")
            # the types the parser produces; an int stands for a float
            elif type(value) is not p.type and (p.type, type(value)) != (float, int):
                raise ConfigError(f"{self.kind} parameter {name!r} must be "
                                  f"{p.type.__name__}, got {value!r}")
            elif p.type is float or name in REAL_TEXTS:
                real = value if p.type is float else parse_real(value)
                # false for inf, nan and an int too large for a float
                if not abs(real) <= sys.float_info.max:
                    raise ConfigError(f"{self.kind} parameter {name!r} must be finite, "
                                      f"got {value!r}")

    def values(self) -> dict:
        """Each parameter of this kind, typed as the parser types it, or its default."""
        return {name: p.default if self.params.get(name) is None
                else p.type(self.params[name])
                for name, p in PARAMS[self.kind][1].items()}

    def payload(self) -> dict:
        params = _given(self.values())
        for name in ("dist", "scaling"):
            if name in params:
                params[name] = _hashed_spec(params[name])
        if "data" in params:
            data = _load_construction(None, params["data"])
            params["data"] = {"stages": [asdict(s) for s in data.stages],
                              "repeat_from": data.repeat_from}
        seed = {"seed": self.seed} if self.kind in TRIAL_FLAGS else {}
        return {"kind": self.kind, "params": params, **seed, "trials": self.trials}

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


def _hashed_spec(spec: str) -> str:
    """A lifetime or scaling spec with each 'finite:@FILE' replaced by the
    label of the masses in the file, so that a hash covers the masses."""
    head, _, rest = spec.partition(":")
    if head == "finite" and rest.startswith("@"):
        return _read_finite(rest[1:]).label
    if head == "tm":
        return f"tm:{_hashed_spec(rest)}"
    if head == "au":
        dist_spec, _, nmax = rest.rpartition(":")
        return f"au:{_hashed_spec(dist_spec)}:{nmax}"
    return spec


def _given(values: dict) -> dict:
    """The values without None (no flag given) and False (a switch not set)."""
    return {k: v for k, v in values.items() if v is not None and v is not False}


# -- small parsers -----------------------------------------------------------


def parse_checkpoints(spec: str) -> tuple[int, ...]:
    """'dyadic:LO:HI' -> (2^LO, ..., 2^HI); otherwise one int or a comma list."""
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
    """'geometric:p', 'power:gamma', 'harmonic', 'delta:k' or 'finite:@FILE'.

    A spec other than a file is the ``label`` of the lifetime it builds, so
    one lifetime has one spelling: 'power:1' is 'harmonic', and
    'geometric:5e-1' is 'geometric:0.5'.
    """
    head, _, rest = spec.partition(":")
    if head == "finite" and rest.startswith("@"):
        return _read_finite(rest[1:])
    try:
        if spec == "harmonic":
            f = renewal.PowerTail(1.0)
        elif head == "geometric":
            f = renewal.Geometric(float(rest))
        elif head == "power":
            f = renewal.PowerTail(float(rest))
        elif head == "delta":
            f = renewal.FiniteSupport.delta(int(rest))
        else:
            raise ConfigError(f"cannot parse lifetime distribution {spec!r}")
    except ValueError as exc:
        raise ConfigError(f"cannot parse lifetime distribution {spec!r}: {exc}") from exc
    if spec != f.label:
        raise ConfigError(f"lifetime distribution {spec!r} is spelled {f.label!r}")
    return f


# the lifetime kinds that are given by a spec of their own, not by a file
_SHORTHANDS = {"geometric": "geometric:p", "power_tail": "power:gamma",
               "harmonic": "harmonic"}


def _read_finite(path: str) -> renewal.FiniteSupport:
    """A distribution file: {"kind": "finite", "mass": [[k, p], ...]}, each
    atom k a JSON integer."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read distribution file {path!r}: {exc}") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if isinstance(kind, str) and kind in _SHORTHANDS:
        raise ConfigError(f"a distribution file holds kind 'finite' only; "
                          f"for kind {kind!r} use the spec {_SHORTHANDS[kind]!r}")
    check_keys(doc, ("kind", "mass"), "distribution file")
    if kind != "finite":
        raise ConfigError(f"distribution file kind must be 'finite', got {kind!r}")
    try:
        mass = [(k, float(p)) for k, p in doc["mass"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed distribution file {path!r}: "
                          f"{type(exc).__name__}: {exc}") from exc
    for k, _ in mass:
        if type(k) is not int:  # a float or a bool is no atom
            raise ConfigError(f"finite atoms must be integers, got {k!r}")
    return renewal.FiniteSupport(mass)


def parse_scaling(spec: str) -> regvar.ScalingSequence:
    """'tm:DIST', 'au:DIST:NMAX', 'rankone:PRESET', or 'identity'."""
    if spec == "identity":
        return regvar.ScalingSequence(lambda n: n, "identity")
    head, _, rest = spec.partition(":")
    if head == "tm":
        return renewal.truncated_mean_scaling(parse_distribution(rest))
    if head == "au":
        dist_spec, _, nmax = rest.rpartition(":")
        if not dist_spec or not nmax.isdigit():
            raise ConfigError(f"au scaling needs 'au:DIST:NMAX', got {spec!r}")
        seq = renewal.renewal_sequence(parse_distribution(dist_spec), int(nmax))
        return seq.as_scaling()
    if head == "rankone":
        return rankone.rank_one_scaling(rankone.Tower(rankone.load_preset(rest)))
    raise ConfigError(f"cannot parse scaling {spec!r}")


def _load_construction(preset: str | None, data_file: str | None) -> rankone.ConstructionData:
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
# Each returns a list of (table_name, fieldnames, columns): one column per
# field, all of one length, each a range, a list or tuple of cells, or a
# NumPy array.  write_outputs alone cuts them into rows.


def _map_trials(cfg: ExperimentConfig, fn):
    """Run fn(0..trials-1) on cfg.threads threads, at most os.cpu_count()
    (0: that many), results in index order.  Only walk trials use it: they
    spend their time in NumPy, which releases the GIL."""
    cores = os.cpu_count() or 1
    threads = min(cfg.threads or cores, cores)
    if threads == 1 or cfg.trials == 1:
        return [fn(i) for i in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(cfg.trials)))


def run_rank_one(cfg: ExperimentConfig):
    v = cfg.values()
    data = _load_construction(v["preset"], v["data"])
    cps = parse_checkpoints(v["checkpoints"])
    burn_in = v["burn_in"]
    # the default burn-in gives way to a grid that ends before it; a burn-in
    # given past every checkpoint is refused by normalized_stats
    if burn_in == PARAMS["rank-one"][1]["burn_in"].default and cps[-1] < burn_in:
        burn_in = max(cps[0], 1)
    # the scaling and every sampler share one lazily extended tower, so the
    # trials run in this thread (they hold the GIL; a pool would not help)
    tower = rankone.Tower(data)
    scaling = rankone.rank_one_scaling(tower)
    ensemble = birkhoff.series_from_names(
        [rankone.NameSampler(tower, spawn(cfg.seed, i)) for i in range(cfg.trials)],
        cps)
    stats = birkhoff.normalized_stats(ensemble, scaling, burn_in)
    fields = ("n", "s_plus", "s_minus", "sigma", "a_n", "ratio_sym", "ratio_plus")
    tables = [(f"series_{i:03d}", fields,
               list(zip(*birkhoff.series_rows(series, s, stats.a_n))))
              for i, (series, s) in enumerate(zip(ensemble, stats.series))]
    summary = [(s.sup_plus, s.sup_sym, s.inf_sym, s.oscillation) for s in stats.series]
    return [*tables, ("summary",
                      ("seed", "alpha_hat", "beta_hat", "beta_lower_hat", "oscillation"),
                      (range(len(summary)), *zip(*summary)))]


def run_renewal(cfg: ExperimentConfig):
    v = cfg.values()
    seq = renewal.renewal_sequence(parse_distribution(v["dist"]), v["n"])
    return [("renewal", ("n", "u", "a_u"), (range(v["n"] + 1), seq.u, seq.a_u))]


def run_queen(cfg: ExperimentConfig):
    v = cfg.values()
    qs = renewal.queen_series(parse_distribution(v["dist"]), v["n"])
    return [("queen", ("n", "tail", "L", "term", "Q"),
             (range(1, v["n"] + 1), qs.tails, qs.lengths, qs.terms, qs.partial_sums))]


def run_dyadic_tail(cfg: ExperimentConfig):
    v = cfg.values()
    f = parse_distribution(v["dist"])
    n_max = v["n"]
    renewal.check_dyadic_tail(v["t"], n_max)
    scaling = (parse_scaling(v["scaling"]) if v["scaling"]
               else renewal.truncated_mean_scaling(f))
    ds = renewal.dyadic_tail_series(f, scaling, v["t"], n_max)
    return [("dyadic_tail", ("n", "pow2", "b", "threshold", "term", "D"),
             (range(n_max + 1), [2 ** n for n in range(n_max + 1)], ds.b_values,
              ds.thresholds, ds.terms, ds.partial_sums))]


def run_trimmed(cfg: ExperimentConfig):
    v = cfg.values()
    res = renewal.trimmed_sum_trials(parse_distribution(v["dist"]), v["n"],
                                     cfg.trials, cfg.seed)
    summary = (v["n"], cfg.trials, res.b_n, res.mean, res.std,
               *res.quantiles.values())
    return [("trimmed", ("trial", "ratio"), (range(cfg.trials), res.ratios)),
            ("trimmed_summary",
             ("n", "trials", "b_n", "mean", "std", *res.quantiles),
             [[cell] for cell in summary])]


def run_translate(cfg: ExperimentConfig):
    v = cfg.values()
    action = lattice.TranslationAction(
        alpha=parse_real(v["alpha"]), beta=parse_real(v["beta"]), x=v["x"])
    grid = parse_checkpoints(v["grid"])
    results = [lattice.translate_counts(action, n_box) for n_box in grid]
    return [("translate", ("N", "count", "ratio"),
             (grid, [r.count for r in results], [r.ratio for r in results]))]


def run_walk(cfg: ExperimentConfig):
    v = cfg.values()
    f = parse_distribution(v["dist"])
    n_box = v["N"]
    seq = renewal.renewal_sequence(f, n_box)
    a_u = float(seq.a_u[n_box])
    if a_u == 0:
        raise ConfigError(f"a_u(N) = 0 at N = {n_box}: no renewal by N")

    def trial(i):
        return lattice.walk_counts(lattice.walk_sample(f, spawn(cfg.seed, i), J=n_box),
                                   n_box)

    counts = _map_trials(cfg, trial)
    trials = cfg.trials
    return [("walk", ("seed", "N", "count", "a_u", "ratio"),
             (range(trials), [n_box] * trials, counts, [a_u] * trials,
              [count / a_u for count in counts]))]


def run_regvar(cfg: ExperimentConfig):
    v = cfg.values()
    spec, n_lo, n_hi, factor = v["scaling"], v["n_lo"], v["n_hi"], v["factor"]
    p_spec = v["p"]
    try:
        p_values = tuple(int(tok) for tok in p_spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad p list {p_spec!r}") from exc
    regvar.check_band(p_values, n_lo, n_hi, factor)
    report = regvar.er_diagnostic(parse_scaling(spec), p_values, n_lo, n_hi, factor)
    return [("regvar_er", regvar.ERRow._fields, list(zip(*report.rows)))]


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
    """The header lines; seed, trials and streams only where the rows read them."""
    lines = [
        f"tool: ergosum {__version__}",
        f"experiment: {cfg.kind}",
        f"config-sha256: {cfg.config_hash()}",
    ]
    if cfg.kind in TRIAL_FLAGS:
        lines += [f"seed: {cfg.seed}", f"trials: {cfg.trials}", f"rng: {GENERATOR_NAME}"]
    if cfg.kind == "walk":
        lines.append(f"rng-backward: {BACKWARD_NAME}")
    return lines


# Tables are formatted this many rows at a time: a long table never holds all
# its cells or all its text, and larger blocks cost peak RSS.
_ROW_BLOCK = 256


def _blocks(columns):
    """The rows of equal-length columns, _ROW_BLOCK at a time, each block
    one flat list of cells filled a column at a time by slice assignment.

    Formatting floats is most of the time of a long table, and arrays
    repeat whole blocks: a renewal sequence settles to the bits of 1/mu,
    and one whose period divides _ROW_BLOCK repeats from the start.  An
    array block with the bytes of the one before reuses its values'
    strings, formatted once; bytes keep 0.0 and -0.0 apart, and NaN
    payloads too.  Other columns are sliced as they are.
    """
    width = len(columns)
    size = len(columns[0])
    # each column's previous block: its bytes, and its values or their str
    last = [(b"", None)] * width
    for lo in range(0, size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, size)
        cells = [None] * (width * (hi - lo))
        for j, column in enumerate(columns):
            part = column[lo:hi]
            if isinstance(part, np.ndarray):
                bits = part.tobytes()
                if bits != last[j][0]:
                    last[j] = bits, part.tolist()
                elif type(last[j][1][0]) is not str:
                    last[j] = bits, list(map(str, last[j][1]))
                part = last[j][1]
            cells[j::width] = part
        yield cells


def write_outputs(cfg: ExperimentConfig, tables) -> list[Path]:
    """Write the list tables of (name, fields, columns) to OUT/name.csv; unless
    each has one column per field, all of one length, no file opens."""
    for name, fields, columns in tables:
        lengths = [len(column) for column in columns]
        if len(columns) != len(fields) or len(set(lengths)) > 1:
            raise InvariantViolationError(f"table {name!r} has {len(fields)} fields "
                                          f"but columns of lengths {lengths}")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    header = provenance_lines(cfg)
    written = []
    for name, fields, columns in tables:
        path = outdir / f"{name}.csv"
        # every cell is a field name, a number or "": none needs quoting,
        # and "%s" of a cell is its str
        line = ",".join(["%s"] * len(fields)) + "\r\n"
        with open(path, "w", newline="") as fh:
            for text in header:
                fh.write(f"# {text}\n")
            fh.write(line % tuple(fields))
            for block in _blocks(columns):
                fh.write(line * (len(block) // len(fields)) % tuple(block))
        written.append(path)
    return written


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute a config and write its outputs; deterministic given (config, seed)."""
    return write_outputs(cfg, RUNNERS[cfg.kind](cfg))


# -- argument parsing ----------------------------------------------------------


def _add_common(sub, kind):
    sub.add_argument("--config", help="saved JSON config, run as saved; "
                                       "it needs no other flag")
    sub.add_argument("--out", default=ExperimentConfig.out, help="output directory")
    sub.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                     help="master seed (u64)")
    flags = TRIAL_FLAGS.get(kind, ())
    if flags:
        sub.add_argument(flags[0], type=int, default=ExperimentConfig.trials,
                         dest="trials", help="number of independent trials/streams")
    if "--threads" in flags:
        sub.add_argument("--threads", type=int, default=ExperimentConfig.threads,
                         help="threads for the trials (0 = all cores); "
                              "never changes output rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergosum",
        description="Reproducible occupation-statistics experiments")
    parser.add_argument("--version", action="version",
                        version=f"ergosum {__version__}")
    subs = parser.add_subparsers(dest="kind", required=True)
    for kind, (help_text, params) in PARAMS.items():
        sub = subs.add_parser(kind, help=help_text)
        _add_common(sub, kind)
        for name, p in params.items():
            flag = "--" + name.replace("_", "-")
            if p.type is bool:
                sub.add_argument(flag, action="store_true", help=p.help)
            else:
                sub.add_argument(flag, type=p.type, default=p.default, help=p.help)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        return ExperimentConfig.from_json(text)
    params = _given({name: getattr(args, name) for name in PARAMS[args.kind][1]})
    # the run settings this subcommand takes; the others keep their defaults
    settings = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                if f.name not in ("kind", "params") and hasattr(args, f.name)}
    return ExperimentConfig(kind=args.kind, params=params, **settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        written = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, MemoryError) as exc:
        # a MemoryError is an allocation the machine refused
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
