"""Checks of a workload's CSV outputs against independent oracles.

Run outside the timed passes, on the files the last pass wrote.  Each
check returns ``(name, ok, detail)``; a mismatch is a failed operation.

* rank-one: window counts recomputed by brute force over the materialized
  level word (``rankone.expand_word``) for a few trials, at checkpoints
  whose embedding level has q <= 1e5;
* translate: counts at N <= 2^13 recomputed with exact integer arithmetic
  on the binary values of the inputs, and float rows equal to ``--exact``
  rows on the horizons both runs share;
* walk: counts equal to a NumPy recount of |s_k| <= N over a resampled
  walk from the same stream.

The accuracy measures are computed from the data rows alone, with closed
forms for geometric lifetimes (u_n = p, a_u(n) = p n) and the renewal
equation for harmonic ones.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

WINDOW_ORACLE_MAX_Q = 10 ** 5
WINDOW_ORACLE_TRIALS = 4
TRANSLATE_ORACLE_MAX_N = 2 ** 13
WALK_ORACLE_TRIALS = 8
RESIDUAL_SAMPLES = 256


# -- reading outputs -----------------------------------------------------------


def data_lines(path: Path) -> list[str]:
    """Header row and data rows of a CSV output, provenance lines dropped."""
    with open(path, newline="") as fh:
        return [line for line in fh if not line.startswith("#")]


def data_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    body = b"".join(line for line in raw.splitlines(keepends=True)
                    if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(data_lines(path))
    return next(reader), list(reader)


def read_numeric(path: Path) -> np.ndarray:
    """All-numeric table as a 2-D float array (header dropped)."""
    lines = data_lines(path)[1:]
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _geometric_p(spec: str) -> float | None:
    head, _, rest = spec.partition(":")
    return float(rest) if head == "geometric" else None


def label(cfg) -> str:
    keys = ("preset", "dist", "scaling", "alpha", "beta", "x", "n", "N", "grid", "exact")
    parts = [f"{k}={cfg.params[k]}" for k in keys if k in cfg.params]
    return " ".join([cfg.kind, *parts])


# -- oracles -------------------------------------------------------------------


# errors of reading an output that is missing, truncated or malformed
UNREADABLE = (OSError, ValueError, IndexError, StopIteration)


def check_outputs(cli, configs) -> list[tuple[str, bool, str]]:
    """All oracle checks; an output the oracle cannot read is one failed check."""
    checks = []
    for cfg in configs:
        oracle = ORACLES.get(cfg.kind)
        if oracle is None:
            continue
        try:
            checks += oracle(cli, cfg)
        except UNREADABLE as exc:
            checks.append((f"{label(cfg)}: outputs unreadable", False,
                           f"{type(exc).__name__}: {exc}"))
    try:
        checks += check_translate_float_vs_exact(cli, configs)
    except UNREADABLE as exc:
        checks.append(("translate float vs --exact: outputs unreadable", False,
                       f"{type(exc).__name__}: {exc}"))
    return checks


def _oracle_trials(cfg, k: int) -> list[int]:
    return sorted(random.Random(cfg.seed).sample(range(cfg.trials), min(k, cfg.trials)))


def check_rank_one(cli, cfg) -> list[tuple[str, bool, str]]:
    from ergosum import rankone
    from ergosum.streams import spawn

    data = rankone.load_preset(cfg.params["preset"])
    words = {}
    checks = []
    for i in _oracle_trials(cfg, WINDOW_ORACLE_TRIALS):
        _, rows = read_rows(Path(cfg.out) / f"series_{i:03d}.csv")
        sampler = rankone.sample_name(data, spawn(cfg.seed, i))
        for row in rows:
            n, s_plus, s_minus, sigma = (int(v) for v in row[:4])
            level = sampler.ensure_window(n)
            if sampler.tower.q(level) > WINDOW_ORACLE_MAX_Q:
                break  # levels only grow with n
            if level not in words:
                words[level] = rankone.expand_word(data, level).symbols
            word = words[level]
            off = sampler.center_offset(level)
            left = int(word[off - n:off].sum(dtype=np.int64))
            center = int(word[off])
            right = int(word[off + 1:off + n + 1].sum(dtype=np.int64))
            want = (center + right, center + left, left + center + right)
            got = (s_plus, s_minus, sigma)
            checks.append((f"{label(cfg)} trial {i} n={n}: brute-force window",
                           got == want, f"csv {got} vs oracle {want}"))
    return checks


def translate_count_oracle(alpha: float, beta: float, x: float, n_box: int) -> int:
    """#{(k, l) in [-N, N]^2 : 0 <= x + k alpha + l beta < 1}, exactly.

    Over the common binary denominator D the condition reads
    0 <= X + k A + l B < D in integers; each k admits an interval of l.
    """
    fa, fb, fx = Fraction(alpha), Fraction(beta), Fraction(x)
    d = math.lcm(fa.denominator, fb.denominator, fx.denominator)
    a, b, x0 = int(fa * d), int(fb * d), int(fx * d)
    count = 0
    for k in range(-n_box, n_box + 1):
        t = x0 + k * a
        if b > 0:
            lo = -(t // b)                # ceil(-t / b)
            hi = -((t - d) // b) - 1      # ceil((d - t) / b) - 1
        else:
            lo = (d - t) // b + 1
            hi = (-t) // b
        lo, hi = max(lo, -n_box), min(hi, n_box)
        if hi >= lo:
            count += hi - lo + 1
    return count


def _translate_params(cli, cfg):
    p = cfg.params
    return (cli.parse_real(p["alpha"]), cli.parse_real(p.get("beta", "1.0")),
            float(p.get("x", 0.0)))


def check_translate(cli, cfg) -> list[tuple[str, bool, str]]:
    alpha, beta, x = _translate_params(cli, cfg)
    _, rows = read_rows(Path(cfg.out) / "translate.csv")
    checks = []
    for row in rows:
        n_box, count = int(row[0]), int(row[1])
        if n_box > TRANSLATE_ORACLE_MAX_N:
            continue
        want = translate_count_oracle(alpha, beta, x, n_box)
        checks.append((f"{label(cfg)} N={n_box}: exact integer count",
                       count == want, f"csv {count} vs oracle {want}"))
    return checks


def check_translate_float_vs_exact(cli, configs) -> list[tuple[str, bool, str]]:
    by_action = {}
    for cfg in configs:
        if cfg.kind == "translate":
            method = "exact" if cfg.params.get("exact") else "float"
            by_action.setdefault(_translate_params(cli, cfg), {})[method] = cfg
    checks = []
    for by_method in by_action.values():
        if len(by_method) != 2:
            continue
        rows = {m: {r[0]: r for r in read_rows(Path(c.out) / "translate.csv")[1]}
                for m, c in by_method.items()}
        for n_box in sorted(rows["float"].keys() & rows["exact"].keys(), key=int):
            f_row, e_row = rows["float"][n_box], rows["exact"][n_box]
            checks.append((f"{label(by_method['float'])} N={n_box}: float row equals --exact row",
                           f_row == e_row, f"float {f_row} vs exact {e_row}"))
    return checks


def check_walk(cli, cfg) -> list[tuple[str, bool, str]]:
    from ergosum import lattice
    from ergosum.streams import spawn

    f = cli.parse_distribution(cfg.params["dist"])
    n_box = int(cfg.params["N"])
    _, rows = read_rows(Path(cfg.out) / "walk.csv")
    by_seed = {int(r[0]): r for r in rows}
    checks = []
    for i in _oracle_trials(cfg, WALK_ORACLE_TRIALS):
        sample = lattice.walk_sample(f, spawn(cfg.seed, i), J=n_box)
        want = 1 + sum(int(np.count_nonzero(np.cumsum(steps) <= n_box))
                       for steps in (sample.omega_forward, sample.omega_backward))
        row = by_seed.get(i)
        got = (int(row[1]), int(row[2])) if row else None
        checks.append((f"{label(cfg)} trial {i}: NumPy recount",
                       got == (n_box, want), f"csv {got} vs oracle {(n_box, want)}"))
    return checks


ORACLES = {"rank-one": check_rank_one, "translate": check_translate, "walk": check_walk}


# -- accuracy from data rows -----------------------------------------------------


def accuracy(configs) -> list[tuple[str, str, float]]:
    """Per-config ``(config, measure, value)`` for renewal_u_err,
    renewal_au_relerr and renewal_residual."""
    table = []
    for cfg in configs:
        try:
            table += _accuracy(cfg)
        except UNREADABLE:
            continue  # the missing output already counts as a failed operation
    return table


def _accuracy(cfg) -> list[tuple[str, str, float]]:
    out = Path(cfg.out)
    if cfg.kind == "renewal":
        data = read_numeric(out / "renewal.csv")
        n, u, a_u = data[1:, 0], data[1:, 1], data[1:, 2]
        p = _geometric_p(cfg.params["dist"])
        if p is not None:
            return [(label(cfg), "renewal_u_err", float(np.max(np.abs(u - p)))),
                    (label(cfg), "renewal_au_relerr",
                     float(np.max(np.abs(a_u / (p * n) - 1.0))))]
        if cfg.params["dist"] == "harmonic":
            return [(label(cfg), "renewal_residual", harmonic_residual(data[:, 1]))]
    elif cfg.kind == "regvar" and cfg.params["scaling"].startswith("au:"):
        # au:DIST:NMAX
        p = _geometric_p(cfg.params["scaling"][len("au:"):].rpartition(":")[0])
        if p is not None:
            rows = read_numeric(out / "regvar_er.csv")
            mult, n, a_n, a_pn = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
            err = max(np.max(np.abs(a_n / (p * n) - 1.0)),
                      np.max(np.abs(a_pn / (p * mult * n) - 1.0)))
            return [(label(cfg), "renewal_au_relerr", float(err))]
    elif cfg.kind == "walk":
        p = _geometric_p(cfg.params["dist"])
        if p is not None:
            rows = read_numeric(out / "walk.csv")
            err = np.max(np.abs(rows[:, 3] / (p * rows[:, 1]) - 1.0))
            return [(label(cfg), "renewal_au_relerr", float(err))]
    return []


def harmonic_residual(u: np.ndarray) -> float:
    """max |u_n - sum_k f_k u_{n-k}| at about RESIDUAL_SAMPLES n, f_k = 1/(k(k+1))."""
    n_max = len(u) - 1
    k = np.arange(1, n_max + 1, dtype=np.float64)
    f = 1.0 / (k * (k + 1.0))
    ns = np.unique(np.linspace(1, n_max, RESIDUAL_SAMPLES).round().astype(np.int64))
    return float(max(abs(u[n] - np.dot(f[:n], u[n - 1::-1])) for n in ns))
