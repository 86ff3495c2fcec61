"""Benchmark workloads: seeded command lists and their output checks.

A workload is a fixed list of CLI commands, generated from the workload
seed and repeated in whole passes so that every run has the same mix. The
program only ever sees the generated argv. The parameter points are frozen
here rather than imported from the test grids, so that editing the tests
never changes what the benchmark measures.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# The 220 points of tests/grids.py GRIDS and the 8 CANONICAL points, frozen.
GRID_POINTS = {
    "ginar": [
        {"theta": th, "alpha": al}
        for th in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
        for al in (0.05, 0.2, 0.4, 0.6, 0.8)
    ],
    "nginar": [
        {"mu": mu, "alpha": f * mu / (1.0 + mu)}
        for mu in (0.5, 1.0, 2.0, 4.0)
        for f in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)
    ],
    "zmg": [
        {"mu": mu, "k": -1.0 / mu + f * (1.0 + 1.0 / mu)}
        for mu in (0.5, 1.0, 2.0)
        for f in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.7, 0.85, 0.95)
    ],
    "two-param": [
        {"r": r, "m": f * (1.0 + r)}
        for r in (0.5, 1.0, 2.0)
        for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    ],
    "rho-geo-bin": [
        {"mu": mu, "rho": rho, "alpha": al}
        for mu in (0.5, 1.0, 2.0)
        for rho in (0.1, 0.2, 0.3)
        for al in (0.1, 0.3, 0.5)
    ],
    "hurdle-geo-bin": [
        {"mu": f * rho / (1.0 + rho), "rho": rho, "alpha": al}
        for rho in (0.3, 0.5, 0.8)
        for f in (0.3, 0.6, 0.9)
        for al in (0.1, 0.4, 0.7)
    ],
    "rho-geo-nb": [
        {"mu": mu, "rho": rho, "alpha": f * mu / (1.0 + mu)}
        for mu in (0.5, 1.0, 2.0)
        for rho in (0.1, 0.3, 0.5)
        for f in (0.25, 0.5, 0.8)
    ],
    "hurdle-geo-nb": [
        {"mu": mu, "rho": rho, "alpha": al}
        for mu in (0.2, 0.5, 0.8)
        for rho in (0.3, 0.5, 0.8)
        for al in (0.05, 0.1, 0.2)
    ],
}

CANONICAL = {
    "ginar": {"theta": 0.5, "alpha": 0.5},
    "nginar": {"mu": 1.0, "alpha": 0.3},
    "zmg": {"mu": 1.0, "k": 0.3},
    "two-param": {"r": 2.0, "m": 1.0},
    "rho-geo-bin": {"mu": 1.0, "rho": 0.2, "alpha": 0.3},
    "hurdle-geo-bin": {"mu": 0.25, "rho": 0.5, "alpha": 0.3},
    "rho-geo-nb": {"mu": 1.0, "rho": 0.2, "alpha": 0.3},
    "hurdle-geo-nb": {"mu": 0.3, "rho": 0.5, "alpha": 0.2},
}

# Large-mean points: tables of 27k-322k rows and 1.5-18 MB of JSON.
# ginar theta <= 1e-5 is left out: the 1e6-entry tabulation cap refuses it
# today, and accepting it would change the work per command, not its speed.
WIDE_POINTS = [
    ("ginar", {"theta": 1e-4, "alpha": 0.5}),
    ("nginar", {"mu": 1e4, "alpha": 0.9}),
    ("rho-geo-nb", {"mu": 1e3, "rho": 0.2, "alpha": 0.5}),
    ("zmg", {"mu": 1e3, "k": 0.3}),
    ("two-param", {"r": 1e3, "m": 500.0}),
]

VERIFY_LONG_N = 1_000_000
WIDE_VERIFY_N = 100_000
SIMULATE_N = 200
SIMULATE_REPLICATES = 20

PMF_TOL = 1e-10
ORACLE_TERMS = 32
N_SE = 4.0

# Why each workload exists; BENCHMARK.json carries the one-line form.
WHY = {
    "derive-grid": "derive at all 220 grid points: pgf algebra, validation, closed "
                   "forms and CLI start-up are all of the work",
    "verify-long": "verify --n 1e6 at the 8 canonical points: the scalar simulation "
                   "loop is ~97% of each command",
    "simulate-short": "many short replicate paths written to CSV: per-call set-up "
                      "and output weigh as much as the per-step cost",
    "wide-tables": "derive and verify at 5 large-mean points: tabulation, 14-18 MB "
                   "of JSON and verify's moment sums dominate",
}


@dataclass(frozen=True)
class Command:
    kind: str  # derive | verify | simulate
    family: str
    params: tuple[tuple[str, float], ...]
    seed: int | None = None
    n: int | None = None

    @property
    def key(self) -> tuple:
        return (self.kind, self.family, self.params)

    def argv(self, outdir: Path) -> list[str]:
        flags = [s for k, v in self.params for s in (f"--{k}", repr(float(v)))]
        argv = [self.kind, self.family, *flags]
        if self.kind == "derive":
            return argv + ["--format", "json", "--output", str(outdir / "derive.json")]
        argv += ["--n", str(self.n), "--seed", str(self.seed)]
        if self.kind == "verify":
            return argv + ["--output", str(outdir / "verify.txt")]
        return argv + ["--replicates", str(SIMULATE_REPLICATES),
                       "--output", str(outdir / "sim.csv")]


def _cmd(kind: str, family: str, params: dict, seed: int | None = None,
         n: int | None = None) -> Command:
    return Command(kind, family, tuple(params.items()), seed, n)


def commands(workload: str, seed: int) -> list[Command]:
    """One pass of the workload; the seed fixes order and sampler seeds."""
    rng = random.Random(seed)

    def draw() -> int:
        return rng.randrange(2**31)

    if workload == "derive-grid":
        cmds = [_cmd("derive", f, p) for f, pts in GRID_POINTS.items() for p in pts]
        rng.shuffle(cmds)
        return cmds
    if workload == "verify-long":
        return [_cmd("verify", f, p, draw(), VERIFY_LONG_N) for f, p in CANONICAL.items()]
    if workload == "simulate-short":
        return [_cmd("simulate", f, p, draw(), SIMULATE_N) for f, p in CANONICAL.items()]
    if workload == "wide-tables":
        out = []
        for f, p in WIDE_POINTS:
            out += [_cmd("derive", f, p), _cmd("verify", f, p, draw(), WIDE_VERIFY_N)]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")


def expectations(cmds: list[Command]) -> dict:
    """Reference values per distinct command, computed before any timing.

    derive: the first ORACLE_TERMS pmf values from the exact-Fraction oracle
    in tests/oracles.py. simulate: the closed-form marginal mean, variance
    and alpha that the pooled-mean check needs.
    """
    from geominar.catalog import closed_form_moments
    from oracles import oracle_pmf

    out = {}
    for c in cmds:
        if c.key in out:
            continue
        p = dict(c.params)
        if c.kind == "derive":
            out[c.key] = oracle_pmf(c.family, ORACLE_TERMS - 1, **p)
        elif c.kind == "simulate":
            mom = closed_form_moments(c.family, **p)
            out[c.key] = (mom.marginal_mean, mom.marginal_var, p.get("alpha", 0.0))
    return out


def check_output(cmd: Command, rc: int, outdir: Path, expected) -> tuple[str | None, int]:
    """Check one command's output files, then delete them.

    Returns (failure reason or None, bytes the command wrote).
    """
    paths = sorted(outdir.iterdir())
    nbytes = sum(p.stat().st_size for p in paths)
    try:
        if rc != 0:
            return f"exit code {rc}", nbytes
        if cmd.kind == "derive":
            return _check_derive((outdir / "derive.json").read_text(), expected), nbytes
        if cmd.kind == "verify":
            lines = (outdir / "verify.txt").read_text().splitlines()
            ok = bool(lines) and lines[-1] == "overall: pass"
            return (None if ok else "verify did not report 'overall: pass'"), nbytes
        return _check_simulate(outdir, expected), nbytes
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", nbytes
    finally:
        for p in paths:
            p.unlink()


def _check_derive(text: str, oracle: list[float]) -> str | None:
    import json

    doc = json.loads(text)
    rows = doc["pmf"]
    if [m for m, _ in rows] != list(range(len(rows))):
        return "pmf rows are not indexed 0..T"
    table = [p for _, p in rows]
    if not all(p >= 0.0 and math.isfinite(p) for p in table):
        return "pmf table has a negative or non-finite entry"
    trunc = doc["truncation"]
    if trunc != len(table) - 1:
        return f"truncation {trunc} does not match {len(table)} rows"
    terms = [(t["rho"], t["s"]) for t in doc["terms"]]
    atoms = doc["atoms"]
    # geometric mass beyond index T: sum_i rho_i s_i^-(T+1) / (s_i - 1)
    tail = math.fsum(r * s ** (-(trunc + 1)) / (s - 1.0) for r, s in terms)
    mass = math.fsum(table) + tail
    if abs(mass - 1.0) > PMF_TOL:
        return f"table mass plus tail is {mass!r}, not 1"
    for m, want in enumerate(oracle):
        if m < len(table):
            got = table[m]
        else:
            got = (atoms[m] if m < len(atoms) else 0.0) + sum(r * s ** (-(m + 1))
                                                              for r, s in terms)
        if abs(got - want) > PMF_TOL:
            return f"pmf[{m}] = {got!r}, oracle {want!r}"
    return None


def _check_simulate(outdir: Path, expected) -> str | None:
    mean, var, alpha = expected
    total = 0
    count = 0
    header = ["t", "x"]
    for rep in range(SIMULATE_REPLICATES):
        lines = (outdir / f"sim_{rep:03d}.csv").read_text().splitlines()
        if len(lines) != SIMULATE_N + 1 or lines[0].split(",") != header:
            return f"replicate {rep}: expected a 't,x' header and {SIMULATE_N} rows"
        for t, line in enumerate(lines[1:]):
            ts, xs = line.split(",")
            if int(ts) != t or not xs.isdigit():
                return f"replicate {rep} row {t}: {line!r}"
            total += int(xs)
            count += 1
    # the mean of an AR(1) path has variance at most var (1+a)/(1-a) / n
    se = math.sqrt(var * (1.0 + alpha) / (1.0 - alpha) / count)
    pooled = total / count
    if abs(pooled - mean) > N_SE * se:
        return f"pooled mean {pooled!r} is more than {N_SE} SE from {mean!r}"
    return None
