"""Steadiness report for repeated benchmark runs of one commit.

    python3 bench/steadiness.py --runs 10 --first-seed 1
    python3 bench/steadiness.py --runs 5 --workloads verify-long --save a.json
    python3 bench/steadiness.py --compare a.json b.json

Runs bench/run.py once per seed and workload, one run at a time, and prints
for every metric of every workload its median, quartiles and relative spread
(q3 - q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives
them. End-to-end metrics whose spread exceeds a tenth are flagged, as is any
spread above a third of the metric's bound in BENCHMARK.json. ``--compare``
checks that the second set's median of each end-to-end metric is no worse
than the first's by more than the bound. Each run's values are saved as
JSON (default ``.bench_out/steadiness.json``).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPREAD_FLAG = 0.10


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(runs: dict[str, list[dict]], bench: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, rows in runs.items():
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        seeds = [r["seed"] for r in rows]
        print(f"{workload}: {len(rows)} runs, seeds {seeds}, error_rate "
              f"{failed / attempted:.6g} ({failed}/{attempted})")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in rows[0]["metrics"]:
            med, q1, q3, rel = spread([r["metrics"][name] for r in rows])
            flags = []
            if name in bounds and rel > SPREAD_FLAG:
                flags.append(f"spread > {SPREAD_FLAG}")
            if name in bounds and rel > bounds[name] / 3:
                flags.append(f"spread > bound/3 ({bounds[name] / 3:.3g})")
            print(f"  {name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                  f"{units.get(name, '')} {' '.join(flags)}")


def compare(first: dict, second: dict, bench: dict) -> bool:
    ok = True
    for m in bench["end_to_end"]:
        for workload in first:
            a = statistics.median(r["metrics"][m["name"]] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print(f"{workload:15s} {m['name']:12s} {a:12.6g} -> {b:12.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return ok


def main() -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="Benchmark steadiness report.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WHY), default=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, default=ROOT / ".bench_out" / "steadiness.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, bench) else 1

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs[workload] = [run_once(workload, seed, args.seconds, args.trace)
                          for seed in range(args.first_seed, args.first_seed + args.runs)]
    args.save.parent.mkdir(exist_ok=True)
    args.save.write_text(json.dumps(runs, indent=1) + "\n")
    report(runs, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
