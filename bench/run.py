"""geominar benchmark: one workload, one run.

    python3 bench/run.py --workload derive-grid --seed 1 --seconds 25 --trace 0

Run from a checkout that holds ``src/geominar``. The script first times
fresh ``python -m geominar catalog`` processes (set-up time), then runs the
workload in its own child process (bench/worker.py) with the BLAS and OpenMP
thread counts at 1, and checks every command's output. ``ops_per_s`` is
scaled to the nominal machine speed by interleaved reference work
(reference.py). It prints each metric
by name and unit, then, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

The full record of a run (seed, environment, load, failures) is written to
``.bench_out/results/`` in the checkout; spans of a traced run go to
``.bench_out/spans/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 12
# every run must end within 180 s; leave room for set-up and checks
WORKER_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # the same string hashes, and so the same dict and set layouts, in every run
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, cwd: Path, repeats: int, warm: bool) -> list[float]:
    """Wall times of fresh `python -m geominar catalog` processes.

    With ``warm`` one untimed run comes first, so the byte-code cache is
    written before timing. These are not scaled by reference work: a fresh
    process spends its time in exec, page faults and file reads, which the
    machine's drift moves differently from interpreted code.
    """
    times = []
    for i in range(repeats + warm):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "geominar", "catalog"], env=env,
                              cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        missing = [n for n in workloads.CANONICAL if n not in proc.stdout]
        if proc.returncode != 0 or missing:
            raise RuntimeError(f"`geominar catalog` failed (exit {proc.returncode}, "
                               f"missing {missing}): {proc.stderr.strip()}")
        if i or not warm:
            times.append(elapsed)
    return times


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one geominar benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "geominar" / "__init__.py").is_file():
        print(f"run.py: no geominar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / "results" / f"{tag}.json"
    result_path.parent.mkdir(exist_ok=True)
    result_path.unlink(missing_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        load_before = loadavg()
        # half the set-up samples before the workload and half after, so
        # the median spans the run rather than one moment of machine load
        setup = [] if args.trace else measure_setup(env, tmp, SETUP_REPEATS // 2, True)
        outdir = tmp / "out"
        outdir.mkdir()
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--outdir", str(outdir), "--result", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(OUT / "spans" / f"{tag}.csv")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
        worker_s = time.perf_counter() - t0
        if not args.trace:
            setup += measure_setup(env, tmp, SETUP_REPEATS - SETUP_REPEATS // 2, False)
        load_after = loadavg()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not result_path.is_file():
        print(f"run.py: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    if setup:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    result.update({
        "setup_samples_s": setup,
        "worker_wall_s": worker_s,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "git_commit": git_commit(),
        "thread_env": {v: "1" for v in THREAD_VARS},
    })
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    error_rate = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['ops']} commands in {result['passes']} passes "
          f"({result['commands_per_pass']} per pass)")
    print(f"python {result['python']} numpy {result['numpy']} nproc {result['nproc']} "
          f"cpu {result['cpu_model']!r} load {load_before} -> {load_after} "
          f"commit {result['git_commit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {error_rate:14.6g} fraction")
    for name, m in result["latency"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']} (not in BENCHMARK.json)")
    print(f"  {'ops_per_s unscaled':48s} {result['raw_ops_per_s']:14.6g} 1/s (not in BENCHMARK.json)")
    if args.trace:
        total = result["metrics"]["cli.main.ms_per_op"]["value"]
        print("share of traced command time (cli.main.ms_per_op):")
        for name, m in result["metrics"].items():
            if m["unit"] == "ms/op" and name != "cli.main.ms_per_op":
                print(f"  {name:48s} {100.0 * m['value'] / total:8.2f} %")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
