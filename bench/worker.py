"""Workload process: runs one workload through ``geominar.cli.main`` in process.

run.py starts this in a fresh child with the BLAS and OpenMP thread counts
set to 1. The loop is closed with a single client: each command starts when
the previous one returns. Commands run in whole passes over the workload's
list until the timed phase has lasted ``--seconds``. Slices of reference
work (reference.py) run between commands, a tenth as long as the commands,
so that each pass's command time can be scaled to the nominal machine speed.
Every command's output is checked between commands, outside the timed
region; a command that raises, exits non-zero or fails its check counts as
failed.

With ``--trace 1`` an untraced phase is followed by a traced one, so the
tracing overhead can be reported next to the per-layer numbers.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from geominar import cli
from reference import Meter
from tracer import NO_OP, Tracer

MAX_REPORTED_FAILURES = 5


class Phase:
    """Latencies, failures and output volume of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.bytes_out = 0
        self.passes = 0
        # one per pass: the reference slices run between that pass's commands
        self.meters: list[Meter] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def command_latencies(self) -> list[float]:
        """Each command's median latency over the passes of the phase."""
        k = self.ops // self.passes
        return [statistics.median(self.latencies[i::k]) for i in range(k)]

    def pass_seconds(self) -> list[float]:
        k = self.ops // self.passes
        return [sum(self.latencies[i:i + k]) for i in range(0, self.ops, k)]

    def elapsed_s(self) -> float:
        return sum(self.latencies) + sum(m.ref_s for m in self.meters)

    def ops_per_s(self) -> float:
        """Commands per second at the nominal machine speed, median over passes.

        Each pass's command time is scaled by the reference slices run
        between its commands. The median keeps a burst of machine load in
        one pass from moving the result; every pass runs the same commands.
        """
        k = self.ops // self.passes
        return statistics.median(k / (t * m.scale())
                                 for t, m in zip(self.pass_seconds(), self.meters))

    def raw_ops_per_s(self) -> float:
        """Commands per second of measured command time, median over passes."""
        k = self.ops // self.passes
        return statistics.median(k / t for t in self.pass_seconds())


def run_command(cmd, expected, outdir: Path, phase: Phase, tracer: Tracer | None) -> None:
    argv = cmd.argv(outdir)
    if tracer is not None:
        tracer.op = phase.ops
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        rc = None
        reason = f"raised {exc!r}"
        traceback.print_exc(file=sys.stderr)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.op = NO_OP
    phase.latencies.append(t1 - t0)
    if rc is not None:
        reason, nbytes = workloads.check_output(cmd, rc, outdir, expected.get(cmd.key))
        phase.bytes_out += nbytes
    else:
        for p in outdir.iterdir():
            p.unlink()
    if reason is not None:
        phase.failures.append(f"{' '.join(argv)}: {reason}")


def run_phase(cmds, expected, outdir: Path, seconds: float,
              tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    while True:
        meter = Meter()
        phase.meters.append(meter)
        for cmd in cmds:
            run_command(cmd, expected, outdir, phase, tracer)
            meter.after(phase.latencies[-1])
        phase.passes += 1
        if phase.elapsed_s() >= seconds:
            return phase


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def latency_ms(phase: Phase) -> dict[str, tuple[float, str]]:
    """Per-command latency percentiles, reported but not in BENCHMARK.json.

    Percentiles over the commands of a pass, each at its median latency.
    Pooling raw samples puts the median of derive-grid on the boundary
    between the linear families (112 of 220 points) and the slower hurdle
    families, so it jumped between the two clusters from run to run. On
    verify-long's 8 commands they still follow one or two families.
    """
    lat = phase.command_latencies()
    return {
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3, "ms"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", type=Path, required=True,
                    help="empty scratch directory for command outputs")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    import numpy

    # the pmf oracle lives with the tests: tests/oracles.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    cmds = workloads.commands(args.workload, args.seed)
    expected = workloads.expectations(cmds)
    warmup = Phase()
    run_command(cmds[0], expected, args.outdir, warmup, None)
    phases = [warmup, run_phase(cmds, expected, args.outdir, args.seconds)]
    if args.trace:
        tracer = Tracer()
        with tracer:
            phases.append(run_phase(cmds, expected, args.outdir, args.seconds, tracer))
        untraced, traced = phases[1], phases[2]
        metrics = tracer.layer_metrics(traced.ops, traced.bytes_out)
        slowdown = untraced.ops_per_s() / traced.ops_per_s()
        metrics["trace.overhead_pct"] = ((slowdown - 1.0) * 100.0, "%")
        if args.spans is not None:
            tracer.write_spans(args.spans)
    else:
        metrics = end_to_end(phases[1])
    latency = latency_ms(phases[1])

    failures = [f for p in phases for f in p.failures]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands_per_pass": len(cmds),
        "passes": [p.passes for p in phases[1:]],
        "ops": [p.ops for p in phases[1:]],
        "attempted": sum(p.ops for p in phases),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "command_ms": [t * 1e3 for t in phases[1].command_latencies()],
        "raw_ops_per_s": phases[1].raw_ops_per_s(),
        "pass_scale": [m.scale() for m in phases[1].meters],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latency": {k: {"value": v, "unit": u} for k, (v, u) in latency.items()},
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
