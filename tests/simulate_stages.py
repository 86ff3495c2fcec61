"""Time of each stage of `simulate_series` and the checks, per path, at the canonical points.

For each point of grids.CANONICAL it simulates one path of --n steps
(seed 1) and keeps every stage's inputs: the innovation law, generation 0,
and per generation the surviving positions and counts before and after
thinning, with each block's single-unit count and larger counts as
simulate._thin hands them to the thinning. The loop that collects them is
simulate_series's own, calling simulate._thin with a recording stand-in for
the thinning, and its path must equal simulate_series's bit for bit. It
then times, summed over the generations of one path: the innovation draws
(simulate._innovation_draws), the generation-0 gather (the nonzero
positions and their counts), the thinning of single units (draw_single),
the thinning of larger counts (draw), the whole of simulate._thin (on a
copy of each generation's counts), the keep and np.add.at of the survivors,
simulate_series itself and verify.run_all_checks on the path. Each cell is
us per path in the fastest of --passes passes; the points with alpha = 0
run no thinning stages. The library is called as it is, never patched.
run_all_checks' centred sums are BLAS dot products of 65,536 entries: with
more than one BLAS thread on a busy 2-vCPU machine they took 255 ms per
path against 5 ms with one, so run it with one BLAS thread, as the
benchmark's worker does. Informational, not a gate:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/simulate_stages.py [--n N] [--passes P]
"""
import argparse
import time

import numpy as np

from geominar import simulate
from geominar.catalog import build_model
from geominar.simulate import RngStream, simulate_series
from geominar.verify import run_all_checks

from grids import CANONICAL

STAGES = ("innovation draws", "generation-0 gather", "thin: singles (draw_single)",
          "thin: counts >= 2 (draw)", "thin: whole _thin", "keep + np.add.at",
          "simulate_series (whole)", "run_all_checks")


class _Recording:
    """Stands in for a thinning inside simulate._thin and keeps what it is given."""

    def __init__(self, thinning):
        self.thinning, self.singles, self.larger = thinning, [], []

    def draw(self, gen, x):
        self.larger.append(x.copy())
        return self.thinning.draw(gen, x)

    def draw_single(self, gen, size):
        self.singles.append(size)
        return self.thinning.draw_single(gen, size)


def _generations(model, n: int, seed: RngStream):
    """simulate_series's loop, recording each generation: (positions, counts
    before and after thinning); with generation 0's array and the recorder."""
    gen = seed.generator()
    out = simulate._innovation_draws(model.innovation, gen, n)
    out[0] = simulate._sample_marginal(model, gen)
    first = out.copy()
    recorder = _Recording(model.spec.thinning)
    generations = []
    if model.alpha != 0.0:
        idx = np.flatnonzero(out[:-1] != 0)
        cnt = out[idx]
        while idx.size:
            idx += 1
            before = cnt.copy()
            simulate._thin(recorder, gen, cnt)
            generations.append((idx.copy(), before, cnt.copy()))
            kept = (cnt > 0).nonzero()[0]
            idx = idx[kept]
            cnt = cnt[kept]
            np.add.at(out, idx, cnt)
            if idx.size and idx[-1] == n - 1:
                idx, cnt = idx[:-1], cnt[:-1]
    if not np.array_equal(out, simulate_series(model, n, seed).values):
        raise RuntimeError("the recorded loop no longer draws simulate_series's path")
    return first, generations, recorder


def _stages(name: str, params: dict, n: int) -> dict:
    """Per stage, one call that does that stage's work for one whole path."""
    model = build_model(name, **params)
    seed = RngStream(1)
    first, generations, rec = _generations(model, n, seed)
    sample = simulate_series(model, n, seed)
    thinning = model.spec.thinning
    gen = RngStream(2).generator()
    scratch = np.zeros(n, dtype=np.int64)

    def gather():
        idx = np.flatnonzero(first[:-1] != 0)
        return first[idx]

    def singles():
        for size in rec.singles:
            thinning.draw_single(gen, size)

    def larger():
        for x in rec.larger:
            thinning.draw(gen, x)

    def whole_thin():
        for _, before, _ in generations:
            simulate._thin(thinning, gen, before.copy())

    def keep():
        for idx, _, after in generations:
            kept = (after > 0).nonzero()[0]
            np.add.at(scratch, idx[kept], after[kept])

    return {
        "innovation draws": lambda: simulate._innovation_draws(model.innovation, gen, n),
        "generation-0 gather": gather,
        "thin: singles (draw_single)": singles,
        "thin: counts >= 2 (draw)": larger,
        "thin: whole _thin": whole_thin,
        "keep + np.add.at": keep,
        "simulate_series (whole)": lambda: simulate_series(model, n, seed),
        "run_all_checks": lambda: run_all_checks(model, sample),
    }


def report(n: int, passes: int) -> None:
    best = {(point, stage): float("inf") for point in CANONICAL for stage in STAGES}
    # one point's inputs at a time: together they would hold about 35 MB per point
    for point, params in CANONICAL.items():
        stages = _stages(point, params, n)
        for _ in range(passes):
            for stage in STAGES:
                start = time.perf_counter()
                stages[stage]()
                best[point, stage] = min(best[point, stage], time.perf_counter() - start)
    print(f"simulate stages at n = {n}, us per path, fastest of {passes} passes")
    width = max(map(len, STAGES))
    print(f"{'stage':{width}s} " + " ".join(f"{point:>14s}" for point in CANONICAL))
    for stage in STAGES:
        print(f"{stage:{width}s} "
              + " ".join(f"{best[point, stage] * 1e6:14.1f}" for point in CANONICAL))


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    cli.add_argument("--n", type=int, default=1_000_000,
                     help="steps per path (default 1000000, as in the verify-long "
                          "benchmark)")
    cli.add_argument("--passes", type=int, default=3,
                     help="timed passes; each cell reports its fastest (default 3)")
    args = cli.parse_args()
    if args.n < 2:
        cli.error("--n must be >= 2")
    if args.passes < 1:
        cli.error("--passes must be >= 1")
    report(args.n, args.passes)
