"""Time of each stage of `simulate_series` and the checks, per path, at the canonical points.

For each point of grids.CANONICAL it simulates one path of --n steps
(seed 1) and keeps every stage's inputs: per time block of simulate.SPAN
steps, generation 0 and per generation the lineages' origins and counts
before and after thinning, with the counts above simulate.CAP as
simulate._thin hands them to the thinning's draw. The path is drawn by
simulate._fill_block, block by block as simulate_series draws it, with a
counting stand-in for the generator; during that draw only,
simulate._thin (which thins through a recording stand-in for the
thinning) and simulate._innovation_draws are wrapped to record. Each
block's bookkeeping of origins is replayed from the recorded counts and
must rebuild the block, and the blocks must make simulate_series's path
bit for bit. It then times, summed over the blocks and generations of one
path: the innovation draws (simulate._innovation_draws), the generation-0
gather (the nonzero positions and their counts), the table lookup
(simulate._thin on a copy of each generation's counts up to CAP), the
counts above CAP (draw), the whole of simulate._thin (on a copy of each
generation's counts), the keep and np.add.at of the survivors,
simulate_series itself, the streamed draw and reduction that `verify`
runs (verify.path_sums over simulate.series_blocks), the reduction alone
(verify.path_sums over the drawn path's SPAN blocks), the guide builds
(simulate._guided of the innovation row, GUIDE_MAX buckets, and of the
count rows, PER buckets each, from their CDFs made beforehand, each cell
the mean of REPEATS back-to-back builds), verify.check_moments and
verify.run_all_checks on the path, and the parts of run_all_checks that
every command pays: simulate_series's SeriesSample construction
(simulate._drawn, no pass over the path), check_pgf_identity,
check_cross_method and verify._marginal_central_moments (the marginal's
mean and central moments in closed form from its parts, no pmf rows; each
the mean of REPEATS calls), and verify._path_sums, check_moments' exact
sums of a whole path. Each cell is us per path in the fastest of --passes
passes; the points with alpha = 0 run no thinning stages and build no
count rows. Then, per point, the share of the path's innovation draws and
of its thinned entries that drew a completion word: their guide bucket
held a CDF value (or lay past the innovation table), so they took the rest
of their uniform from one more raw word; and the tracemalloc peak, in MiB,
of one in-process `geominar verify` of --n steps. Every timed call runs
the library unwrapped. check_moments forms exact int64 sums of the path,
without BLAS, so its time and run_all_checks' should not depend on the
BLAS thread count; the benchmark's worker runs with one BLAS thread, and
so does CI. Informational, not a gate:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/simulate_stages.py [--n N] [--passes P]
"""
import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from geominar import simulate
from geominar.catalog import build_model
from geominar.cli import main
from geominar.simulate import RngStream, series_blocks, simulate_series
from geominar import verify
from geominar.verify import (check_cross_method, check_moments, check_pgf_identity, path_sums,
                             run_all_checks)

from grids import CANONICAL

STAGES = ("innovation draws", "generation-0 gather", "thin: table lookup (counts <= CAP)",
          "thin: counts > CAP (draw)", "thin: whole _thin", "keep + np.add.at",
          "simulate_series (whole)", "series_blocks + path_sums", "path_sums of SPAN blocks",
          "guide build: innovation row", "guide build: count rows",
          "check_moments", "run_all_checks", "SeriesSample construction", "check_pgf_identity",
          "check_cross_method", "_marginal_central_moments", "_path_sums")
SHARES = ("innovation draws", "thinned entries")
# calls per timed call of the stages of tens of us, each cell the mean per call:
# one call right after simulate_series would mostly time the cold caches that
# stage leaves (a few small numpy calls took about 100 us there)
REPEATS = {"guide build: innovation row": 20, "guide build: count rows": 20,
           "SeriesSample construction": 20, "check_pgf_identity": 20,
           "check_cross_method": 20, "_marginal_central_moments": 20}


class _Counting:
    """Stands in for the generator, and for its bit generator, and counts the
    raw words drawn; every draw is the generator's own."""

    def __init__(self, gen):
        self.gen, self.bit_generator, self.words = gen, self, 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def random_raw(self, size):
        self.words += size
        return self.gen.bit_generator.random_raw(size)


def _bucket_words(size: int, per: int) -> int:
    """The raw words that carry the guide buckets of size draws, per buckets
    each: one per 64 / log2(per) draws. The rest of a call's words complete
    uniforms."""
    return -(-size * (per.bit_length() - 1) // 64)


class _Recording:
    """Stands in for a thinning inside simulate._thin and keeps what its draw
    is given; everything else is the thinning's own."""

    def __init__(self, thinning):
        self.thinning, self.larger = thinning, []

    def __getattr__(self, name):
        return getattr(self.thinning, name)

    def draw(self, gen, x):
        self.larger.append(x.copy())
        return self.thinning.draw(gen, x)


def _generations(model, n: int, seed: RngStream):
    """The path of simulate_series(model, n, seed), drawn by
    simulate._fill_block one time block at a time as simulate_series draws
    it, with a counting stand-in for the generator and, within the draw
    only, simulate._thin and simulate._innovation_draws wrapped: each _thin
    call keeps its counts before and after and thins through a recording
    stand-in for the thinning, and both count the completion words they
    draw. Per block, the loop's bookkeeping of origins is replayed from
    generation 0 and the recorded counts, and must rebuild the block.
    Returns per block (its generation-0 array, and per generation g: g, the
    lineages' origins, counts before and after thinning), the recorder and
    the completion words and draws of the innovations and the thinning."""
    gen = _Counting(seed.generator())
    recorder = _Recording(model.spec.thinning)
    completions = {"innovations": 0, "innovation draws": 0, "thinned": 0, "thinned entries": 0}
    thin, draws = simulate._thin, simulate._innovation_draws
    calls, first = [], []  # this block's _thin calls; its generation-0 array

    def thin_recording(thinning, g, cnt):
        if not calls and not first:
            first.append(block.copy())  # before any offspring is added
        before, words = cnt.copy(), gen.words
        thin(recorder, g, cnt)
        completions["thinned"] += gen.words - words - _bucket_words(cnt.size, simulate.PER)
        completions["thinned entries"] += cnt.size
        calls.append((before, cnt.copy()))

    def draws_counting(d, g, out):
        words = gen.words
        draws(d, g, out)
        completions["innovations"] += gen.words - words - _bucket_words(out.size, simulate.GUIDE_MAX)
        completions["innovation draws"] += out.size
        return out

    path = np.empty(n, dtype=np.int64)
    blocks, carry = [], None
    simulate._thin, simulate._innovation_draws = thin_recording, draws_counting
    try:
        for start in range(0, n, simulate.SPAN):
            block = path[start:start + simulate.SPAN]
            calls.clear()
            first.clear()
            simulate._fill_block(model, gen, block, carry)
            if carry is not None and model.alpha != 0.0:
                # the first call thinned the carry, before any generation:
                # its survivors join step 0 of generation 0
                first[0][0] += calls.pop(0)[1][0]
            carry = int(block[-1])
            if model.alpha == 0.0:  # no generations: the block is generation 0
                blocks.append((block.copy(), []))
            else:
                blocks.append(_replay(block, first[0] if first else block.copy(), calls))
    finally:
        simulate._thin, simulate._innovation_draws = thin, draws
    if not np.array_equal(path, simulate_series(model, n, seed).values):
        raise RuntimeError("the recorded blocks no longer draw simulate_series's path")
    return blocks, recorder, completions


def _replay(block: np.ndarray, out0: np.ndarray, calls: list) -> tuple:
    """One block's generations: simulate._fill_block's bookkeeping of origins
    replayed from the block's generation-0 array out0 and its recorded _thin
    calls (counts before, after), which must rebuild the block. Returns
    out0 and per generation (g, origins, counts before, counts after)."""
    rebuilt, last = out0.copy(), block.size - 1
    idx = np.flatnonzero(out0[:-1] != 0)
    cnt = out0[idx]
    generations = []
    for g, (before, after) in enumerate(calls, 1):
        if not np.array_equal(before, cnt):
            raise RuntimeError(f"generation {g} thinned other counts than the replay's")
        generations.append((g, idx, before, after))
        kept = (after > 0).nonzero()[0]
        idx, cnt = idx[kept], after[kept]
        rebuilt[g:][idx] += cnt  # origins are unique within a generation
        if idx.size and idx[-1] == last - g:
            idx, cnt = idx[:-1], cnt[:-1]
    if idx.size or not np.array_equal(rebuilt, block):
        raise RuntimeError("the replayed generations no longer rebuild the block")
    return out0, generations


def _verify_peak(name: str, params: dict, n: int) -> float:
    """MiB at the tracemalloc peak of one in-process `geominar verify` at n
    steps (seed 1), its report written to a scratch file."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", name, *(f"--{k}={v!r}" for k, v in params.items()),
                "--n", str(n), "--seed", "1", "--output", str(Path(tmp) / "report.txt")]
        tracemalloc.start()
        try:
            main(argv)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def _stages(name: str, params: dict, n: int) -> dict:
    """Per stage, one call that does that stage's work for one whole path;
    and per SHARES row, the share of its draws that took a completion word."""
    model = build_model(name, **params)
    seed = RngStream(1)
    blocks, rec, completions = _generations(model, n, seed)
    thinned = completions["thinned entries"]
    shares = {SHARES[0]: completions["innovations"] / completions["innovation draws"],
              SHARES[1]: completions["thinned"] / thinned if thinned else float("nan")}
    sample = simulate_series(model, n, seed)
    thinning = model.spec.thinning
    gen = RngStream(2).generator()
    buf = np.empty(min(simulate.SPAN, n), dtype=np.int64)
    befores = [before for _, gens in blocks for _, _, before, _ in gens]

    def innovations():
        for out0, _ in blocks:
            simulate._innovation_draws(model.innovation, gen, buf[:out0.size])

    def gather():
        for out0, _ in blocks:
            idx = np.flatnonzero(out0[:-1] != 0)
            out0[idx]

    small = [before[before <= simulate.CAP] for before in befores]
    innovation_cdf = model.innovation.sampling_table[0]
    count_cdf = thinning.count_table[0] if befores else None

    def count_guide():
        if count_cdf is not None:
            simulate._guided(count_cdf, simulate.PER)

    def lookup():
        for counts in small:
            simulate._thin(thinning, gen, counts.copy())

    def larger():
        for x in rec.larger:
            thinning.draw(gen, x)

    def whole_thin():
        for before in befores:
            simulate._thin(thinning, gen, before.copy())

    def keep():
        for out0, gens in blocks:
            scratch = buf[:out0.size]
            for g, idx, _, after in gens:
                kept = (after > 0).nonzero()[0]
                np.add.at(scratch[g:], idx[kept], after[kept])

    spans = [sample.values[start:start + simulate.SPAN] for start in range(0, n, simulate.SPAN)]

    return shares, {
        "innovation draws": innovations,
        "generation-0 gather": gather,
        "thin: table lookup (counts <= CAP)": lookup,
        "thin: counts > CAP (draw)": larger,
        "thin: whole _thin": whole_thin,
        "keep + np.add.at": keep,
        "simulate_series (whole)": lambda: simulate_series(model, n, seed),
        "series_blocks + path_sums": lambda: path_sums(series_blocks(model, n, seed)),
        "path_sums of SPAN blocks": lambda: path_sums(spans),
        "guide build: innovation row":
            lambda: simulate._guided(innovation_cdf, simulate.GUIDE_MAX),
        "guide build: count rows": count_guide,
        "check_moments": lambda: check_moments(model, sample),
        "run_all_checks": lambda: run_all_checks(model, sample),
        "SeriesSample construction": lambda: simulate._drawn(sample.values, model, seed, 0),
        "check_pgf_identity": lambda: check_pgf_identity(model),
        "check_cross_method": lambda: check_cross_method(model),
        "_marginal_central_moments": lambda: verify._marginal_central_moments(model),
        "_path_sums": lambda: verify._path_sums(sample.values),
    }


def report(n: int, passes: int) -> None:
    best = {(point, stage): float("inf") for point in CANONICAL for stage in STAGES}
    shares, peaks = {}, {}
    # one point's inputs at a time: together they would hold about 35 MB per point
    for point, params in CANONICAL.items():
        peaks[point] = _verify_peak(point, params, n)
        point_shares, stages = _stages(point, params, n)
        shares.update({(point, row): v for row, v in point_shares.items()})
        for _ in range(passes):
            for stage in STAGES:
                reps = REPEATS.get(stage, 1)
                start = time.perf_counter()
                for _ in range(reps):
                    stages[stage]()
                best[point, stage] = min(best[point, stage],
                                         (time.perf_counter() - start) / reps)
    print(f"simulate stages at n = {n}, us per path, fastest of {passes} passes")
    width = max(map(len, STAGES))
    print(f"{'stage':{width}s} " + " ".join(f"{point:>14s}" for point in CANONICAL))
    for stage in STAGES:
        print(f"{stage:{width}s} "
              + " ".join(f"{best[point, stage] * 1e6:14.1f}" for point in CANONICAL))
    print("share of draws that took a completion word (the rest of their uniform)")
    for row in SHARES:
        print(f"{row:{width}s} " + " ".join(f"{shares[point, row]:14.6f}" for point in CANONICAL))
    print(f"{'verify peak (tracemalloc, MiB)':{width}s} "
          + " ".join(f"{peaks[point]:14.2f}" for point in CANONICAL))


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
