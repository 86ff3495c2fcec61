"""Time of each stage of `simulate_series` and the checks, per path, at the canonical points.

For each point of grids.CANONICAL it simulates one path of --n steps
(seed 1) and keeps every stage's inputs: the innovation law, generation 0,
and per generation the lineages' origins and counts before and after
thinning, with each generation's counts above simulate.CAP as simulate._thin
hands them to the thinning's draw. The loop that collects them is
simulate_series's own, calling simulate._thin with a recording stand-in for
the thinning and a counting stand-in for the generator, and its path must
equal simulate_series's bit for bit. It then times, summed over the
generations of one path: the innovation draws
(simulate._innovation_draws), the generation-0 gather (the nonzero
positions and their counts), the table lookup (simulate._thin on a copy of
each generation's counts up to CAP), the counts above CAP (draw), the
whole of simulate._thin (on a copy of each generation's counts), the keep
and np.add.at of the survivors, simulate_series itself, the guide builds
(simulate._guided of the innovation row, GUIDE_MAX buckets, and of the
count rows, PER buckets each, from their CDFs made beforehand, each cell
the mean of REPEATS back-to-back builds),
verify.check_moments and verify.run_all_checks on the path, and the parts
of run_all_checks that every command pays: simulate_series's SeriesSample
construction (simulate._drawn, no pass over the path), check_pgf_identity,
check_cross_method and verify._marginal_central_moments (the marginal's
mean and central moments in closed form from its parts, no pmf rows; each
the mean of REPEATS calls), and verify._path_sums, check_moments' exact
sums. Each cell is
us per path in the fastest of --passes passes; the points with alpha = 0
run no thinning stages and build no count rows. Then, per point, the share of the path's
innovation draws and of its thinned entries that drew a completion word:
their guide bucket held a CDF value (or lay past the innovation table), so
they took the rest of their uniform from one more raw word. The library is
called as it is, never patched. check_moments forms exact int64 sums of
the path, without BLAS, so its time and run_all_checks' should not depend
on the BLAS thread count; the benchmark's worker runs with one BLAS thread,
and so does CI. Informational, not a gate:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/simulate_stages.py [--n N] [--passes P]
"""
import argparse
import time

import numpy as np

from geominar import simulate
from geominar.catalog import build_model
from geominar.simulate import RngStream, simulate_series
from geominar import verify
from geominar.verify import check_cross_method, check_moments, check_pgf_identity, run_all_checks

from grids import CANONICAL

STAGES = ("innovation draws", "generation-0 gather", "thin: table lookup (counts <= CAP)",
          "thin: counts > CAP (draw)", "thin: whole _thin", "keep + np.add.at",
          "simulate_series (whole)", "guide build: innovation row", "guide build: count rows",
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
    """simulate_series's loop, recording each generation g: (g, the lineages'
    origins, counts before and after thinning); with generation 0's array,
    the recorder and the completion words of the innovations and of the
    thinning."""
    gen = _Counting(seed.generator())
    out = simulate._innovation_draws(model.innovation, gen, n)
    completions = {"innovations": gen.words - _bucket_words(n, simulate.GUIDE_MAX), "thinned": 0}
    out[0] = simulate._sample_marginal(model, gen)
    first = out.copy()
    recorder = _Recording(model.spec.thinning)
    generations = []
    if model.alpha != 0.0:
        idx = np.flatnonzero(out[:-1] != 0)
        cnt = out[idx]
        g = 0
        while idx.size:
            g += 1
            before = cnt.copy()
            words = gen.words
            simulate._thin(recorder, gen, cnt)
            completions["thinned"] += gen.words - words - _bucket_words(cnt.size, simulate.PER)
            generations.append((g, idx.copy(), before, cnt.copy()))
            kept = (cnt > 0).nonzero()[0]
            idx = idx[kept]
            cnt = cnt[kept]
            np.add.at(out[g:], idx, cnt)
            if idx.size and idx[-1] == n - 1 - g:
                idx, cnt = idx[:-1], cnt[:-1]
    if not np.array_equal(out, simulate_series(model, n, seed).values):
        raise RuntimeError("the recorded loop no longer draws simulate_series's path")
    return first, generations, recorder, completions


def _stages(name: str, params: dict, n: int) -> dict:
    """Per stage, one call that does that stage's work for one whole path;
    and per SHARES row, the share of its draws that took a completion word."""
    model = build_model(name, **params)
    seed = RngStream(1)
    first, generations, rec, completions = _generations(model, n, seed)
    thinned = sum(before.size for _, _, before, _ in generations)
    shares = {SHARES[0]: completions["innovations"] / n,
              SHARES[1]: completions["thinned"] / thinned if thinned else float("nan")}
    sample = simulate_series(model, n, seed)
    thinning = model.spec.thinning
    gen = RngStream(2).generator()
    scratch = np.zeros(n, dtype=np.int64)

    def gather():
        idx = np.flatnonzero(first[:-1] != 0)
        return first[idx]

    small = [before[before <= simulate.CAP] for _, _, before, _ in generations]
    innovation_cdf = model.innovation.sampling_table[0]
    count_cdf = thinning.count_table[0] if generations else None

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
        for _, _, before, _ in generations:
            simulate._thin(thinning, gen, before.copy())

    def keep():
        for g, idx, _, after in generations:
            kept = (after > 0).nonzero()[0]
            np.add.at(scratch[g:], idx[kept], after[kept])

    return shares, {
        "innovation draws": lambda: simulate._innovation_draws(model.innovation, gen, n),
        "generation-0 gather": gather,
        "thin: table lookup (counts <= CAP)": lookup,
        "thin: counts > CAP (draw)": larger,
        "thin: whole _thin": whole_thin,
        "keep + np.add.at": keep,
        "simulate_series (whole)": lambda: simulate_series(model, n, seed),
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
    shares = {}
    # one point's inputs at a time: together they would hold about 35 MB per point
    for point, params in CANONICAL.items():
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
