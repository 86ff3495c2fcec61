"""How often each `geominar verify` check fails on a correct sampler.

Runs `verify <model> <flags> --n N --seed S --format json` in process at the
8 canonical points of grids.CANONICAL for every seed S in --seeds, and
prints per check and point the number of runs in which that check failed,
then the runs whose overall verdict was FAIL. The statistical gates sit 4
standard errors out, so on a correct sampler they should almost never
fail; one seeded run cannot show that, a few hundred can. Informational,
not a gate:

    PYTHONPATH=src python tests/gate_rates.py [--n N] [--seeds FIRST:STOP]
"""
import argparse
import contextlib
import io
import json
from collections import Counter

from geominar.cli import main

from grids import CANONICAL


def _failures(name: str, params: dict, n: int, seed: int) -> tuple[list[str], list[str]]:
    """The names of all checks of one verify run, and of those that failed."""
    argv = ["verify", name, *(f"--{k}={v!r}" for k, v in params.items()),
            "--n", str(n), "--seed", str(seed), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    if code != (0 if doc["overall"] else 1):
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    checks = doc["checks"]
    return [c["name"] for c in checks], [c["name"] for c in checks if not c["passed"]]


def report(n: int, seeds: range) -> None:
    failed = {name: Counter() for name in CANONICAL}
    checks: dict[str, None] = {}  # every check seen, in verify's order
    for name, params in CANONICAL.items():
        for seed in seeds:
            names, bad = _failures(name, params, n, seed)
            checks.update(dict.fromkeys(names))
            failed[name].update(bad)
            failed[name]["overall"] += bool(bad)
    print(f"verify failures at --n {n} over {len(seeds)} seeds "
          f"({seeds.start}..{seeds.stop - 1}), per check and canonical point")
    width = max(map(len, checks))
    print(f"{'check':{width}s} " + " ".join(f"{name:>14s}" for name in CANONICAL))
    for check in [*checks, "overall"]:
        print(f"{check:{width}s} " + " ".join(f"{failed[name][check]:14d}" for name in CANONICAL))


def _seed_range(text: str) -> range:
    first, _, stop = text.partition(":")
    seeds = range(int(first), int(stop))
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"need 0 <= FIRST < STOP, got {text!r}")
    return seeds


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    cli.add_argument("--n", type=int, default=1_000_000,
                     help="series length of each verify run (default 1000000, as in "
                          "the verify-long benchmark)")
    cli.add_argument("--seeds", type=_seed_range, default=range(0, 250), metavar="FIRST:STOP",
                     help="the seeds FIRST, ..., STOP - 1 (default 0:250)")
    args = cli.parse_args()
    if args.n < 1:
        cli.error("--n must be >= 1")
    report(args.n, args.seeds)
