"""Mean time of each stage of `geominar derive`, per op, over the grid points.

Runs `derive <model> <flags>` at the 220 points of grids.GRIDS in process
and times each stage on its own, from inputs prepared beforehand: argument
parsing, catalog._validate (and, inside it, pmf_recursive(law.rf, 400) on
its own), law.decomposition(), pmf_from_decomposition, catalog._cross_check,
cli._derive_json and cli._emit to a fresh file; then the whole command,
cli.main with --output to a fresh file. Each line is the mean us/op over
the points in the fastest of --passes passes. The library is called as it
is, never patched. Informational, not a gate:

    PYTHONPATH=src python tests/derive_stages.py [--passes N]
"""
import argparse
import json
import tempfile
import time
from itertools import count
from pathlib import Path

from geominar.catalog import _coerce_params, _cross_check, _entry, _validate
from geominar.cli import _derive_json, _emit, build_parser, main
from geominar.decompose import pmf_from_decomposition, pmf_recursive

from grids import GRIDS


def _stages(out_dir: Path) -> dict[str, list]:
    """Per stage, one call per grid point, each with its inputs made already."""
    fresh = (str(out_dir / f"{i}.json") for i in count())
    stages = {name: [] for name in (
        "argument parsing", "_validate", "  pmf_recursive(rf, 400)", "law.decomposition",
        "pmf_from_decomposition", "_cross_check", "_derive_json", "_emit (fresh file)",
        "main (whole derive)")}
    parser = build_parser()
    for name, params in ((n, p) for n, grid in GRIDS.items() for p in grid):
        argv = ["derive", name, *(f"--{k}={v!r}" for k, v in params.items())]
        entry = _entry(name)
        p = _coerce_params(entry, params)
        _, _, law, table = _validate(entry, p)
        dec = law.decomposition()
        innovation = pmf_from_decomposition(dec)
        path = Path(next(fresh))
        main([*argv, "--output", str(path)])
        text = path.read_text()
        doc = json.loads(text)
        rows = tuple(v for _, v in doc.pop("pmf"))
        stages["argument parsing"].append(lambda argv=argv: parser.parse_args(argv))
        stages["_validate"].append(lambda entry=entry, p=p: _validate(entry, p))
        stages["  pmf_recursive(rf, 400)"].append(lambda rf=law.rf: pmf_recursive(rf, 400))
        stages["law.decomposition"].append(law.decomposition)
        stages["pmf_from_decomposition"].append(lambda dec=dec: pmf_from_decomposition(dec))
        stages["_cross_check"].append(lambda t=table, i=innovation: _cross_check(t, i))
        stages["_derive_json"].append(lambda doc=doc, rows=rows: _derive_json(doc, rows))
        stages["_emit (fresh file)"].append(lambda text=text: _emit(text, Path(next(fresh))))
        stages["main (whole derive)"].append(
            lambda argv=argv: main([*argv, "--output", next(fresh)]))
    return stages


def report(passes: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        stages = _stages(Path(tmp))
        best = dict.fromkeys(stages, float("inf"))
        for _ in range(passes):
            for name, calls in stages.items():
                start = time.perf_counter()
                for call in calls:
                    call()
                best[name] = min(best[name], (time.perf_counter() - start) / len(calls))
    ops = len(next(iter(stages.values())))
    print(f"derive stages, mean us/op over {ops} grid points, fastest of {passes} passes")
    for name, seconds in best.items():
        print(f"{name:26s} {seconds * 1e6:9.1f}")


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    cli.add_argument("--passes", type=int, default=5,
                     help="timed passes over the grid; each stage reports its fastest "
                          "(default 5)")
    args = cli.parse_args()
    if args.passes < 1:
        cli.error("--passes must be >= 1")
    report(args.passes)
