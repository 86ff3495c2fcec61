"""Per-run sha256 digests of the DERIVE, REFUSAL, VERIFY and CATALOG golden sets.

test_golden.py pins each of these sets with one digest over all of its runs.
This script runs the same points, hashes the same bytes per run and prints
one line per run: set, exit code, digest, then the arguments. Run it in two
trees and diff the results to see which points moved:

    PYTHONPATH=src python tests/golden_points.py > points.txt
"""
import contextlib
import hashlib
import io

from geominar.cli import main

from test_golden import (
    CANONICAL,
    CATALOG_FORMATS,
    GRIDS,
    REFUSAL_EDGES,
    VERIFY,
    _refusal_points,
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flags(params: dict) -> list[str]:
    return [x for k, v in params.items() for x in (f"--{k}", repr(v))]


def runs():
    """(set, argv, bytes hashed) per run, in test_golden's order and framing."""
    points = [(name, p) for name, grid in GRIDS.items() for p in grid]
    for name, params in points + list(CANONICAL.items()):
        for fmt in ("json", "csv", "table"):
            argv = ["derive", name, *_flags(params), "--format", fmt]
            code, out, _ = _run(argv)
            yield "DERIVE", code, argv, f"{code}\n{out}"
    for name, params in _refusal_points() + REFUSAL_EDGES:
        argv = ["derive", name, *(f"--{k}={v!r}" for k, v in params.items()),
                "--format", "json"]
        code, out, err = _run(argv)
        yield "REFUSAL", code, argv, f"{code}\n{out}\0{err}\0"
    for name in sorted(VERIFY):
        argv = ["verify", name, *_flags(CANONICAL[name]), "--n", "20000", "--seed", "5"]
        code, out, _ = _run(argv)
        yield "VERIFY", code, argv, out
    for fmt in CATALOG_FORMATS:
        argv = ["catalog", "--format", fmt]
        code, out, _ = _run(argv)
        yield "CATALOG", code, argv, f"{code}\n{out}"


if __name__ == "__main__":
    for kind, code, argv, data in runs():
        print(kind, code, hashlib.sha256(data.encode()).hexdigest(), " ".join(argv))
