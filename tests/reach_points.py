"""The src/ functions that no golden run reaches, with their line counts.

Runs every golden run of golden_points.py (DERIVE, REFUSAL, VERIFY, CATALOG)
plus one short `simulate` at each canonical point under sys.setprofile, then
prints each function defined in src/geominar that none of them called, with
its line count, and the total. The profiler is set before geominar is
imported, so calls made at import time (the catalog rows) count as reached.
Informational, not a gate:

    PYTHONPATH=src python tests/reach_points.py
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geominar"


def _called_code() -> tuple[int, set]:
    """(runs made, code objects called): the profiler is set before
    golden_points imports geominar."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from golden_points import CANONICAL, _flags, _run, runs

        n = sum(1 for _ in runs())
        for name, params in CANONICAL.items():
            _run(["simulate", name, *_flags(params), "--n", "200", "--seed", "0"])
    finally:
        sys.setprofile(None)
    return n + len(CANONICAL), called


def _defs(path: Path):
    """(qualified name, first line, line count) of each function and method
    of the module; a def nested in a function counts in that function's
    lines. The first line is a decorator's, if any, as it is for the
    function's code object."""
    stack = [(ast.parse(path.read_text()), path.stem)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield name, first, child.end_lineno - first + 1
            elif isinstance(child, ast.ClassDef):
                stack.append((child, name))
            else:
                stack.append((child, prefix))


def main() -> None:
    runs_made, called = _called_code()
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in called}
    missed = [(name, lines) for path in sorted(SRC.glob("*.py"))
              for name, first, lines in sorted(_defs(path), key=lambda d: d[1])
              if (path, first) not in reached]
    print(f"src functions that none of {runs_made} runs called:")
    for name, lines in missed:
        print(f"{lines:5d}  {name}")
    print(f"{sum(lines for _, lines in missed):5d}  lines in {len(missed)} functions")


if __name__ == "__main__":
    main()
