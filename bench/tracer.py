"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the geominar modules from outside,
so the library itself carries no instrumentation. Each wrapped function is
replaced in every geominar module namespace that binds it, which also
catches the library's internal calls (``pmf_recursive`` is bound in
``decompose``, ``catalog`` and ``verify``). Functions called once per table
entry get a call counter instead of a span, to keep the overhead small.

Spans (name, start, end, parent, op id) stay in memory until the run ends;
self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

SPANNED = {
    "cli": ("build_parser", "main"),
    "catalog": ("build_model", "validate_params"),
    "pgf": ("innovation_pgf",),
    "polyrat": ("compose_mobius", "cancel", "real_distinct_roots"),
    "decompose": ("pmf_from_decomposition", "pmf_recursive", "linear_closed_form",
                  "quadratic_closed_form", "partial_fractions"),
    "simulate": ("simulate_series",),
    "verify": ("run_all_checks", "check_moments", "check_cross_method",
               "check_pgf_identity"),
}
COUNTED = {"decompose": ("hurdle_pmf",)}
NO_OP = -1

CLOSED_FORMS = ("decompose.linear_closed_form", "decompose.quadratic_closed_form",
                "decompose.partial_fractions")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        # one span per row of these columns; arrays keep the garbage
        # collector from scanning a growing list of span objects
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_degree = 0
        self.op = NO_OP
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "polyrat.real_distinct_roots":
            self.max_degree = max(self.max_degree, args[0].degree)
        elif name == "decompose.pmf_recursive":
            self.counts["pmf_recursive.terms"] += _arg(args, kwargs, 1, "n") + 1
        elif name == "decompose.pmf_from_decomposition":
            self.counts["pmf_from_decomposition.rows"] += len(result.pmf_table)
        elif name == "simulate.simulate_series":
            self.counts["simulate_series.steps"] += (
                _arg(args, kwargs, 1, "n") + _arg(args, kwargs, 3, "burn_in", 0))

    def _span_wrapper(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        starts, ends = self.span_start, self.span_end
        name_id = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise

        return wrapper

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geominar" or n.startswith("geominar."))]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, funcs in table.items():
                home = importlib.import_module(f"geominar.{mod_name}")
                for func in funcs:
                    original = getattr(home, func)
                    wrapper = make(f"{mod_name}.{func}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("index,name,start_ns,end_ns,parent,op\n")
            for i, row in enumerate(zip(self.span_name, self.span_start, self.span_end,
                                        self.span_parent, self.span_op)):
                name, t0, t1, parent, op = row
                f.write(f"{i},{self.names[name]},{t0},{t1},{parent},{op}\n")

    def layer_metrics(self, ops: int, bytes_out: int) -> dict[str, tuple[float, str]]:
        """Per-command layer metrics, as {name: (value, unit)}."""
        names, parents = self.names, self.span_parent
        spans = [(i, names[self.span_name[i]], self.span_end[i] - self.span_start[i])
                 for i in range(len(self.span_start)) if self.span_op[i] != NO_OP]
        dur = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        for i, _, d in spans:
            if parents[i] >= 0:
                child_ns[parents[i]] += d
        for i, name, d in spans:
            dur[name] += d
            self_ns[name] += d - child_ns[i]

        def outermost_ns(group) -> int:
            """Time in a group of functions, not counting nested group calls."""
            total = 0
            for i, name, d in spans:
                if name not in group:
                    continue
                parent = parents[i]
                while parent >= 0 and names[self.span_name[parent]] not in group:
                    parent = parents[parent]
                if parent < 0:
                    total += d
            return total

        ms = 1e-6 / ops
        polyrat = {f"polyrat.{f}" for f in SPANNED["polyrat"]}
        steps = self.counts["simulate_series.steps"]
        sim_calls = self.calls["simulate.simulate_series"]
        sim_ns = dur["simulate.simulate_series"]
        out = {
            "cli.main.ms_per_op": (dur["cli.main"] * ms, "ms/op"),
            "cli.build_parser.ms_per_op": (dur["cli.build_parser"] * ms, "ms/op"),
            "cli.main.self_ms_per_op": (self_ns["cli.main"] * ms, "ms/op"),
            "cli.bytes_out_per_op": (bytes_out / ops, "B/op"),
            "catalog.build_model.ms_per_op": (dur["catalog.build_model"] * ms, "ms/op"),
            "catalog.build_model.self_ms_per_op":
                (self_ns["catalog.build_model"] * ms, "ms/op"),
            "catalog.validate_params.calls_per_op":
                (self.calls["catalog.validate_params"] / ops, "calls/op"),
            "catalog.validate_params.ms_per_op":
                (dur["catalog.validate_params"] * ms, "ms/op"),
            "pgf.innovation_pgf.calls_per_op":
                (self.calls["pgf.innovation_pgf"] / ops, "calls/op"),
            "pgf.innovation_pgf.ms_per_op": (dur["pgf.innovation_pgf"] * ms, "ms/op"),
            "polyrat.compose_mobius.calls_per_op":
                (self.calls["polyrat.compose_mobius"] / ops, "calls/op"),
            "polyrat.cancel.calls_per_op": (self.calls["polyrat.cancel"] / ops, "calls/op"),
            "polyrat.real_distinct_roots.calls_per_op":
                (self.calls["polyrat.real_distinct_roots"] / ops, "calls/op"),
            "polyrat.real_distinct_roots.max_degree": (float(self.max_degree), "degree"),
            "polyrat.ms_per_op": (outermost_ns(polyrat) * ms, "ms/op"),
            "decompose.pmf_from_decomposition.ms_per_op":
                (dur["decompose.pmf_from_decomposition"] * ms, "ms/op"),
            "decompose.pmf_from_decomposition.rows_per_op":
                (self.counts["pmf_from_decomposition.rows"] / ops, "rows/op"),
            "decompose.pmf_recursive.terms_per_op":
                (self.counts["pmf_recursive.terms"] / ops, "terms/op"),
            "decompose.pmf_recursive.ms_per_op":
                (dur["decompose.pmf_recursive"] * ms, "ms/op"),
            "decompose.hurdle_pmf.calls_per_op":
                (self.calls["decompose.hurdle_pmf"] / ops, "calls/op"),
            "decompose.closed_form.ms_per_op": (outermost_ns(CLOSED_FORMS) * ms, "ms/op"),
            "simulate.simulate_series.ms_per_op": (sim_ns * ms, "ms/op"),
            "simulate.simulate_series.ns_per_step":
                (sim_ns / steps if steps else 0.0, "ns/step"),
            "simulate.simulate_series.ms_per_call":
                (sim_ns * 1e-6 / sim_calls if sim_calls else 0.0, "ms/call"),
            "simulate.simulate_series.steps_per_op": (steps / ops, "steps/op"),
        }
        for func in SPANNED["verify"]:
            out[f"verify.{func}.ms_per_op"] = (dur[f"verify.{func}"] * ms, "ms/op")
        for table in (SPANNED, COUNTED):
            for mod_name, funcs in table.items():
                for func in funcs:
                    name = f"{mod_name}.{func}"
                    out[f"{name}.errors"] = (float(self.errors[name]), "count")
        return out
