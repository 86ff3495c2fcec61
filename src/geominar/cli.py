"""Command-line front end.

Subcommands: derive (innovation decomposition and pmf table), simulate
(seeded CSV trajectories), verify (full check suite, exit 1 on failure),
catalog (model listing). Output is byte-identical for identical invocations:
no timestamps, sorted JSON keys, repr floats. JSON is strict (RFC 8259) and
written by `_json`, a recursive writer that gives the bytes of
json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), except derive's
pmf rows: those are one f-string join spliced in at the "pmf" key, the same
bytes. A non-finite value still never prints: tabulation refuses a
non-finite pmf row, and any other non-finite float is written as null or
makes `_json` raise. The argument parser is built once per process and
holds no state between calls to main. The sampler and the checks (and
with them numpy) are imported by the commands that use them, so derive and
catalog start without them.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .catalog import build_model, dispersion_class, model_entries
from .decompose import DEFAULT_TARGET_MASS, pmf_from_decomposition
from .errors import GeominarError

# read off the catalog rows, so that every row's parameters have their flags
_PARAM_FLAGS = tuple(dict.fromkeys(n for e in model_entries() for n in e.param_names))


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", nargs="?", help="catalog model name (see the catalog subcommand)")
    p.add_argument("--spec-file", type=Path, default=None,
                   help="JSON document {\"model\": name, \"params\": {...}} "
                        "instead of inline flags")
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None)


def _read_spec(path: Path) -> dict:
    """The spec document, or a GeominarError naming the file."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise GeominarError(f"spec file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GeominarError(f"spec file {path}: top level must be a JSON object")
    for key in ("params", "thinning"):
        if not isinstance(doc.get(key, {}), dict):
            raise GeominarError(f"spec file {path}: {key!r} must be a JSON object")
    return doc


def _resolve_model(args) -> tuple[str, dict]:
    params: dict[str, float] = {}
    name = args.model
    if args.spec_file is not None:
        doc = _read_spec(args.spec_file)
        name = doc.get("model", name)
        params.update(doc.get("params", {}))
        thinning = doc.get("thinning", {})
        if "alpha" in thinning:
            params["alpha"] = thinning["alpha"]
    for flag in _PARAM_FLAGS:
        v = getattr(args, flag)
        if v is not None:
            params[flag] = v
    if not name:
        raise GeominarError("no model given: pass a model name or --spec-file")
    return name, params


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        output.write_text(text)
    except OSError as exc:
        raise GeominarError(f"output file {output}: {exc}") from exc


def _json(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", byte for
    byte, for a document of str-keyed dicts, lists, tuples, strs, floats, ints,
    bools and None. Strict JSON (RFC 8259): a non-finite float that no caller
    mapped to None raises the stdlib's ValueError. json.dumps falls back to
    its pure-Python encoder whenever indent is set; this writer appends to
    one list of chunks instead."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(o, indent: str, write) -> None:
    """Write o's JSON as json.dumps would; indent is the newline and spaces
    that start o's line."""
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        write(float.__repr__(o))
    elif isinstance(o, str):
        write(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        inner, sep = indent + "  ", "{"
        for k, v in sorted(o.items()):
            write(f"{sep}{inner}{encode_basestring_ascii(k)}: ")
            _write(v, inner, write)
            sep = ","
        write(indent + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner, sep = indent + "  ", "["
        for v in o:
            write(sep + inner)
            _write(v, inner, write)
            sep = ","
        write(indent + "]" if o else "[]")
    elif o is None:
        write("null")
    elif o is True:
        write("true")
    elif o is False:
        write("false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _finite(fields: dict) -> dict:
    """fields with each non-finite float written as None (JSON null)."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in fields.items()}


def _cmd_derive(args) -> int:
    name, params = _resolve_model(args)
    model = build_model(name, **params)
    innovation = pmf_from_decomposition(model.decomposition, args.truncation_mass)
    table = innovation.pmf_table
    doc = {
        "model": name,
        "params": model.params,
        # every field is a scalar, so a shallow copy of the fields is a full one
        "constraints": [dict(vars(c)) for c in model.constraints],
        "atoms": list(model.decomposition.atom_poly.coeffs),
        "terms": [{"rho": r, "s": s} for r, s in model.decomposition.terms],
        "hurdle": dict(vars(model.hurdle)),
        "moments": dict(vars(model.moments)),
        "dispersion": dict(vars(dispersion_class(model.moments))),
        "truncation": innovation.truncation,
        "truncation_mass": args.truncation_mass,
    }
    if args.format == "json":
        _emit(_derive_json({**doc, "moments": _finite(doc["moments"])}, table), args.output)
    elif args.format == "csv":
        lines = ["m,probability"]
        lines += [f"{m},{p!r}" for m, p in enumerate(table)]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_derive_table(doc, table), args.output)
    return 0


def _derive_json(doc: dict, table) -> str:
    """_json({**doc, "pmf": [[m, p] for m, p in enumerate(table)]}), with the rows
    written by one join and spliced in at the "pmf" key.

    _json writes an int or a finite float as its repr, so the rows are the
    bytes it would give; tabulation never leaves a non-finite row.
    Only a top-level key sits at a two-space indent, so the empty list's line
    is the one place where the rows go.
    """
    head, tail = _json({**doc, "pmf": []}).split('\n  "pmf": [],\n')
    rows = ",\n".join([f"    [\n      {m},\n      {p!r}\n    ]" for m, p in enumerate(table)])
    return f'{head}\n  "pmf": [\n{rows}\n  ],\n{tail}'


def _derive_table(doc: dict, table) -> str:
    out = [f"model: {doc['model']}"]
    out.append("params: " + ", ".join(f"{k}={v!r}" for k, v in doc["params"].items()))
    out.append("constraints:")
    for c in doc["constraints"]:
        flag = "ok " if c["satisfied"] else "VIOLATED"
        out.append(f"  [{flag}] {c['name']} (margin {c['margin']:.6g})")
    if doc["terms"]:
        out.append("geometric terms (rho_i, s_i):")
        for t in doc["terms"]:
            out.append(f"  rho={t['rho']:+.12g}  s={t['s']:.12g}")
    out.append("atoms: " + ", ".join(f"{a:.12g}" for a in doc["atoms"]))
    h = doc["hurdle"]
    out.append(f"hurdle: pi={h['pi']:.12g} p1={h['p1']:.12g} p2={h['p2']:.12g} "
               f"w1={h['w1']:.12g} w2={h['w2']:.12g}")
    mo = doc["moments"]
    out.append(f"marginal: mean={mo['marginal_mean']:.12g} var={mo['marginal_var']:.12g} "
               f"dispersion={mo['marginal_dispersion']:.12g} ({doc['dispersion']['marginal']})")
    out.append(f"innovation: mean={mo['innovation_mean']:.12g} var={mo['innovation_var']:.12g} "
               f"dispersion={mo['innovation_dispersion']:.12g} ({doc['dispersion']['innovation']})")
    out.append(f"pmf table to m={doc['truncation']} (mass target {doc['truncation_mass']!r}):")
    for m, p in enumerate(table[:25]):
        out.append(f"  {m:4d}  {p:.15g}")
    if len(table) > 25:
        out.append(f"  ... {len(table) - 25} more rows (use --format csv for all)")
    return "\n".join(out) + "\n"


def _cmd_simulate(args) -> int:
    from .simulate import RngStream, simulate_series

    name, params = _resolve_model(args)
    model = build_model(name, **params)
    if args.output is None and args.replicates != 1:
        raise GeominarError("--output is required when --replicates > 1")
    for rep in range(args.replicates):
        sample = simulate_series(model, args.n, RngStream(args.seed, rep), args.burn_in)
        lines = ["t,x"] + [f"{t},{x}" for t, x in enumerate(sample.values)]
        path = None if args.output is None else _replicate_path(args.output, rep, args.replicates)
        _emit("\n".join(lines) + "\n", path)
    return 0


def _replicate_path(base: Path, rep: int, replicates: int) -> Path:
    if replicates == 1:
        return base
    return base.with_name(f"{base.stem}_{rep:03d}{base.suffix or '.csv'}")


def _cmd_verify(args) -> int:
    from .simulate import RngStream, simulate_series
    from .verify import run_all_checks

    name, params = _resolve_model(args)
    model = build_model(name, **params)
    sample = simulate_series(model, args.n, RngStream(args.seed, 0), args.burn_in)
    report = run_all_checks(model, sample, grid_points=args.grid_points,
                            tol=args.tolerance)
    if args.format == "json":
        doc = report.to_dict()
        _emit(_json({**doc, "checks": [_finite(c) for c in doc["checks"]]}), args.output)
    else:
        lines = []
        for c in report.checks:
            flag = "pass" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name}: observed={c.observed!r} "
                         f"expected={c.expected!r} tol={c.tolerance!r}")
        lines.append(f"overall: {'pass' if report.overall else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.overall else 1


def _cmd_catalog(args) -> int:
    entries = model_entries()
    if args.format == "json":
        doc = [{"model": e.name, "params": list(e.param_names),
                "summary": e.summary, "constraints": list(e.labels)}
               for e in entries]
        _emit(_json(doc), args.output)
    else:
        lines = []
        for e in entries:
            lines.append(f"{e.name:15s} params: {', '.join(e.param_names)}")
            lines.append(f"{'':15s} {e.summary}")
            lines.append(f"{'':15s} valid when: {'; '.join(e.labels)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geominar",
        description="Innovation distributions, simulation and verification for "
                    "INAR(1) count models with geometric-type marginals.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("derive", help="derive the innovation decomposition and pmf table")
    _add_model_args(p)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--truncation-mass", type=float, default=DEFAULT_TARGET_MASS)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("simulate", help="simulate seeded trajectories to CSV")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--output", type=Path, default=None,
                   help="output CSV path; replicate index is appended when "
                        "--replicates > 1")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the verification suite (exit 1 on failure)")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list model names and parameter constraints")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_catalog)
    return parser


# the least value of each sampling and checking flag: a smaller one is a
# usage error (exit 2); one grid point would check the pgf identity at s = 0
# only, where it holds trivially
_FLAG_MINIMUM = {"n": 1, "burn_in": 0, "seed": 0, "replicates": 1, "grid_points": 2}


def _check_flag_values(args) -> None:
    for dest, least in _FLAG_MINIMUM.items():
        value = getattr(args, dest, least)
        if value < least:
            raise GeominarError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
    # inf would pass every deterministic check vacuously, nan or < 0 fail them all
    tolerance = getattr(args, "tolerance", 0.0)
    if not 0.0 <= tolerance < math.inf:
        raise GeominarError(f"--tolerance must be >= 0 and finite, got {tolerance!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flag_values(args)
        return args.func(args)
    except GeominarError as exc:
        print(f"geominar: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means only that a check failed
        print(f"geominar: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
