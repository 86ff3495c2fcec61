import enum
import json
import math
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geominar import simulate
from geominar.catalog import build_model, model_entries
from geominar.cli import _json, build_parser, main
from geominar.decompose import pmf_from_decomposition

from grids import CANONICAL, GRIDS, WIDE
from oracles import oracle_pmf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdlib_json(doc) -> str:
    """The stdlib encoder's strict, indented, key-sorted JSON: the bytes that
    cli._json must give."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestDerive:
    def test_json_contains_pmf(self, capsys):
        code, out, err = run_cli(capsys, "derive", "ginar", "--theta", "0.5",
                                 "--alpha", "0.5")
        assert code == 0
        doc = json.loads(out)
        pmf = dict((m, p) for m, p in doc["pmf"])
        assert pmf[0] == pytest.approx(0.75, abs=1e-15)
        assert pmf[1] == pytest.approx(0.125, abs=1e-15)
        assert pmf[2] == pytest.approx(0.0625, abs=1e-15)
        assert doc["terms"][0]["s"] == pytest.approx(2.0)
        # every family prints the hurdle view of its decomposition
        assert doc["hurdle"] == pytest.approx(
            {"pi": 0.75, "p1": 0.5, "p2": 0.0, "w1": 1.0, "w2": 0.0}, abs=1e-14)
        assert "notes" not in doc

    @pytest.mark.parametrize("argv, pmf, pi", [
        (("zmg", "--mu", "5e-324", "--k", "0"), [[0, 1.0]], 1.0),
        (("two-param", "--r", "5e-324", "--m", "0.5"), [[0, 0.5], [1, 0.5]], 0.5),
    ])
    def test_subnormal_rate_derives_the_limit_law(self, capsys, argv, pmf, pi):
        # the denominator slope trims to zero: the law is its atoms (the point
        # mass at zero, Bernoulli(m) for two-param), never an internal error
        code, out, err = run_cli(capsys, "derive", *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["pmf"] == pmf and doc["terms"] == []
        assert doc["hurdle"] == {"pi": pi, "p1": 0.0, "p2": 0.0, "w1": 1.0, "w2": 0.0}

    def test_near_unit_alpha_derives(self, capsys):
        # 1 - (1 - theta) at s = 1 cancels to 5e-9 relative here, which a pgf
        # normalised to value 1 at s = 1 refused; the law needs no such value
        params = {"theta": 1e-8, "alpha": 0.9999999999999999}
        code, out, err = run_cli(capsys, "derive", "ginar",
                                 *(f"--{k}={v!r}" for k, v in params.items()))
        assert (code, err) == (0, "")
        expect = oracle_pmf("ginar", 32, **params)
        assert [p for _, p in json.loads(out)["pmf"]] == pytest.approx(expect[:1], abs=1e-12)
        # the printed table stops at pmf(0) = 1 - 1e-16; the law goes on in its term
        law = build_model("ginar", **params).innovation
        assert [law.pmf(m) for m in range(33)] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("argv, pole", [
        (("ginar", "--theta", "1e-16", "--alpha", "0.5"), "1.0000000000000001e-16"),
        (("ginar", "--theta", "5e-324", "--alpha", "0.5"), "5e-324"),
        (("zmg", "--mu", "1e19", "--k", "0.5"), "1e-19"),
        (("nginar", "--mu", "1e300", "--alpha", "0.5"), "1e-300"),
    ])
    def test_pole_rounding_onto_one_exit_2(self, capsys, argv, pole):
        # every declared constraint holds, but s = 1 + t is 1 as a float
        code, out, err = run_cli(capsys, "derive", *argv)
        assert (code, out) == (2, "")
        assert f"{argv[0]}: pole s = 1 + {pole} rounds onto 1 in double precision" in err

    def test_validation_failure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "derive", "nginar", "--mu", "1",
                                 "--alpha", "0.6")
        assert code == 2
        assert "alpha <= mu/(1+mu)" in err

    def test_infinite_parameter_named_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "derive", "nginar", "--mu", "inf",
                                 "--alpha", "0.3")
        assert code == 2
        assert "'mu finite'" in err

    def test_missing_model_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "derive")
        assert code == 2

    def test_csv_round_trips_probabilities(self, capsys):
        code, out, err = run_cli(capsys, "derive", "nginar", "--mu", "1",
                                 "--alpha", "0.3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,probability"
        from geominar.catalog import build_model
        model = build_model("nginar", mu=1.0, alpha=0.3)
        for line in lines[1:10]:
            m, p = line.split(",")
            # repr floats round-trip bit for bit
            assert float(p) == model.innovation.pmf(int(m))
        assert float(lines[1].split(",")[1]) == pytest.approx(8.0 / 13.0, rel=1e-13)

    def test_hurdle_fields_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "rho-geo-bin", "--mu", "1",
                               "--rho", "0.2", "--alpha", "0.3")
        doc = json.loads(out)
        assert doc["hurdle"]["pi"] == pytest.approx(1.16 / 1.72, rel=1e-12)
        assert doc["hurdle"]["p1"] == pytest.approx(0.6, rel=1e-12)
        names = {c["name"] for c in doc["constraints"]}
        assert any(n.startswith("innovation pmf nonnegative") for n in names)

    def test_spec_file_source(self, capsys, tmp_path):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(
            {"model": "rho-geo-nb", "params": {"mu": 1.0, "rho": 0.2},
             "thinning": {"alpha": 0.3}}))
        code, out, _ = run_cli(capsys, "derive", "--spec-file", str(spec))
        assert code == 0
        assert json.loads(out)["model"] == "rho-geo-nb"

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "top level must be a JSON object"),
        ('{"model": "ginar", "params": [0.5, 0.5]}', "'params' must be a JSON object"),
        ('{"model": "ginar", "params": {"theta": 0.5}, "thinning": 0.5}',
         "'thinning' must be a JSON object"),
    ])
    def test_malformed_spec_file_exit_2(self, capsys, tmp_path, text, message):
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "derive", "--spec-file", str(spec))
        assert code == 2 and out == ""
        assert err.startswith(f"geominar: error: spec file {spec}: ")
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ('{"model": "ginar", "params": {"theta": "abc", "alpha": 0.5}}',
         "ginar: parameter theta must be a float, got 'abc'"),
        ('{"model": "ginar", "params": {"theta": [0.5], "alpha": 0.5}}',
         "ginar: parameter theta must be a float, got [0.5]"),
        ('{"model": "ginar", "params": {"theta": 0.5}, "thinning": {"alpha": "x"}}',
         "ginar: parameter alpha must be a float, got 'x'"),
        ('{"model": ["ginar"], "params": {"theta": 0.5, "alpha": 0.5}}',
         "unknown model ['ginar']; choose from ginar, "),
        ('{"model": "ginar", "params": {"theta": "0.5", "alpha": 0.5}}',
         "ginar: parameter theta must be a float, got '0.5'"),
        ('{"model": "ginar", "params": {"theta": 0.5}, "thinning": {"alpha": false}}',
         "ginar: parameter alpha must be a float, got False"),
    ])
    def test_malformed_spec_values_exit_2(self, capsys, tmp_path, text, message):
        # a well-formed document with a value the catalog cannot read: the
        # catalog's message names the parameter or the model, not the file
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "derive", "--spec-file", str(spec))
        assert code == 2 and out == ""
        assert err.startswith(f"geominar: error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_spec_file_exit_2(self, capsys, tmp_path, kind):
        spec = tmp_path / "spec.json"
        if kind == "directory":
            spec.mkdir()
        elif kind == "not-utf8":
            spec.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "derive", "--spec-file", str(spec))
        assert code == 2 and out == ""
        assert err.startswith(f"geominar: error: spec file {spec}: ")
        assert err.count("\n") == 1

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "derive.json"
        code, stdout, _ = run_cli(capsys, "derive", "ginar", "--theta", "0.5",
                                  "--alpha", "0.5", "--output", str(out))
        assert code == 0 and stdout == ""
        doc = json.loads(out.read_text())
        assert doc["model"] == "ginar"

    def test_truncation_mass_controls_table(self, capsys):
        _, out_tight, _ = run_cli(capsys, "derive", "ginar", "--theta", "0.5",
                                  "--alpha", "0.5")
        _, out_loose, _ = run_cli(capsys, "derive", "ginar", "--theta", "0.5",
                                  "--alpha", "0.5", "--truncation-mass", "0.99")
        assert json.loads(out_loose)["truncation"] < json.loads(out_tight)["truncation"]


class TestSimulate:
    def test_csv_header_and_length(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "ginar", "--theta", "0.5",
                               "--alpha", "0.5", "--n", "50", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 51
        assert lines[1].startswith("0,")

    def test_replicate_files(self, capsys, tmp_path):
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "simulate", "nginar", "--mu", "1",
                             "--alpha", "0.3", "--n", "20", "--seed", "5",
                             "--replicates", "3", "--output", str(out_path))
        assert code == 0
        files = sorted(tmp_path.glob("series_*.csv"))
        assert [f.name for f in files] == ["series_000.csv", "series_001.csv",
                                           "series_002.csv"]
        assert files[0].read_bytes() != files[1].read_bytes()

    def test_replicates_require_output(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "ginar", "--theta", "0.5",
                               "--alpha", "0.5", "--n", "10", "--replicates", "2")
        assert code == 2

    def test_byte_identical_runs(self, capsys, tmp_path):
        args = ("simulate", "rho-geo-nb", "--mu", "1", "--rho", "0.2",
                "--alpha", "0.3", "--n", "500", "--seed", "42")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--output", str(a))[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ginar", "--theta", "0.5",
                               "--alpha", "0.5", "--n", "20000", "--seed", "3")
        assert code == 0
        assert "overall: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "zmg", "--mu", "1", "--k", "0.3",
                               "--n", "20000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] is True
        assert any(c["name"] == "pgf_identity_max_abs_deviation" for c in doc["checks"])

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nginar", "--mu", "1",
                               "--alpha", "0.9")
        assert code == 2

    def test_unreachable_tolerance_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ginar", "--theta", "0.5",
                               "--alpha", "0.5", "--n", "5000",
                               "--tolerance", "1e-18")
        assert code == 1
        assert "overall: FAIL" in out

    def test_all_zero_sample_omits_undefined_checks(self, capsys):
        # mean 1e-6: the all-zero path is the expected sample of a valid model
        code, out, _ = run_cli(capsys, "verify", "nginar", "--mu", "1e-6",
                               "--alpha", "1e-7", "--n", "2000")
        assert code == 0
        assert "[pass] marginal_mean_empirical" in out
        assert "marginal_dispersion_empirical" not in out
        assert "lag1_autocorrelation_empirical" not in out
        assert "overall: pass" in out

    def test_constant_sample_omits_lag1(self, capsys):
        # this seed draws [1, 1, 1] (seed 2 did before 0.4.0): the lag-1
        # autocorrelation is 0/0 there, while the dispersion is 0 and still checked
        code, out, _ = run_cli(capsys, "verify", "ginar", "--theta", "0.5",
                               "--alpha", "0.5", "--n", "3", "--seed", "27")
        assert code == 0
        assert "[pass] marginal_dispersion_empirical: observed=0.0" in out
        assert "lag1_autocorrelation_empirical" not in out
        assert "overall: pass" in out

    def test_marginal_sums_reach_a_slow_tail(self, capsys):
        # tail ratio 0.951 at mean 0.374: mean + 40 sd + 60 rows left 9e-5 of the mean out
        code, out, _ = run_cli(capsys, "verify", "rho-geo-bin", "--mu", "0.0187",
                               "--rho", "0.95", "--alpha", "0.0", "--n", "100000",
                               "--seed", "3")
        assert "[pass] marginal_mean_pmf_vs_closed" in out
        assert code == 0

    def test_full_scale_point_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "rho-geo-nb", "--mu", "1",
                               "--rho", "0.2", "--alpha", "0.3",
                               "--n", "1000000", "--seed", "42")
        assert code == 0
        assert "overall: pass" in out


GINAR = ("ginar", "--theta", "0.5", "--alpha", "0.5")


class TestSamplingFlagUsage:
    """A sampling or checking flag outside its range is a usage error: exit 2
    and one error line naming the flag, before any model is built or drawn."""

    @pytest.mark.parametrize("argv, flag", [
        (("simulate", *GINAR, "--n", "0"), "--n"),
        (("verify", *GINAR, "--n", "0"), "--n"),
        (("simulate", *GINAR, "--burn-in", "-1"), "--burn-in"),
        (("verify", *GINAR, "--burn-in", "-1"), "--burn-in"),
        (("simulate", *GINAR, "--seed", "-1"), "--seed"),
        (("verify", *GINAR, "--seed", "-1"), "--seed"),
        (("simulate", *GINAR, "--replicates", "0"), "--replicates"),
        (("simulate", *GINAR, "--replicates", "0", "--output", "x.csv"), "--replicates"),
        (("verify", *GINAR, "--grid-points", "0"), "--grid-points"),
        (("verify", *GINAR, "--grid-points", "-3"), "--grid-points"),
        # inf used to pass every deterministic check, nan and -1 to fail them (exit 1)
        (("verify", *GINAR, "--tolerance", "inf"), "--tolerance"),
        (("verify", *GINAR, "--tolerance", "nan"), "--tolerance"),
        (("verify", *GINAR, "--tolerance", "-1"), "--tolerance"),
        # one grid point checks the pgf identity at s = 0 only, where it holds trivially
        (("verify", *GINAR, "--grid-points", "1"), "--grid-points"),
    ])
    def test_exit_2_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"geominar: error: {flag} must be >= ")
        assert err.count("\n") == 1

    def test_least_values_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *GINAR, "--n", "1", "--seed", "0",
                               "--burn-in", "0", "--replicates", "1")
        assert code == 0
        assert out.startswith("t,x\n0,")


class TestUnwritableOutput:
    """An --output path that cannot be written is exit 2 naming the path,
    not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("derive", *GINAR),
        ("simulate", *GINAR, "--n", "10"),
        ("simulate", *GINAR, "--n", "10", "--replicates", "2"),
        ("verify", *GINAR, "--n", "100"),
        ("catalog",),
    ])
    def test_exit_2_naming_the_path(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"geominar: error: output file {tmp_path / 'missing'}")
        assert err.count("\n") == 1


class TestCatalog:
    def test_lists_all_models(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        for name in ("ginar", "nginar", "zmg", "two-param", "rho-geo-bin",
                     "hurdle-geo-bin", "rho-geo-nb", "hurdle-geo-nb"):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "json")
        doc = json.loads(out)
        assert len(doc) == 8
        assert doc[0]["model"] == "ginar"

    def test_parameter_flags_are_the_rows_parameter_names(self):
        # the flags are read off the catalog rows, so a row's parameter has its flag
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        flags = {a.dest for a in sub.choices["derive"]._actions if a.option_strings}
        names = {n for e in model_entries() for n in e.param_names}
        assert flags - {"help", "spec_file", "format", "truncation_mass", "output"} == names


def refuse_token(token):
    """json.loads's parse_constant: RFC 8259 has no NaN or Infinity tokens."""
    raise ValueError(f"non-standard JSON token {token}")


class TestStrictJson:
    @pytest.mark.parametrize("argv, where", [
        (("derive", "zmg", "--mu", "5e-324", "--k", "0.5"), "moments"),
        (("verify", "nginar", "--mu", "1", "--alpha", "0.3", "--format", "json"), "checks"),
    ])
    def test_non_finite_values_are_null(self, capsys, argv, where):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out, parse_constant=refuse_token)
        if where == "moments":  # mean 0: the dispersion index is undefined
            assert doc["moments"]["marginal_dispersion"] is None
            assert doc["dispersion"] == {"marginal": "undefined", "innovation": "undefined"}
        else:  # a law with two terms has no finite tail tolerance
            tol = {c["name"]: c["tolerance"] for c in doc["checks"]}
            assert tol["tail_rel_error_m5"] is None


class TestDeriveJsonWriter:
    """derive writes its pmf rows with one f-string join; the bytes are what
    the stdlib encoder gives for the same document, and so does cli._json,
    and its rows are the model's table."""

    def assert_stdlib_bytes(self, capsys, name, params, *extra):
        code, out, err = run_cli(capsys, "derive", name,
                                 *(f"--{k}={v!r}" for k, v in params.items()), *extra)
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=refuse_token)
        expected = stdlib_json(doc)
        assert out == expected, (name, params, extra)
        assert _json(doc) == expected, (name, params, extra)
        innovation = build_model(name, **params).innovation
        if extra:  # --truncation-mass
            innovation = pmf_from_decomposition(innovation.decomposition, float(extra[1]))
        assert doc["pmf"] == [[m, p] for m, p in enumerate(innovation.pmf_table)]
        return doc

    @pytest.mark.parametrize("extra", [
        (), ("--truncation-mass", "0.5"), ("--truncation-mass", repr(1.0 - 1e-15)),
    ])
    def test_grid_and_canonical_points(self, capsys, extra):
        points = [(n, p) for n, grid in GRIDS.items() for p in grid] + list(CANONICAL.items())
        for name, params in points:
            self.assert_stdlib_bytes(capsys, name, params, *extra)

    @pytest.mark.parametrize("name, params", WIDE)
    def test_wide_points(self, capsys, name, params):
        assert len(self.assert_stdlib_bytes(capsys, name, params)["pmf"]) > 20_000

    def test_one_row_table(self, capsys):
        doc = self.assert_stdlib_bytes(capsys, "zmg", {"mu": 5e-324, "k": 0.0})
        assert doc["pmf"] == [[0, 1.0]]


class Count(enum.IntEnum):
    TWO = 2


class Scaled(float):
    def __repr__(self):
        return "Scaled(" + float.__repr__(self) + ")"


# strings with quotes, backslashes, control, non-ASCII and astral characters
# and a lone surrogate, and the floats at the ends of the double range
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**20, max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.text(), st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\u00e9\u2028\ufeff",
                                "\U0001f600", "\ud800"]),
)
JSON_KEYS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00", "\u00e9", "pmf", ""]))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                           st.dictionaries(JSON_KEYS, kids)),
    max_leaves=40)


class TestJsonWriter:
    """cli._json gives the stdlib encoder's bytes for every document."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_TREES)
    def test_stdlib_bytes_for_json_trees(self, doc):
        assert _json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", 0, -0.0, True, None, [[]], {"a": {}}, {"b": [], "a": ()},
        [Count.TWO, Scaled(0.5), {"k": Scaled(-0.0)}, True, False, 10**300],
    ])
    def test_stdlib_bytes_for_edge_documents(self, doc):
        assert _json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, Scaled(math.inf)])
    def test_non_finite_float_raises_the_stdlib_error(self, value):
        for doc in (value, [1.0, value], {"a": {"b": value}}):
            with pytest.raises(ValueError) as stdlib:
                stdlib_json(doc)
            with pytest.raises(ValueError) as ours:
                _json(doc)
            assert str(ours.value) == str(stdlib.value)
            assert str(ours.value).startswith("Out of range float values are not JSON compliant")

    @pytest.mark.parametrize("name, params", list(CANONICAL.items()))
    def test_verify_documents(self, capsys, name, params):
        code, out, err = run_cli(capsys, "verify", name,
                                 *(f"--{k}={v!r}" for k, v in params.items()),
                                 "--n", "2000", "--format", "json")
        assert code in (0, 1) and err == ""
        doc = json.loads(out, parse_constant=refuse_token)
        assert out == stdlib_json(doc)
        assert _json(doc) == out

    def test_catalog_document(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert out == stdlib_json(doc)
        assert _json(doc) == out


class TestEntryPoint:
    def test_cached_parser_keeps_no_state_between_calls(self, capsys):
        assert build_parser() is build_parser()
        point = ["ginar", "--theta", "0.3", "--alpha", "0.4"]
        assert run_cli(capsys, "derive", *point, "--format", "csv",
                       "--truncation-mass", "0.999")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["derive", *point, "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, "verify", *point, "--n", "2000")[0] == 0
        code, out, _ = run_cli(capsys, "derive", *point, "--format", "json")
        assert code == 0
        fresh = subprocess.run([sys.executable, "-m", "geominar", "derive", *point,
                                "--format", "json"], capture_output=True, check=True)
        assert out.encode() == fresh.stdout

    def test_derive_and_catalog_start_without_numpy(self):
        # a fresh interpreter: pytest's plugins may have imported numpy here
        script = textwrap.dedent("""
            import contextlib, io, sys
            from geominar.cli import main
            point = ["ginar", "--theta", "0.3", "--alpha", "0.4"]
            runs = [["catalog"], ["catalog", "--format", "json"]]
            runs += [["derive", *point, "--format", f] for f in ("json", "csv", "table")]
            with contextlib.redirect_stdout(io.StringIO()):
                print([main(argv) for argv in runs], file=sys.stderr)
            print(sorted({"numpy", "geominar.simulate", "geominar.verify"} & set(sys.modules)),
                  file=sys.stderr)
            with contextlib.redirect_stdout(io.StringIO()):
                print(main(["verify", *point, "--n", "2000"]), file=sys.stderr)
            print("numpy" in sys.modules, file=sys.stderr)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["[0, 0, 0, 0, 0]", "[]", "0", "True"]

    def test_module_invocation_byte_identical(self, tmp_path):
        cmd = [sys.executable, "-m", "geominar", "simulate", "ginar",
               "--theta", "0.5", "--alpha", "0.5", "--n", "200", "--seed", "9"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.startswith(b"t,x\n")


class TestUnexpectedErrors:
    """An exception that is not a GeominarError exits 3 with one line naming
    its type, not a traceback: exit 1 means only that a check failed."""

    @pytest.mark.parametrize("exc", [
        RuntimeError("boom"),
        # what numpy raises for `simulate ... --n 100000000000000`
        MemoryError("Unable to allocate 745. TiB for an array"),
    ])
    def test_exit_3_naming_the_type(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        # cli imports the sampler when the command runs: patch it at home
        monkeypatch.setattr(simulate, "simulate_series", fail)
        code, out, err = run_cli(capsys, "simulate", *GINAR, "--n", "10")
        assert code == 3 and out == ""
        assert err == f"geominar: internal error: {type(exc).__name__}: {exc}\n"
