import json
import math
import random
import re
import sys

import pytest

from geominar import decompose, pgf, polyrat
from geominar.catalog import (
    MODEL_NAMES,
    build_model,
    closed_form_moments,
    dispersion_class,
    model_entries,
    validate_params,
)
from geominar.cli import main
from geominar.decompose import linear_closed_form
from geominar.errors import GeominarError, InvalidParameterError, ValidityViolationError

from grids import CANONICAL, GRIDS
from oracles import exact_moments, oracle_moments, oracle_pmf
from test_golden import REFUSAL_EDGES, _refusal_points


def count_calls(monkeypatch, home, func):
    """Wrap home.func in every geominar module that binds it; list the calls' args."""
    original = getattr(home, func)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("geominar"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestBuildModel:
    def test_zero_inflated_geometric_innovation(self):
        m = build_model("ginar", theta=0.5, alpha=0.5)
        assert m.innovation.pmf_table[:2] == pytest.approx((0.75, 0.125), abs=1e-14)
        # the hurdle view of the one-term law: atom 0.75, ratio 1 - theta above zero
        h = m.hurdle
        assert (h.pi, h.p1, h.p2, h.w1, h.w2) == pytest.approx((0.75, 0.5, 0.0, 1.0, 0.0),
                                                               abs=1e-14)

    def test_invalid_nb_thinning_rate(self):
        with pytest.raises(ValidityViolationError, match="alpha <= mu/"):
            build_model("nginar", mu=1.0, alpha=0.6)

    def test_rho_zero_nb_model_equals_plain_geometric_model(self):
        a = build_model("rho-geo-nb", mu=1.0, rho=0.0, alpha=0.3)
        b = build_model("nginar", mu=1.0, alpha=0.3)
        for m in range(200):
            assert a.innovation.pmf(m) == pytest.approx(b.innovation.pmf(m), abs=1e-12)

    def test_rho_zero_binomial_model_equals_ginar(self):
        # geometric marginal with mean mu corresponds to theta = 1/(1+mu)
        a = build_model("rho-geo-bin", mu=1.0, rho=0.0, alpha=0.3)
        b = build_model("ginar", theta=0.5, alpha=0.3)
        for m in range(200):
            assert a.innovation.pmf(m) == pytest.approx(b.innovation.pmf(m), abs=1e-12)

    def test_unknown_model_and_bad_params(self):
        with pytest.raises(ValidityViolationError):
            build_model("nope", mu=1.0)
        with pytest.raises(ValidityViolationError):
            build_model("ginar", theta=0.5)
        with pytest.raises(ValidityViolationError):
            build_model("ginar", theta=0.5, alpha=0.5, mu=1.0)
        with pytest.raises(ValidityViolationError, match="parameter theta must be a float"):
            build_model("ginar", theta="abc", alpha=0.5)
        # a number in a string, or a bool, is not a real number
        with pytest.raises(ValidityViolationError, match="parameter alpha must be a float"):
            build_model("ginar", theta=0.5, alpha=False)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_named(self, value):
        cons = validate_params("nginar", mu=value, alpha=0.3)
        assert [(c.name, c.satisfied) for c in cons] == [("mu finite", False)]
        with pytest.raises(ValidityViolationError, match="'mu finite'"):
            build_model("nginar", mu=value, alpha=0.3)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_canonical_point_builds_and_reconstructs(self, name):
        model = build_model(name, **CANONICAL[name])
        expect = oracle_pmf(name, 150, **CANONICAL[name])
        for m, p in enumerate(expect):
            assert model.innovation.pmf(m) == pytest.approx(p, abs=1e-11)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_grids_inside_validity_region(self, name):
        for params in GRIDS[name]:
            constraints = validate_params(name, **params)
            assert all(c.satisfied for c in constraints), (params, constraints)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_build_derives_pgf_and_recursion_once(self, name, monkeypatch):
        # validation's innovation law and 400-term table serve the build and
        # its cross-check; the iid entries give their offsets directly
        law_calls = count_calls(monkeypatch, pgf, "innovation_law")
        recursions = count_calls(monkeypatch, decompose, "pmf_recursive")
        build_model(name, **CANONICAL[name])
        assert len(law_calls) == (0 if name in ("zmg", "two-param") else 1)
        assert [n for _, n in recursions] == [400]

    def test_build_takes_no_generic_pgf_algebra(self, monkeypatch, capsys):
        # one route: the roots come from the parameters, so the generic
        # composition, cancellation, root finding and partial fractions
        # stay references for the tests that no build calls
        calls = [count_calls(monkeypatch, home, func)
                 for home, func in ((polyrat, "compose_mobius"), (polyrat, "cancel"),
                                    (polyrat, "real_distinct_roots"),
                                    (decompose, "partial_fractions"))]
        points = [(name, p) for name, grid in GRIDS.items() for p in grid]
        for name, params in points + list(CANONICAL.items()):
            build_model(name, **params)
        flags = [x for k, v in CANONICAL["rho-geo-nb"].items() for x in (f"--{k}", repr(v))]
        assert main(["verify", "rho-geo-nb", *flags, "--n", "2000", "--seed", "5"]) == 0
        capsys.readouterr()
        assert len(points) == 220
        assert calls == [[], [], [], []]

    @pytest.mark.parametrize("name, params", [
        ("two-param", {"r": 1e-20, "m": 0.5}),
        ("two-param", {"r": 1e-12, "m": 0.5}),
        ("hurdle-geo-nb", {"mu": 0.3, "rho": 1e-14, "alpha": 0.0}),
    ])
    def test_far_pole_beyond_rounding_is_dropped(self, name, params):
        # the atoms would be about the gain |pole/zero| (5e19, 5e11, 3e13) and
        # cancel to pmf(0) with more error than the pole changes the pmf by
        innovation = build_model(name, **params).innovation
        assert innovation.decomposition.terms == ()
        expect = oracle_pmf(name, 5, **params)
        assert [innovation.pmf(m) for m in range(6)] == pytest.approx(expect, abs=1e-12)

    def test_extreme_inputs_raise_only_geominar_errors(self):
        # tiny, huge, subnormal and near-one parameters, signed zeros and the
        # bounds themselves: every failure names its cause as a GeominarError
        points = _fuzz_points()
        assert len(points) == 300
        for name, params in points:
            for f in (build_model, closed_form_moments):
                try:
                    f(name, **params)
                except GeominarError:
                    pass

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_model_carries_its_validation_report(self, name):
        for params in GRIDS[name]:
            assert build_model(name, **params).constraints == validate_params(name, **params)


class TestValidateParams:
    def test_boundary_rate_has_zero_margin(self):
        mu = 1.0
        cs = validate_params("nginar", mu=mu, alpha=mu / (1.0 + mu))
        bound = next(c for c in cs if c.name == "alpha <= mu/(1+mu)")
        assert bound.satisfied
        assert abs(bound.margin) < 1e-12

    def test_sign_condition_reported_but_numeric_check_still_runs(self):
        cs = validate_params("hurdle-geo-bin", mu=0.4, rho=0.5, alpha=0.3)
        sign = next(c for c in cs if c.name == "mu <= rho/(1+rho)")
        assert not sign.satisfied
        assert sign.margin == pytest.approx(0.5 / 1.5 - 0.4, rel=1e-9)
        numeric = [c for c in cs if c.name.startswith("innovation pmf nonnegative")]
        assert numeric, "numeric pmf constraint missing from the report"

    def test_no_thinning_always_satisfied(self):
        for name, params in (("ginar", dict(theta=0.3, alpha=0.0)),
                             ("rho-geo-bin", dict(mu=1.0, rho=0.2, alpha=0.0)),
                             ("hurdle-geo-nb", dict(mu=0.3, rho=0.5, alpha=0.0))):
            assert all(c.satisfied for c in validate_params(name, **params))

    def test_violated_constraints_have_nonpositive_margins(self):
        # a negative alpha or rho once printed its distance to 1, and a pole
        # rounding onto s = 1 its tiny positive offset (the last point)
        points = _refusal_points() + REFUSAL_EDGES + [
            ("rho-geo-bin", {"mu": 1e6, "rho": 0.9999999999999999, "alpha": 0.5})]
        for name, params in points:
            violated = [c for c in validate_params(name, **params) if not c.satisfied]
            assert all(c.margin <= 0.0 for c in violated), (name, params, violated)
            if violated:
                first = re.escape(f"constraint '{violated[0].name}'")
                with pytest.raises(ValidityViolationError, match=first):
                    build_model(name, **params)

    def test_negative_pmf_detected_numerically(self):
        # inside the root-ordering region but with a negative early pmf value
        cs = validate_params("rho-geo-bin", mu=0.5, rho=0.5, alpha=0.6)
        numeric = next(c for c in cs if c.name.startswith("innovation pmf nonnegative"))
        assert not numeric.satisfied
        assert numeric.margin < -1e-6


_FUZZ_SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0 - 1e-16, 1e-16, 1e300,
                 0.5, 1.0)


def _fuzz_points(n: int = 300, seed: int = 5) -> list[tuple[str, dict]]:
    """Seeded points of any family, valid or not: each parameter is a special
    value (30%), 10**U(-320, 20) (30%), U(0, 1) (20%) or 1 - 10**U(-16, 0)
    (20%); zmg's k is negated half the time."""
    rng = random.Random(seed)

    def value():
        u = rng.random()
        if u < 0.3:
            return rng.choice(_FUZZ_SPECIAL)
        if u < 0.6:
            return 10.0 ** rng.uniform(-320.0, 20.0)
        return rng.random() if u < 0.8 else 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)

    out = []
    for _ in range(n):
        entry = rng.choice(model_entries())
        params = {k: value() for k in entry.param_names}
        if entry.name == "zmg" and rng.random() < 0.5:
            params["k"] = -params["k"]
        out.append((entry.name, params))
    return out


def _extreme_points(per_family: int = 60, seed: int = 11) -> list[tuple[str, dict]]:
    """Seeded valid points of the six thinned families, many near the edges:
    alpha to 1 - 1e-4, means from 1e-3 to 1e4 and rho to 1 - 1e-3."""
    rng = random.Random(seed)

    def alpha():
        return 1.0 - 10.0 ** rng.uniform(-4.0, 0.0) if rng.random() < 0.5 else rng.random()

    def mean():
        return 10.0 ** rng.uniform(-3.0, 4.0)

    def rho():
        return 1.0 - 10.0 ** rng.uniform(-3.0, 0.0)

    def nginar():
        mu = mean()
        return {"mu": mu, "alpha": rng.random() * mu / (1.0 + mu)}

    def hurdle_geo_bin():
        r = rho()
        return {"mu": rng.random() * r / (1.0 + r), "rho": r, "alpha": alpha()}

    draw = {
        "ginar": lambda: {"theta": 1.0 / (1.0 + mean()), "alpha": alpha()},
        "nginar": nginar,
        "rho-geo-bin": lambda: {"mu": mean(), "rho": rho(), "alpha": alpha()},
        "hurdle-geo-bin": hurdle_geo_bin,
        "rho-geo-nb": lambda: {"mu": mean(), "rho": rho(), "alpha": alpha()},
        "hurdle-geo-nb": lambda: {"mu": rng.random(), "rho": rho(), "alpha": alpha()},
    }
    out = []
    for name, f in draw.items():
        valid = []
        while len(valid) < per_family:
            p = f()
            if all(c.satisfied for c in validate_params(name, **p)):
                valid.append((name, p))
        out += valid
    return out


class TestCatalogListing:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_lists_every_constraint_validate_params_reports(self, name, capsys):
        # in validate_params order, at every accepted DERIVE and REFUSAL point
        assert main(["catalog", "--format", "json"]) == 0
        listed = {e["model"]: e["constraints"] for e in json.loads(capsys.readouterr().out)}
        points = list(GRIDS[name]) + [CANONICAL[name]] + [
            p for n, p in _refusal_points() + REFUSAL_EDGES if n == name]
        reports = [validate_params(name, **p) for p in points]
        accepted = [r for r in reports if all(c.satisfied for c in r)]
        assert len(accepted) > len(GRIDS[name])
        for report in accepted:
            assert listed[name] == [c.name for c in report]


class TestMoments:
    def test_reference_point_closed_forms(self):
        mo = closed_form_moments("rho-geo-bin", mu=1.0, rho=0.2, alpha=0.3)
        assert mo.marginal_mean == pytest.approx(1.25, rel=1e-14)
        assert mo.innovation_mean == pytest.approx(0.875, rel=1e-14)
        assert mo.marginal_var == pytest.approx(1.0 * 2.2 / 0.64, rel=1e-13)

    @pytest.mark.parametrize("name, params", [
        ("ginar", {"theta": 2.0, "alpha": 0.5}),
        ("zmg", {"mu": -1.0, "k": 0.5}),
        ("two-param", {"r": -2.0, "m": 5.0}),
    ])
    def test_closed_forms_refuse_out_of_domain_parameters(self, name, params):
        with pytest.raises(InvalidParameterError):
            closed_form_moments(name, **params)

    def test_underflowing_theta_squared_gives_infinite_variance(self):
        # theta * theta is 0 below theta ~ 1.5e-162; the quotient divided by it
        mo = closed_form_moments("ginar", theta=1e-170, alpha=0.5)
        assert (mo.marginal_mean, mo.marginal_var) == (1e170, math.inf)
        assert closed_form_moments("ginar", theta=1e-150, alpha=0.5).marginal_var == \
            (1.0 - 1e-150) / (1e-150 * 1e-150)

    def test_zero_modified_equidispersion_at_k_minus_one(self):
        mo = closed_form_moments("zmg", mu=1.0, k=-1.0)
        assert mo.innovation_dispersion == pytest.approx(1.0, abs=1e-13)
        assert dispersion_class(mo).innovation == "equi"

    def test_linear_family_equidispersion_when_b_equals_minus_d(self):
        # b = -d forces dispersion exactly 1 without being Poisson
        a, b, c, d = 0.2, 0.4, 1.0, -0.4
        assert a + b == pytest.approx(c + d)
        dist = linear_closed_form(a, b, c, d)
        assert dist.variance() / dist.mean() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_closed_forms_match_series_oracle(self, name):
        params = CANONICAL[name]
        mo = closed_form_moments(name, **params)
        mean, var = oracle_moments(name, **params)
        assert mo.innovation_mean == pytest.approx(mean, rel=1e-10)
        assert mo.innovation_var == pytest.approx(var, rel=1e-10)

    def test_closed_forms_match_exact_derivatives_at_extreme_points(self):
        # the stationarity identity carries the marginal's float moments to
        # the innovation with a few roundings, so 1e-13 holds however close
        # to the edge of the validity region the point lies
        points = _extreme_points()
        assert len(points) == 360
        for name, params in points:
            mo = closed_form_moments(name, **params)
            mean, var = exact_moments(name, **params)
            assert mo.innovation_mean == pytest.approx(mean, rel=1e-13, abs=0), (name, params)
            assert mo.innovation_var == pytest.approx(var, rel=1e-13, abs=0), (name, params)

    def test_derived_law_matches_exact_derivatives_at_extreme_points(self):
        # the series moments of the derived law, from its residues and roots,
        # against exact derivatives at s = 1; the two rho-geo-nb points near
        # rho = alpha = 1 failed verify's moment checks when the roots came
        # from float coefficients. A law whose table needs more than 1e6
        # rows is refused with that message, and no other refusal is allowed
        points = _extreme_points() + [
            ("rho-geo-nb", {"mu": 685.5224468570946, "rho": 0.9843326817031911,
                            "alpha": 0.9996767119104794}),
            ("rho-geo-nb", {"mu": 615.1743779895594, "rho": 0.8760228030573478,
                            "alpha": 0.9996953528469408}),
        ]
        refused = []
        for name, params in points:
            try:
                law = build_model(name, **params).innovation
            except GeominarError as exc:
                assert "did not converge within 1e6 entries" in str(exc), (name, params, exc)
                refused.append(name)
                continue
            mean, var = exact_moments(name, **params)
            assert law.mean() == pytest.approx(mean, rel=1e-10, abs=0), (name, params)
            assert law.variance() == pytest.approx(var, rel=1e-10, abs=0), (name, params)
        # today four rho-geo-nb points need more rows
        assert set(refused) <= {"rho-geo-nb"} and len(refused) <= 4

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_marginal_moments_match_model_pmf(self, name):
        model = build_model(name, **CANONICAL[name])
        probs = [model.marginal_pmf(k) for k in range(3000)]
        mean = sum(k * p for k, p in enumerate(probs))
        var = sum(k * k * p for k, p in enumerate(probs)) - mean * mean
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(model.moments.marginal_mean, rel=1e-9)
        assert var == pytest.approx(model.moments.marginal_var, rel=1e-9)


class TestDispersion:
    def test_hurdle_marginal_equidispersion_boundary(self):
        mu = 0.25
        rho = mu / (2.0 - mu)
        mo = closed_form_moments("hurdle-geo-bin", mu=mu, rho=rho, alpha=0.3)
        assert mo.marginal_dispersion == pytest.approx(1.0, abs=1e-12)
        assert dispersion_class(mo).marginal == "equi"

    def test_rho_geometric_marginal_always_overdispersed(self):
        for params in GRIDS["rho-geo-bin"]:
            mo = closed_form_moments("rho-geo-bin", **params)
            assert mo.marginal_dispersion >= 1.0 + params["mu"] - 1e-12
            assert dispersion_class(mo).marginal == "over"

    def test_boundary_is_equi(self):
        from geominar.catalog import Moments
        mo = Moments(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        dc = dispersion_class(mo)
        assert dc.marginal == "equi" and dc.innovation == "equi"


class TestReductionChains:
    def test_linear_family_reduces_to_zero_inflated_geometric(self):
        theta, alpha = 0.5, 0.5
        dist = linear_closed_form(theta + (1 - theta) * alpha, -(1 - theta) * alpha,
                                  1.0, -(1 - theta))
        model = build_model("ginar", theta=theta, alpha=alpha)
        for m in range(80):
            assert dist.pmf(m) == pytest.approx(model.innovation.pmf(m), abs=1e-13)

    def test_zero_modified_equals_bernoulli_geometric_representation(self):
        mu, pi_ = 1.0, 0.3
        zm = build_model("zmg", mu=mu, k=-pi_ / mu)
        bg = linear_closed_form(1.0 - pi_, pi_, 1.0 + mu, -mu)
        for m in range(80):
            assert zm.innovation.pmf(m) == pytest.approx(bg.pmf(m), abs=1e-13)

    def test_hurdle_weights_match_two_term_mixture_at_rho_zero(self):
        model = build_model("rho-geo-nb", mu=1.0, rho=0.0, alpha=0.3)
        assert model.hurdle is not None
        comps = model.innovation.decomposition.mixture_components()
        weights = sorted(c for c, _ in comps)
        assert weights == pytest.approx(sorted((4.0 / 7.0, 3.0 / 7.0)), rel=1e-10)
