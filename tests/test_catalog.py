import math
import random
import sys

import pytest

from geominar import decompose, pgf, polyrat
from geominar.catalog import (
    MODEL_NAMES,
    build_model,
    closed_form_moments,
    dispersion_class,
    validate_params,
)
from geominar.decompose import linear_closed_form
from geominar.errors import GeominarError, ValidityViolationError

from grids import CANONICAL, GRIDS
from oracles import exact_moments, oracle_moments, oracle_pmf


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

    def test_build_takes_no_generic_pgf_algebra(self, monkeypatch):
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

    def test_negative_pmf_detected_numerically(self):
        # inside the root-ordering region but with a negative early pmf value
        cs = validate_params("rho-geo-bin", mu=0.5, rho=0.5, alpha=0.6)
        numeric = next(c for c in cs if c.name.startswith("innovation pmf nonnegative"))
        assert not numeric.satisfied
        assert numeric.margin < -1e-6


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


class TestMoments:
    def test_reference_point_closed_forms(self):
        mo = closed_form_moments("rho-geo-bin", mu=1.0, rho=0.2, alpha=0.3)
        assert mo.marginal_mean == pytest.approx(1.25, rel=1e-14)
        assert mo.innovation_mean == pytest.approx(0.875, rel=1e-14)
        assert mo.marginal_var == pytest.approx(1.0 * 2.2 / 0.64, rel=1e-13)

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
