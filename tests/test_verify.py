import dataclasses
import math
import resource
import subprocess
import sys
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from geominar import verify
from geominar.catalog import build_model
from geominar.cli import main
from geominar.decompose import hurdle_pmf, hurdle_pmf_column, pmf_recursive
from geominar.errors import DomainViolationError
from geominar.simulate import RngStream, SeriesSample, simulate_series
from geominar.verify import (
    check_cross_method,
    check_moments,
    check_pgf_identity,
    check_pmf_validity,
    check_tail_quality,
    run_all_checks,
)

from grids import CANONICAL, GRIDS, WIDE
from oracles import exact_marginal_moments, scalar_innovation_pmf, scalar_pmf
from test_acceptance import _with_terms

# the 220 grid points, the WIDE points and the canonical points
POINTS = [(name, params) for name in GRIDS for params in GRIDS[name]] + WIDE + \
    list(CANONICAL.items())


def perturb_residue(model, factor=1.01, index=0):
    """Scale one geometric residue: the classic injected fault."""
    terms = list(model.decomposition.terms)
    rho, s = terms[index]
    terms[index] = (rho * factor, s)
    return _with_terms(model, tuple(terms))


def perturb_root(model, factor=1.05, index=0):
    terms = list(model.decomposition.terms)
    rho, s = terms[index]
    terms[index] = (rho, s * factor)
    return _with_terms(model, tuple(terms))


def _exact_statistics(values) -> dict[str, float]:
    """The sample mean, variance (centred on the sample mean, over n), dispersion
    and lag-1 autocorrelation of values, formed exactly in Fractions and then
    rounded once, as check_moments reports them (the last two where defined)."""
    xs = [int(v) for v in values]
    n = len(xs)
    mean = Fraction(sum(xs), n)
    c = [x - mean for x in xs]
    ss = sum(d * d for d in c)
    exact = {"marginal_mean_empirical": mean, "marginal_var_empirical": ss / n}
    if mean:
        exact["marginal_dispersion_empirical"] = ss / n / mean
        if n > 2 and ss:
            exact["lag1_autocorrelation_empirical"] = sum(map(mul, c, c[1:])) / ss
    return {name: float(v) for name, v in exact.items()}  # correctly rounded


def _empirical(report) -> dict[str, float]:
    return {c.name: c.observed for c in report.checks if c.name.endswith("_empirical")}


@pytest.fixture(scope="module")
def ginar():
    return build_model("ginar", theta=0.5, alpha=0.5)


@pytest.fixture(scope="module")
def nginar():
    return build_model("nginar", mu=1.0, alpha=0.3)


@pytest.fixture(scope="module")
def rho_geo_bin():
    return build_model("rho-geo-bin", **CANONICAL["rho-geo-bin"])


class TestPgfIdentity:
    def test_passes_on_valid_model(self, ginar):
        assert check_pgf_identity(ginar, tol=1e-10).overall

    def test_alpha_zero_is_exact(self):
        model = build_model("ginar", theta=0.4, alpha=0.0)
        rep = check_pgf_identity(model, tol=1e-12)
        assert rep.overall
        assert rep.checks[0].observed < 1e-13

    def test_fails_on_perturbed_residue(self, ginar):
        rep = check_pgf_identity(perturb_residue(ginar), tol=1e-10)
        assert not rep.overall
        # deviation magnitude is about 0.01 * rho_1 / (s_1 - s) on [0, 0.99]
        assert rep.checks[0].observed == pytest.approx(0.01 * 0.5 / (2.0 - 0.99), rel=0.05)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def models():
    return [build_model(name, **params) for name, params in POINTS]


class TestColumnForms:
    """verify evaluates its pmfs and pgfs in columns; the scalar forms, one
    value at a time (oracles.scalar_pmf, hurdle_pmf), are the oracles, and
    every float must be theirs."""

    def test_cross_method_columns_are_the_scalar_floats(self, models):
        n = verify.CROSS_METHOD_TERMS
        for model in models:
            dec, h = model.decomposition, model.hurdle
            scalar_dec = [scalar_pmf(dec, m) for m in range(n + 1)]
            scalar_h = [hurdle_pmf(h, m) for m in range(n + 1)]
            assert _hex(dec.pmf_column(0, n + 1)) == _hex(scalar_dec), model.name
            assert _hex(hurdle_pmf_column(h, n + 1)) == _hex(scalar_h), model.name
            # and the reported values are the per-m maxima the scalar loop gave
            rec = pmf_recursive(model.law.rf, n)
            worst = (max(abs(scalar_pmf(dec, m) - rec[m]) for m in range(n + 1)),
                     max(abs(hurdle_pmf(h, m) - rec[m]) for m in range(n + 1)))
            assert _hex(c.observed for c in check_cross_method(model).checks) == _hex(worst)

    def test_pmf_columns_start_anywhere(self, models):
        for model in models[::7]:
            dec = model.decomposition
            assert _hex(dec.pmf_column(5, 40)) == _hex(scalar_pmf(dec, m) for m in range(5, 40))
            assert _hex(map(dec.pmf, range(5, 40))) == _hex(dec.pmf_column(5, 40))
            assert dec.pmf_column(40, 40) == []

    def test_iid_columns_cross_the_table_end(self):
        # the marginal of an iid model is its innovation law: table rows, then
        # the clamped decomposition
        for name in ("zmg", "two-param"):
            law = build_model(name, **CANONICAL[name]).innovation
            hi = law.truncation + 30
            for lo in (0, law.truncation - 3, law.truncation + 1):
                scalar = _hex(scalar_innovation_pmf(law, m) for m in range(lo, hi))
                assert _hex(law.pmf_column(lo, hi)) == scalar
                assert _hex(map(law.pmf, range(lo, hi))) == scalar
            assert law.pmf(-1) == scalar_innovation_pmf(law, -1) == 0.0

    @staticmethod
    def _scalar_deviations(model, grid_points: int) -> list[float]:
        """check_pgf_identity's per-point loop of 0.6.1."""
        spec = model.spec
        phi_x = model.law.rf if spec.marginal is None else spec.marginal.pgf
        out = []
        for i in range(grid_points):
            s = 0.99 * i / (grid_points - 1) if grid_points > 1 else 0.0
            rhs = phi_x(spec.thinning.pgf(s)) * model.decomposition.pgf_value(s)
            out.append(abs(phi_x(s) - rhs))
        return out

    @pytest.mark.parametrize("grid_points", [50, 2, 1])
    def test_pgf_deviations_are_the_scalar_floats(self, models, grid_points):
        # iid rows included: their phi_X is the law's rf, checked against its
        # radius once instead of at each point
        for model in models:
            scalar = self._scalar_deviations(model, grid_points)
            assert _hex(verify._pgf_deviations(model, grid_points)) == _hex(scalar), model.name
            observed = check_pgf_identity(model, grid_points).checks[0].observed
            assert observed.hex() == max([0.0, *scalar]).hex()

    def test_iid_radius_is_still_checked(self):
        # a radius below the grid's reach raises as rf(s) did at each point
        model = build_model("zmg", **CANONICAL["zmg"])
        law = dataclasses.replace(model.law)
        vars(law)["rf"] = dataclasses.replace(model.law.rf, radius=0.5)
        with pytest.raises(DomainViolationError):
            check_pgf_identity(dataclasses.replace(model, law=law))


class TestPmfValidity:
    def test_valid_models_pass(self, ginar, nginar, rho_geo_bin):
        for model in (ginar, nginar, rho_geo_bin):
            assert check_pmf_validity(model.innovation).overall

    def test_unit_mass_passes(self):
        model = build_model("zmg", mu=1.0, k=0.3)
        assert check_pmf_validity(model.innovation).overall

    def test_truncated_mass_fails(self, nginar):
        # chop the table: total mass check must notice the missing mass
        short = dataclasses.replace(nginar.innovation,
                                    pmf_table=nginar.innovation.pmf_table[:5])
        rep = check_pmf_validity(short)
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert "pmf_total_mass" in failed

    def test_forced_negative_weight_fails(self):
        # nginar outside validity: built by bypassing the catalog guard
        from geominar.pgf import GeometricMean, ModelSpec, NegativeBinomialThinning
        from geominar.pgf import innovation_pgf
        from geominar.decompose import partial_fractions
        rf = innovation_pgf(ModelSpec(GeometricMean(1.0), NegativeBinomialThinning(0.6)))
        dec = partial_fractions(rf)
        table = tuple(max(dec.pmf(m), 0.0) for m in range(40))
        from geominar.decompose import InnovationDistribution
        dist = InnovationDistribution(dec, table)
        rep = check_pmf_validity(dist)
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert "tail_dominance_margin" in failed or "pmf_total_mass" in failed


class TestCrossMethod:
    def test_valid_models_pass(self, ginar, nginar, rho_geo_bin):
        for model in (ginar, nginar, rho_geo_bin):
            assert check_cross_method(model, tol=1e-10).overall

    def test_degenerate_unit_mass_passes(self):
        # k close to 1: all but 1e-6 of the mass sits at zero
        model = build_model("zmg", mu=1.0, k=0.999999)
        assert check_cross_method(model).overall

    def test_fails_on_wrong_root(self, nginar):
        rep = check_cross_method(perturb_root(nginar), tol=1e-10)
        assert not rep.overall

    def test_hurdle_column_present_for_quadratic_models(self, ginar, rho_geo_bin):
        # the linear families have the hurdle view too
        for model in (ginar, rho_geo_bin):
            names = {c.name for c in check_cross_method(model).checks}
            assert "recursion_vs_hurdle_form" in names


class TestMoments:
    def test_passes_with_long_sample(self, rho_geo_bin):
        sample = simulate_series(rho_geo_bin, 200_000, RngStream(123))
        assert check_moments(rho_geo_bin, sample).overall

    def test_alpha_zero_innovation_equals_marginal(self):
        model = build_model("two-param", r=2.0, m=1.0)
        sample = simulate_series(model, 100_000, RngStream(5))
        rep = check_moments(model, sample)
        assert rep.overall
        assert model.moments.innovation_mean == model.moments.marginal_mean

    def test_fails_on_biased_closed_form(self, rho_geo_bin):
        bad_moments = dataclasses.replace(rho_geo_bin.moments,
                                          innovation_mean=rho_geo_bin.moments.innovation_mean * 1.01)
        bad = dataclasses.replace(rho_geo_bin, moments=bad_moments)
        sample = simulate_series(bad, 50_000, RngStream(123))
        rep = check_moments(bad, sample)
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert "innovation_mean_pmf_vs_closed" in failed

    def test_block_sums_match_whole_sample(self, monkeypatch, rho_geo_bin):
        # the path sums run a block at a time; 7-step blocks put a block
        # boundary every 7 steps, and every statistic must equal the correctly
        # rounded exact value of the whole sample. The last block holds 5
        # steps at n = 10,001, and one step, with no product, at n = 10,004
        monkeypatch.setattr(verify, "MOMENT_BLOCK", 7)
        for n in (10_001, 10_004):
            sample = simulate_series(rho_geo_bin, n, RngStream(4))
            assert _empirical(check_moments(rho_geo_bin, sample)) == \
                _exact_statistics(sample.values), n

    @pytest.mark.parametrize("values", [[3], [0], [2, 5], [4, 4], [0, 7, 0]])
    def test_shortest_paths_are_exact(self, ginar, values):
        # n = 1 and n = 2 have no lag-1 check, n = 3 has; a variance of 0 is exact
        sample = SeriesSample(np.array(values, dtype=np.int64), ginar, RngStream(0), 0)
        assert _empirical(check_moments(ginar, sample)) == _exact_statistics(values)

    @pytest.mark.parametrize("values", [
        # one square, 3.04e9^2 > 2^63 - 1, would overflow int64
        [3_040_000_000, 3_039_999_999, 1, 3_040_000_001, 0, 2_999_999_999, 3_040_000_000],
        # 3.0e9^2 fits, but the sum of any two such squares would wrap
        [3_000_000_000, 2_999_999_999, 1, 3_000_000_000, 0, 2_999_999_998],
        # 2^28: the squares of 2,003 steps sum past 2^63, those of 127 do not
        [1 << 28] * 1000 + [(1 << 28) - 1] * 1000 + [5] * 3,
        # large steps, then small: at 7 steps a block, the first block is
        # summed in Python ints and the rest in int64
        [3_040_000_000] * 3 + [2, 9, 0, 4] * 6,
        # at 7 steps a block, the first block's squares fit in int64, but
        # not its lag-1 sum, whose last product takes the next block's first step
        [1_100_000_000] * 7 + [3_000_000_000] * 2,
    ])
    @pytest.mark.parametrize("block", [7, verify.MOMENT_BLOCK])
    def test_sums_of_large_counts_do_not_wrap(self, monkeypatch, ginar, values, block):
        monkeypatch.setattr(verify, "MOMENT_BLOCK", block)
        xs = np.array(values, dtype=np.int64)
        assert verify._path_sums(xs) == (sum(values), sum(v * v for v in values),
                                         sum(a * b for a, b in zip(values, values[1:])))
        sample = SeriesSample(xs, ginar, RngStream(0), 0)
        assert _empirical(check_moments(ginar, sample)) == _exact_statistics(values)

    def test_all_zero_sample_omits_undefined_checks(self):
        # mean 1e-6: a 2000-step path is all zeros, so var/mean and the lag-1
        # autocorrelation are 0/0; both checks are left out and the rest pass
        model = build_model("nginar", mu=1e-6, alpha=1e-7)
        sample = simulate_series(model, 2000, RngStream(0))
        assert not sample.values.any()
        rep = check_moments(model, sample)
        names = {c.name for c in rep.checks}
        assert "marginal_mean_empirical" in names
        assert not names & {"marginal_dispersion_empirical", "lag1_autocorrelation_empirical"}
        assert rep.overall

    def test_constant_sample_omits_lag1(self, ginar):
        # a constant nonzero sample has no centered variation: the lag-1
        # autocorrelation is 0/0 and left out; the dispersion is 0 and checked
        sample = SeriesSample(np.ones(3, dtype=np.int64), ginar, RngStream(0), 0)
        rep = check_moments(ginar, sample)
        observed = {c.name: c.observed for c in rep.checks}
        assert "lag1_autocorrelation_empirical" not in observed
        assert observed["marginal_dispersion_empirical"] == 0.0
        assert all(math.isfinite(v) for v in observed.values())
        assert rep.overall

    def test_constant_long_sample_fails_without_lag1(self, ginar):
        # a long constant path is still caught, by the variance check
        sample = SeriesSample(np.ones(20_000, dtype=np.int64), ginar, RngStream(0), 0)
        rep = check_moments(ginar, sample)
        failed = {c.name for c in rep.checks if not c.passed}
        assert "marginal_var_empirical" in failed
        assert "lag1_autocorrelation_empirical" not in {c.name for c in rep.checks}

    def test_all_zero_sample_fails_mean_at_large_mean(self, ginar):
        # a broken simulator returning zeros is still caught by the mean check
        sample = SeriesSample(np.zeros(2000, dtype=np.int64), ginar, RngStream(0), 0)
        rep = check_moments(ginar, sample)
        failed = {c.name for c in rep.checks if not c.passed}
        assert "marginal_mean_empirical" in failed

    @pytest.mark.parametrize("argv", [
        # a subnormal variance: V * ess / n underflowed to a zero tolerance
        ["nginar", "--mu", "5e-324", "--alpha", "0", "--n", "100000"],
        # Bernoulli(0.5): (X - mu)^2 is constant, so the fourth-moment error
        # of the variance is 0 and only the sample mean's error is left
        ["two-param", "--r", "5e-324", "--m", "0.5", "--n", "1000"],
        # rho and alpha near 1: the smallest root is s = 1 + 2.3e-5 (and
        # 1 + 2.0e-4), whose residue was off by up to 3e-6 relative when
        # read from float coefficients, which moved the series moments
        ["rho-geo-nb", "--mu", "685.5224468570946", "--rho", "0.9843326817031911",
         "--alpha", "0.9996767119104794", "--n", "100000", "--seed", "1"],
        ["rho-geo-nb", "--mu", "615.1743779895594", "--rho", "0.8760228030573478",
         "--alpha", "0.9996953528469408", "--n", "100000", "--seed", "1"],
        # the pole at s = 1 + 1e20 is a term, not trimmed: pmf(1) = 5e-21, so
        # the table's law is the closed form's and its variance is not 0
        ["zmg", "--mu", "1e-20", "--k", "0.5", "--n", "1000"],
        # alpha 1e-12 below 1: the zero p/alpha lies 1e-15 from the pole p =
        # 1e-3, yet the pair is the whole innovation law (variance 2e-6), so
        # only a zero gap from the thinning's preimage may cancel a pair
        ["ginar", "--theta", "1e-3", "--alpha", "0.999999999999", "--n", "20000"],
    ])
    def test_gates_hold_at_degenerate_valid_points(self, argv, capsys):
        assert main(["verify", *argv]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines()
                    if "marginal_var_empirical" in x)
        assert float(line.split("tol=")[1]) > 0.0


# the worst relative error of the marginal's mean, m2, m3 and m4 against exact
# derivatives at s = 1 (oracles.exact_marginal_moments) is 1.1e-15 over the
# canonical, grid and near-pole points (m2 at zmg mu 0.5, k -1.85)
EXACT_MOMENT_REL = 4e-15


def _assert_exact_marginal_moments(name, params):
    got = verify._marginal_central_moments(build_model(name, **params))
    for j, (a, b) in enumerate(zip(got, exact_marginal_moments(name, **params))):
        assert abs(a - b) <= EXACT_MOMENT_REL * abs(b), (name, params, j, a, b)


class TestMarginalMoments:
    def test_closed_form_gives_the_exact_moments(self):
        for name, params in list(CANONICAL.items()) + [(n, p) for n in GRIDS for p in GRIDS[n]]:
            _assert_exact_marginal_moments(name, params)

    @pytest.mark.parametrize("name, params", [
        # marginal poles 1e-10, 3e-11 and 1e-9 from s = 1: the geometric part's
        # complement 1 - q must keep t's digits; and a body of 1e-300 whose
        # 1 - atom cancels to 0
        ("ginar", {"theta": 1e-10, "alpha": 0.5}),
        ("ginar", {"theta": 3e-11, "alpha": 0.9}),
        ("nginar", {"mu": 1e9, "alpha": 0.5}),
        ("rho-geo-nb", {"mu": 1e-300, "rho": 0.9999999997, "alpha": 1e-16}),
    ])
    def test_pole_near_one_gives_the_exact_moments(self, name, params):
        _assert_exact_marginal_moments(name, params)

    @pytest.mark.parametrize("name", ["ginar", "nginar", "rho-geo-bin", "hurdle-geo-bin"])
    @pytest.mark.parametrize("fault", ["body", "mean"])
    def test_scaled_form_or_mean_fails_the_mean_check(self, monkeypatch, name, fault):
        # the marginal mean's two sources, its geometric form's body and its
        # closed mean(), each scaled by 1 + 1e-6 in turn, on each marginal class
        cls = type(build_model(name, **CANONICAL[name]).spec.marginal)
        if fault == "body":
            form = cls.geometric_form

            def scaled(self):
                atom, body, *rest = form(self)
                return (atom, body * (1.0 + 1e-6), *rest)
            monkeypatch.setattr(cls, "geometric_form", scaled)
        else:
            mean = cls.mean
            monkeypatch.setattr(cls, "mean", lambda self: mean(self) * (1.0 + 1e-6))
        model = build_model(name, **CANONICAL[name])
        sample = SeriesSample(np.zeros(100, dtype=np.int64), model, RngStream(0), 0)
        failed = {c.name for c in check_moments(model, sample).checks if not c.passed}
        assert "marginal_mean_pmf_vs_closed" in failed

    @pytest.mark.parametrize("argv", [
        # marginal poles 1e-8 and 3e-10 from s = 1: summing the pmf until the
        # tail is below 1e-20 took 4.6e9 and 1.5e11 rows (34.3 GiB, 1.12 TiB).
        # At the rho-geo-nb points the body's weight is 1e-300 and 5e-324,
        # which 1 - atom cancelled to 0, and so the variance gate's m4 with it
        ["ginar", "--theta", "1e-8", "--alpha", "0.9999999999999999", "--n", "200"],
        ["rho-geo-nb", "--mu", "1e-300", "--rho", "0.9999999997", "--alpha", "1e-16",
         "--n", "200"],
        ["rho-geo-nb", "--mu", "5e-324", "--rho", "0.9999999999999895", "--alpha", "0",
         "--n", "200"],
    ])
    def test_pole_near_one_is_verified_in_bounded_memory(self, argv):
        # every check passes; in a child whose address space is capped, so
        # that a regression cannot take the machine
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))

        proc = subprocess.run([sys.executable, "-m", "geominar", "verify", *argv],
                              capture_output=True, text=True, preexec_fn=cap, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "marginal_var_pmf_vs_closed" in proc.stdout


class TestTailQuality:
    def test_two_term_errors_decrease(self, nginar):
        rep = check_tail_quality(nginar.innovation)
        assert rep.overall

    def test_single_term_vacuous_pass(self, ginar):
        # ginar innovation has one geometric term
        assert len(ginar.innovation.decomposition.terms) == 1
        assert check_tail_quality(ginar.innovation).overall

    def test_fails_on_wrong_root(self, nginar):
        # perturbing the decomposition root while keeping the frozen table
        # makes the approximation diverge from the tabulated truth
        bad = perturb_root(nginar, factor=1.3)
        rep = check_tail_quality(bad.innovation)
        assert not rep.overall


class TestRunAll:
    def test_full_suite_passes(self, rho_geo_bin):
        sample = simulate_series(rho_geo_bin, 100_000, RngStream(77))
        rep = run_all_checks(rho_geo_bin, sample)
        assert rep.overall
        assert rep.to_dict()["overall"] is True

    def test_overall_is_conjunction(self, nginar):
        sample = simulate_series(nginar, 50_000, RngStream(2))
        rep = run_all_checks(perturb_residue(nginar), sample)
        assert not rep.overall
        assert any(not c.passed for c in rep.checks)
