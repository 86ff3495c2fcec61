import dataclasses
import math

import numpy as np
import pytest

from geominar import verify
from geominar.catalog import build_model
from geominar.cli import main
from geominar.simulate import RngStream, SeriesSample, simulate_series
from geominar.verify import (
    check_cross_method,
    check_moments,
    check_pgf_identity,
    check_pmf_validity,
    check_tail_quality,
    run_all_checks,
)

from grids import CANONICAL


def perturb_residue(model, factor=1.01, index=0):
    """Scale one geometric residue: the classic injected fault."""
    dec = model.innovation.decomposition
    terms = list(dec.terms)
    rho, s = terms[index]
    terms[index] = (rho * factor, s)
    bad_dec = dataclasses.replace(dec, terms=tuple(terms))
    bad_dist = dataclasses.replace(model.innovation, decomposition=bad_dec)
    return dataclasses.replace(model, innovation=bad_dist)


def perturb_root(model, factor=1.05, index=0):
    dec = model.innovation.decomposition
    terms = list(dec.terms)
    rho, s = terms[index]
    terms[index] = (rho, s * factor)
    bad_dec = dataclasses.replace(dec, terms=tuple(terms))
    bad_dist = dataclasses.replace(model.innovation, decomposition=bad_dec)
    return dataclasses.replace(model, innovation=bad_dist)


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
                                    pmf_table=nginar.innovation.pmf_table[:5],
                                    truncation=4)
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
        dist = InnovationDistribution(dec, 39, table, *dec.terms[0])
        rep = check_pmf_validity(dist)
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert "tail_dominance_margin" in failed or "pmf_total_mass" in failed


class TestCrossMethod:
    def test_valid_models_pass(self, ginar, nginar, rho_geo_bin):
        for model in (ginar, nginar, rho_geo_bin):
            assert check_cross_method(model, n=200, tol=1e-10).overall

    def test_degenerate_unit_mass_passes(self):
        # k close to 1: all but 1e-6 of the mass sits at zero
        model = build_model("zmg", mu=1.0, k=0.999999)
        assert check_cross_method(model, n=50).overall

    def test_fails_on_wrong_root(self, nginar):
        rep = check_cross_method(perturb_root(nginar), n=100, tol=1e-10)
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
        # the centered sums run a block at a time; 7-step blocks put a block
        # boundary every 7 steps, and the result must equal the whole-array values
        sample = simulate_series(rho_geo_bin, 10_001, RngStream(4))
        monkeypatch.setattr(verify, "MOMENT_BLOCK", 7)
        observed = {c.name: c.observed for c in check_moments(rho_geo_bin, sample).checks}
        xs = sample.values.astype(float)
        c = xs - xs.mean()
        assert observed["marginal_var_empirical"] == pytest.approx(xs.var(), rel=1e-12)
        assert observed["lag1_autocorrelation_empirical"] == pytest.approx(
            (c[1:] @ c[:-1]) / (c @ c), rel=1e-12)

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


class TestTailQuality:
    def test_two_term_errors_decrease(self, nginar):
        rep = check_tail_quality(nginar.innovation, m_start=5)
        assert rep.overall

    def test_single_term_vacuous_pass(self, ginar):
        # ginar innovation has one geometric term
        assert len(ginar.innovation.decomposition.terms) == 1
        assert check_tail_quality(ginar.innovation).overall

    def test_fails_on_wrong_root(self, nginar):
        # perturbing the decomposition root while keeping the frozen table
        # makes the approximation diverge from the tabulated truth
        bad = perturb_root(nginar, factor=1.3)
        rep = check_tail_quality(bad.innovation, m_start=5)
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
