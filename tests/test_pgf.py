import math
from fractions import Fraction

import pytest

from geominar.errors import InvalidParameterError
from geominar.pgf import (
    BinomialThinning,
    Geometric,
    GeometricMean,
    HurdleGeometric,
    ModelSpec,
    NegativeBinomialThinning,
    RhoGeometric,
    innovation_pgf,
)

from oracles import marginal_pgf, series_pmf

MARGINALS = [
    Geometric(0.5),
    Geometric(0.2),
    GeometricMean(1.0),
    GeometricMean(2.5),
    RhoGeometric(1.0, 0.2),
    RhoGeometric(0.5, 0.0),
    HurdleGeometric(0.4, 0.5),
    HurdleGeometric(0.2, 0.3),
]


class TestMarginalPgf:
    def test_geometric_form(self):
        for s in (0.0, 0.5, 1.0):
            assert Geometric(0.5).pgf(s) == pytest.approx(0.5 / (1.0 - 0.5 * s), rel=1e-14)

    def test_rho_zero_reduces_to_plain_geometric(self):
        for s in (0.0, 0.4, 0.9):
            assert RhoGeometric(1.5, 0.0).pgf(s) == pytest.approx(GeometricMean(1.5).pgf(s),
                                                                  rel=1e-14)

    def test_hurdle_geometric_form(self):
        # mu + mu*rho - rho = 0.1: (0.9 + 0.1 s) / (1.5 - 0.5 s)
        for s in (0.0, 0.3, 1.0):
            assert HurdleGeometric(0.4, 0.5).pgf(s) == pytest.approx((0.9 + 0.1 * s) / (1.5 - 0.5 * s), rel=1e-14)

    @pytest.mark.parametrize("m", MARGINALS)
    def test_value_one_at_one(self, m):
        assert m.pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", MARGINALS)
    def test_derivative_at_one_is_mean(self, m):
        h = 1e-6
        fd = (m.pgf(1.0 + h) - m.pgf(1.0 - h)) / (2.0 * h)
        assert fd == pytest.approx(m.mean(), rel=1e-7)

    @pytest.mark.parametrize("m", MARGINALS)
    def test_pmf_sums_match_pgf_and_moments(self, m):
        probs = [m.pmf(k) for k in range(4000)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        for s in (0.0, 0.5, 0.9):
            assert sum(p * s**k for k, p in enumerate(probs)) == pytest.approx(
                m.pgf(s), rel=1e-12)
        mean = sum(k * p for k, p in enumerate(probs))
        var = sum(k * k * p for k, p in enumerate(probs)) - mean * mean
        assert mean == pytest.approx(m.mean(), rel=1e-10)
        assert var == pytest.approx(m.variance(), rel=1e-10)

    @pytest.mark.parametrize("m", MARGINALS)
    def test_geometric_form_gives_the_pmf(self, m):
        # pmf_column, read from the geometric form, against the series of the
        # exact pgf (a s + b) / (c s + d) written from the family's pmf
        atom, body, shift, ratio, complement = m.geometric_form()
        assert atom + body == pytest.approx(1.0, abs=1e-15)
        assert ratio + complement == pytest.approx(1.0, abs=1e-15)
        col = m.pmf_column(0, 60)
        assert col == pytest.approx(series_pmf(*marginal_pgf(m), 59), rel=1e-12)
        assert m.pmf_column(7, 60) == col[7:]
        assert [m.pmf(k) for k in range(60)] == col
        assert m.pmf(-1) == 0.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(InvalidParameterError):
            Geometric(1.0)
        with pytest.raises(InvalidParameterError):
            GeometricMean(0.0)
        with pytest.raises(InvalidParameterError):
            RhoGeometric(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            HurdleGeometric(1.2, 0.5)


class TestCountingPgf:
    def test_binomial_zero_is_constant_one(self):
        for s in (0.0, 0.3, 1.0):
            assert BinomialThinning(0.0).pgf(s) == 1.0

    def test_binomial_affine(self):
        for s in (0.0, 0.3, 1.0):
            assert BinomialThinning(0.5).pgf(s) == 0.5 + 0.5 * s

    def test_negative_binomial_moebius(self):
        for s in (0.0, 0.5, 1.0):
            assert NegativeBinomialThinning(0.3).pgf(s) == pytest.approx(1.0 / (1.3 - 0.3 * s), rel=1e-14)

    def test_alpha_domain(self):
        with pytest.raises(InvalidParameterError):
            BinomialThinning(1.0)
        with pytest.raises(InvalidParameterError):
            NegativeBinomialThinning(-0.1)

    def test_domain_margin_is_the_signed_distance(self):
        # to the nearer bound, <= 0 outside; on the closed lower end, to the upper one
        def domain(t, alpha):
            return tuple((label, *test({"alpha": alpha})) for label, test in t.DOMAIN)

        label = "alpha in [0,1)"
        assert domain(BinomialThinning, 0.25) == ((label, True, 0.25),)
        assert domain(BinomialThinning, 0.0) == ((label, True, 1.0),)
        assert domain(NegativeBinomialThinning, -0.5) == ((label, False, -0.5),)
        assert domain(NegativeBinomialThinning, 1.5) == ((label, False, -0.5),)

    @pytest.mark.parametrize("alpha, width", [(0.3, 58), (0.5, 81), (0.85, 119), (0.9999, 136),
                                              (1.0 - 1e-16, 136)])
    def test_negative_binomial_count_width_is_the_least_below_the_tail_bound(self, alpha, width):
        # the thinned count of 32 units is NB(32, 1 - q), q = alpha/(1+alpha), at the
        # float alpha: columns 0..width-1 leave less than 2^-54 and one fewer does not
        assert NegativeBinomialThinning(alpha).count_width(32) == width
        q = Fraction(alpha) / (1 + Fraction(alpha))
        cells = [math.comb(31 + k, k) * q**k * (1 - q) ** 32 for k in range(width)]
        tail = 1 - sum(cells)
        assert tail < Fraction(1, 2**54) <= tail + cells[-1]


SPECS = [
    ModelSpec(Geometric(0.5), BinomialThinning(0.5)),
    ModelSpec(Geometric(0.3), BinomialThinning(0.0)),
    ModelSpec(GeometricMean(1.0), NegativeBinomialThinning(0.3)),
    ModelSpec(RhoGeometric(1.0, 0.2), BinomialThinning(0.3)),
    ModelSpec(RhoGeometric(1.0, 0.2), NegativeBinomialThinning(0.3)),
    ModelSpec(HurdleGeometric(0.25, 0.5), BinomialThinning(0.3)),
    ModelSpec(HurdleGeometric(0.3, 0.5), NegativeBinomialThinning(0.2)),
]


class TestInnovationPgf:
    def test_zero_inflated_geometric_case(self):
        rf = innovation_pgf(ModelSpec(Geometric(0.5), BinomialThinning(0.5)))
        assert rf.num.coeffs == pytest.approx((0.75, -0.25), rel=1e-14)
        assert rf.den.coeffs == pytest.approx((1.0, -0.5), rel=1e-14)

    def test_no_thinning_returns_marginal(self):
        spec = ModelSpec(RhoGeometric(1.0, 0.2), BinomialThinning(0.0))
        rf = innovation_pgf(spec)
        for s in (0.0, 0.4, 0.9):
            assert rf(s) == pytest.approx(spec.marginal.pgf(s), rel=1e-12)

    def test_nb_thinning_numerator(self):
        rf = innovation_pgf(ModelSpec(GeometricMean(1.0), NegativeBinomialThinning(0.3)))
        # numerator proportional to 1.6 - 0.6 s over (2-s)(1.3-0.3s)
        for s in (0.0, 0.5, 0.9):
            expect = (1.6 - 0.6 * s) / ((2.0 - s) * (1.3 - 0.3 * s))
            assert rf(s) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("spec", SPECS)
    def test_stationarity_identity(self, spec):
        rf = innovation_pgf(spec)
        phi_x, phi_n = spec.marginal.pgf, spec.thinning.pgf
        for i in range(50):
            s = 0.99 * i / 49
            assert abs(phi_x(s) - phi_x(phi_n(s)) * rf(s)) <= 1e-10

    @pytest.mark.parametrize("spec", SPECS)
    def test_value_one_and_monotone(self, spec):
        rf = innovation_pgf(spec)
        assert rf(1.0) == pytest.approx(1.0, abs=1e-12)
        vals = [rf(i / 32) for i in range(33)]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert 0.0 < rf(0.0) < 1.0

    @pytest.mark.parametrize("spec", SPECS)
    def test_radius_exceeds_one(self, spec):
        assert innovation_pgf(spec).radius > 1.0

    def test_derivative_at_one_is_mean_times_survival(self):
        for spec in SPECS:
            rf = innovation_pgf(spec)
            h = 1e-6
            fd = (rf(1.0 + h) - rf(1.0 - h)) / (2.0 * h)
            expect = spec.marginal.mean() * (1.0 - spec.thinning.alpha)
            assert fd == pytest.approx(expect, rel=1e-6)

    def test_missing_marginal_rejected(self):
        with pytest.raises(InvalidParameterError):
            innovation_pgf(ModelSpec(None, BinomialThinning(0.5)))
