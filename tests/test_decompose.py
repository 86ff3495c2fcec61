import math
import struct
from fractions import Fraction

import pytest

from geominar.catalog import _entry, _validate, build_model
from geominar.decompose import (
    DEFAULT_TARGET_MASS,
    FractionalDecomposition,
    HurdleForm,
    _weights_equal_leading,
    _weights_from_residues,
    decomposition_to_hurdle,
    hurdle_pmf,
    linear_closed_form,
    partial_fractions,
    pmf_from_decomposition,
    pmf_recursive,
    quadratic_closed_form,
    tail_geometric_approx,
)
from geominar.errors import (
    ConstraintViolationError,
    GeominarError,
    NegativeProbabilityError,
    NoGeometricTermsError,
    RepeatedRootsError,
    RootInsideDiskError,
)
from geominar.pgf import (
    GeometricMean,
    ModelSpec,
    NegativeBinomialThinning,
    innovation_pgf,
)
from geominar.polyrat import Polynomial, RationalFunction

from grids import CANONICAL, GRIDS, WIDE
from oracles import loop_pmf_recursive, loop_pmf_table, oracle_pmf
from test_catalog import _extreme_points


def rf(num, den, radius=math.inf, pgf=True):
    """A RationalFunction; with pgf, its numerator is rescaled to make the value
    at s = 1 exactly one."""
    r = RationalFunction(Polynomial(num), Polynomial(den), radius=radius)
    if not pgf:
        return r
    return RationalFunction(r.num.scaled(1.0 / r(1.0)), r.den, radius=radius)


GINAR_RF = rf((0.75, -0.25), (1.0, -0.5), radius=2.0)


def nginar_rf(mu=1.0, alpha=0.3):
    return innovation_pgf(ModelSpec(GeometricMean(mu), NegativeBinomialThinning(alpha)))


class TestPartialFractions:
    def test_zero_inflated_geometric(self):
        dec = partial_fractions(GINAR_RF)
        assert dec.atom_poly.coeffs == pytest.approx((0.5,), rel=1e-14)
        assert len(dec.terms) == 1
        rho, s = dec.terms[0]
        assert rho == pytest.approx(0.5, rel=1e-13)
        assert s == pytest.approx(2.0, rel=1e-13)

    def test_two_geometric_mixture(self):
        dec = partial_fractions(nginar_rf())
        (rho1, s1), (rho2, s2) = dec.terms
        assert s1 == pytest.approx(2.0, rel=1e-12)
        assert s2 == pytest.approx(13.0 / 3.0, rel=1e-12)
        assert rho1 == pytest.approx(4.0 / 7.0, rel=1e-11)
        # mixture weights c_i = rho_i / (s_i - 1)
        weights = [c for c, _ in dec.mixture_components()]
        assert weights[0] == pytest.approx(1.0 - 0.3 / 0.7, rel=1e-11)
        assert weights[1] == pytest.approx(0.3 / 0.7, rel=1e-11)
        assert dec.pmf(0) == pytest.approx(0.615385, abs=5e-7)

    def test_constant_is_pure_atom(self):
        dec = partial_fractions(rf((1.0,), (1.0,)))
        assert dec.atom_poly.coeffs == (1.0,)
        assert dec.terms == ()

    def test_reconstruction_on_grid(self):
        for r in (GINAR_RF, nginar_rf(), nginar_rf(2.0, 0.5)):
            dec = partial_fractions(r)
            for i in range(50):
                s = 0.99 * i / 49
                assert abs(dec.pgf_value(s) - r(s)) <= 1e-10

    def test_repeated_roots_raise(self):
        bad = rf((0.25, 0.04), (1.0, -1.0, 0.25), pgf=False)  # (1 - s/2)^2
        with pytest.raises(RepeatedRootsError):
            partial_fractions(bad)

    def test_root_inside_disk_raises(self):
        bad = rf((0.2, 0.3), (1.0, -2.0), pgf=False)  # root at 0.5
        with pytest.raises(RootInsideDiskError):
            partial_fractions(bad)


class TestPmfFromDecomposition:
    def test_zero_inflated_table(self):
        dist = pmf_from_decomposition(partial_fractions(GINAR_RF))
        assert dist.pmf_table[0] == pytest.approx(0.75, abs=1e-14)
        assert dist.pmf_table[1] == pytest.approx(0.125, abs=1e-14)
        assert dist.pmf_table[2] == pytest.approx(0.0625, abs=1e-14)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert dist.table_mass() >= 1.0 - 1e-12

    def test_negative_weight_detected(self):
        # nginar with alpha > mu/(1+mu): the slow geometric has weight -0.5
        with pytest.raises(NegativeProbabilityError):
            pmf_from_decomposition(partial_fractions(nginar_rf(1.0, 0.6)))

    def test_unit_mass_at_zero(self):
        dist = pmf_from_decomposition(FractionalDecomposition(Polynomial((1.0,)), ()))
        assert dist.pmf_table == (1.0,)
        assert dist.pmf(3) == 0.0

    def test_mean_and_variance_match_finite_sums(self):
        dist = pmf_from_decomposition(partial_fractions(nginar_rf()), 1.0 - 1e-14)
        mean_sum = sum(m * dist.pmf(m) for m in range(800))
        var_sum = sum(m * m * dist.pmf(m) for m in range(800)) - mean_sum**2
        assert dist.mean() == pytest.approx(mean_sum, rel=1e-11)
        assert dist.variance() == pytest.approx(var_sum, rel=1e-11)

    def test_remaining_mass_is_exact_tail(self):
        # the nginar two-term decomposition; the tail beyond m is the exact
        # series mass sum rho_i / (s_i - 1) minus the entries 0..m, in Fractions
        dec = partial_fractions(nginar_rf())
        assert len(dec.terms) == 2
        terms = [(Fraction(r), Fraction(s)) for r, s in dec.terms]
        total = sum(r / (s - 1) for r, s in terms)
        for m in (0, 1, 7, 30):
            head = sum(r / s ** (k + 1) for r, s in terms for k in range(m + 1))
            assert dec.remaining_mass(m) == pytest.approx(float(total - head), rel=1e-12)

    def test_truncation_honors_target(self):
        loose = pmf_from_decomposition(partial_fractions(GINAR_RF), 0.99)
        tight = pmf_from_decomposition(partial_fractions(GINAR_RF), 1.0 - 1e-12)
        assert loose.truncation < tight.truncation
        assert sum(loose.pmf_table) >= 0.99


# the points that the build refuses with "innovation construction mismatch at
# m=0"; their laws still tabulate
MISMATCH_AT_ZERO = [
    ("two-param", {"r": 1e-8, "m": 0.5}),
    ("zmg", {"mu": 1e-8, "k": -5e7}),
    ("hurdle-geo-nb", {"mu": 0.3, "rho": 1e-8, "alpha": 0.0}),
    ("hurdle-geo-nb", {"mu": 0.39734968934271897, "rho": 4.72e-66, "alpha": 3.29e-81}),
]
TRUNCATION_MASSES = (DEFAULT_TARGET_MASS, 0.5, 1.0 - 1e-15)


def law_decomposition(name, params):
    """The decomposition of a catalog law, also where build_model refuses it."""
    return _validate(_entry(name), params)[2].decomposition()


def raised(fn, *args):
    with pytest.raises(GeominarError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


class TestBlockTabulation:
    """pmf_from_decomposition's blocks of columns give the table, truncation
    index and refusals of the row-at-a-time loop (oracles.loop_pmf_table)."""

    def assert_same_table(self, name, params, target):
        dec = law_decomposition(name, params)
        new = pmf_from_decomposition(dec, target)
        old = loop_pmf_table(dec, target)
        assert new.truncation == len(old) - 1, (name, params, target)
        assert list(map(float.hex, new.pmf_table)) == list(map(float.hex, old)), (name, params)

    @pytest.mark.parametrize("target", TRUNCATION_MASSES)
    def test_same_bits_at_the_grid_canonical_and_mismatch_points(self, target):
        points = [(n, p) for n, grid in GRIDS.items() for p in grid]
        points += list(CANONICAL.items()) + MISMATCH_AT_ZERO
        for name, params in points:
            self.assert_same_table(name, params, target)

    @pytest.mark.parametrize("target", TRUNCATION_MASSES)
    @pytest.mark.parametrize("name, params", WIDE)
    def test_same_bits_at_the_wide_points(self, name, params, target):
        self.assert_same_table(name, params, target)

    @pytest.mark.parametrize("atoms, terms, target, m", [
        ((0.6, -0.2), ((0.3, 2.0),), DEFAULT_TARGET_MASS, 1),
        ((0.5,) + (0.0,) * 99 + (-0.1,), ((0.3, 2.0),), DEFAULT_TARGET_MASS, 100),  # block 2
        # the mass target holds at m = 0, where the tail is not certified: row 1 is < 0
        ((0.9,), ((0.01, 2.0), (-0.1, 4.0)), 0.5, 1),
    ])
    def test_same_first_negative_row(self, atoms, terms, target, m):
        dec = FractionalDecomposition(Polynomial(atoms), terms)
        new = raised(pmf_from_decomposition, dec, target)
        assert new == raised(loop_pmf_table, dec, target)
        assert new[0] is NegativeProbabilityError and f"pmf entry at m={m} is " in new[1]

    def test_same_row_cap_refusal(self):
        dec = law_decomposition("ginar", {"theta": 1e-6, "alpha": 0.5})
        new = raised(pmf_from_decomposition, dec)
        assert new == raised(loop_pmf_table, dec, DEFAULT_TARGET_MASS)
        assert new[1] == "pmf truncation did not converge within 1e6 entries"

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_row_refused_at_once(self, rho):
        # the row loop gave the table (inf,) for rho = inf, and for nan ran to
        # the 1e6-row cap; the writer would have printed either as a bare token
        dec = FractionalDecomposition(Polynomial((0.5,)), ((rho, 2.0),))
        assert raised(pmf_from_decomposition, dec) == (
            GeominarError, f"pmf entry at m=0 is {rho!r}: not a finite number")


class TestLinearClosedForm:
    def test_matches_zero_inflated_case(self):
        dist = linear_closed_form(0.75, -0.25, 1.0, -0.5)
        via_residues = pmf_from_decomposition(partial_fractions(GINAR_RF))
        for m in range(60):
            assert dist.pmf(m) == pytest.approx(via_residues.pmf(m), abs=1e-12)

    def test_two_parameter_family_point(self):
        # r = 2, m = 1: atom 1/2, pmf0 = 1/2 + (1/2)(1/3)
        r_, m_ = 2.0, 1.0
        dist = linear_closed_form(1.0 + r_ - m_, m_ - r_, 1.0 + r_, -r_)
        assert dist.pmf(0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert dist.decomposition.atom_poly.coeffs[0] == pytest.approx(0.5, rel=1e-14)

    def test_zero_modified_geometric_point(self):
        mu, k = 1.0, 0.3
        dist = linear_closed_form(1.0 + k * mu, -k * mu, 1.0 + mu, -mu)
        assert dist.pmf(0) == pytest.approx(0.65, rel=1e-13)
        for m in range(1, 30):
            expect = (1.0 - k) * (mu / (1.0 + mu)) ** m / (1.0 + mu)
            assert dist.pmf(m) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("coeffs,label", [
        ((1.0, -0.25, 1.0, -0.5), "a < c"),
        ((0.75, -0.3, 1.0, -0.5), "a + b = c + d"),
        ((0.75, -0.25, 1.0, 0.0), "d != 0"),
        ((0.4, 1.2, 0.8, 0.8), "-c/d > 1"),
    ])
    def test_constraint_violations_named(self, coeffs, label):
        with pytest.raises(ConstraintViolationError):
            linear_closed_form(*coeffs)


EX6_COEFFS = dict(mu=1.0, rho=0.2, alpha=0.3)


def ex6_quadratic(mu=1.0, rho=0.2, alpha=0.3):
    a = alpha * rho * (mu + rho)
    b = -(rho * (1 - rho) + alpha * (mu + rho) * (1 + rho))
    c = 1 - rho + alpha * (mu + rho)
    bbar = -((mu + rho) * (1 - rho * (1 - alpha)) + rho * alpha * (1 + mu))
    cbar = (1 + mu) * (1 - rho * (1 - alpha))
    return a, b, c, a, bbar, cbar


class TestQuadraticClosedForm:
    def test_hurdle_parameters_at_reference_point(self):
        h = quadratic_closed_form(*ex6_quadratic())
        assert h.pi == pytest.approx(1.16 / 1.72, rel=1e-12)
        assert h.p1 == pytest.approx(0.6, rel=1e-12)
        assert h.p2 == pytest.approx(0.06 / 0.86, rel=1e-12)
        assert h.w1 + h.w2 == pytest.approx(1.0, abs=1e-12)

    def test_repeated_roots_raise(self):
        # denominator (s - 2)^2 = 4 - 4s + s^2
        with pytest.raises(RepeatedRootsError):
            quadratic_closed_form(1.0, -3.5, 3.5, 1.0, -4.0, 4.0)

    def test_rho_zero_reduces_to_two_term_mixture(self):
        # equal-leading-coefficient quotient degenerates: compare against the
        # independent series oracle for the nb-thinned geometric at rho = 0
        oracle = oracle_pmf("nginar", 80, mu=1.0, alpha=0.3)
        r = innovation_pgf(ModelSpec(GeometricMean(1.0), NegativeBinomialThinning(0.3)))
        h = quadratic_closed_form(r.num.coeff(2), r.num.coeff(1), r.num.coeff(0),
                                  r.den.coeff(2), r.den.coeff(1), r.den.coeff(0))
        for m, expect in enumerate(oracle):
            assert hurdle_pmf(h, m) == pytest.approx(expect, abs=1e-12)

    def test_method_paths_agree_on_equal_leading_coefficients(self):
        a, b, c, abar, bbar, cbar = ex6_quadratic()
        from geominar.polyrat import real_distinct_roots
        s1, s2 = real_distinct_roots(Polynomial((cbar, bbar, abar)))
        pi = c / cbar
        w1_m3, w2_m3 = _weights_equal_leading(1.0 / s1, 1.0 / s2)
        w1_m4, w2_m4 = _weights_from_residues(a, b, c, abar, bbar, cbar, s1, s2, pi)
        assert w1_m4 == pytest.approx(w1_m3, abs=1e-12)
        assert w2_m4 == pytest.approx(w2_m3, abs=1e-12)

    def test_complex_denominator_roots_raise(self):
        from geominar.errors import ComplexRootsError
        with pytest.raises(ComplexRootsError):
            quadratic_closed_form(0.5, -0.3, 0.8, 1.0, -1.0, 1.0)

    def test_degenerate_leading_pair_gives_p2_zero(self):
        h = quadratic_closed_form(0.0, -0.25, 0.75, 0.0, -0.5, 1.0)
        assert h.p2 == 0.0
        assert h.w1 == pytest.approx(1.0, abs=1e-12)
        assert h.pi == pytest.approx(0.75)


class TestHurdlePmf:
    def test_atom_readback(self):
        h = HurdleForm(0.3, 0.5, 0.0, 1.0, 0.0)
        assert hurdle_pmf(h, 0) == 0.3

    def test_hurdle_geometric_arithmetic(self):
        h = HurdleForm(0.3, 0.5, 0.0, 1.0, 0.0)
        assert hurdle_pmf(h, 2) == pytest.approx(0.175, rel=1e-15)
        # p2 = 0 contributes only at m = 1 under the 0**0 = 1 convention
        h2 = HurdleForm(0.3, 0.5, 0.0, 0.9, 0.1)
        assert hurdle_pmf(h2, 1) == pytest.approx(0.7 * (0.9 * 0.5 + 0.1), rel=1e-14)
        assert hurdle_pmf(h2, 2) == pytest.approx(0.7 * 0.9 * 0.25, rel=1e-14)

    def test_reference_point_atom(self):
        h = quadratic_closed_form(*ex6_quadratic())
        assert hurdle_pmf(h, 0) == pytest.approx(0.674419, abs=5e-7)

    def test_combined_nonnegativity_enforced(self):
        # HurdleForm(0.3, 0.5, 0.4, 7.0, -6.0) as atoms and terms:
        # rho_i = (1-pi) w_i (1-p_i) / p_i^2 at s_i = 1/p_i, atom pi - sum rho_i/s_i.
        # pmf(1) = 0.7 (3.5 - 3.6) < 0: refused where the law is tabulated
        dec = FractionalDecomposition(Polynomial((1.7,)), ((9.8, 2.0), (-15.75, 2.5)))
        h = decomposition_to_hurdle(dec)
        for got, want in zip((h.pi, h.p1, h.p2, h.w1, h.w2), (0.3, 0.5, 0.4, 7.0, -6.0)):
            assert got == pytest.approx(want, rel=1e-13)
        with pytest.raises(NegativeProbabilityError, match="pmf entry at m=1"):
            pmf_from_decomposition(dec)

    def test_round_trip_through_decomposition(self):
        # the view of the residue decomposition is the closed-form hurdle law
        a, b, c, abar, bbar, cbar = ex6_quadratic()
        h = quadratic_closed_form(a, b, c, abar, bbar, cbar)
        dec = partial_fractions(rf((c, b, a), (cbar, bbar, abar)))
        view = decomposition_to_hurdle(dec)
        for got, want in zip((view.pi, view.p1, view.p2, view.w1, view.w2),
                             (h.pi, h.p1, h.p2, h.w1, h.w2)):
            assert got == pytest.approx(want, rel=1e-12)
        dist = pmf_from_decomposition(dec)
        for m in range(120):
            assert dist.pmf(m) == pytest.approx(hurdle_pmf(view, m), abs=1e-13)
            assert dist.pmf(m) == pytest.approx(hurdle_pmf(h, m), abs=1e-13)

    def test_one_term_view_has_p2_zero(self):
        # 0.5 + 0.5 / (2 - s): pi = pmf(0) = 0.75, then ratio 1/2 above zero
        h = decomposition_to_hurdle(partial_fractions(GINAR_RF))
        assert (h.pi, h.p1, h.p2, h.w1, h.w2) == pytest.approx((0.75, 0.5, 0.0, 1.0, 0.0),
                                                               abs=1e-14)

    def test_view_without_terms_is_the_point_mass_at_zero(self):
        # at mean 1e-20 the denominator (1, -1e-20) trims to a constant
        dec = partial_fractions(nginar_rf(mu=1e-20, alpha=0.0))
        assert dec.terms == () and dec.atom_poly.coeffs == (1.0,)
        h = decomposition_to_hurdle(dec)
        assert (h.pi, h.p1, h.p2, h.w1, h.w2) == (1.0, 0.0, 0.0, 1.0, 0.0)
        assert [hurdle_pmf(h, m) for m in range(3)] == [1.0, 0.0, 0.0]

    def test_view_of_atoms_at_zero_and_one(self):
        # two-param at a subnormal r: its denominator trims to a constant and
        # the law is Bernoulli(m), whose mass at one is the ratio-0 geometric
        dec = FractionalDecomposition(Polynomial((0.75, 0.25)), ())
        h = decomposition_to_hurdle(dec)
        assert (h.pi, h.p1, h.p2, h.w1, h.w2) == (0.75, 0.0, 0.0, 1.0, 0.0)
        assert [hurdle_pmf(h, m) for m in range(3)] == [0.75, 0.25, 0.0]

    def test_view_of_an_atom_at_one_beside_a_term(self):
        # rho-geo-bin mu=1000 rho=0.5 alpha=1e-13 multiplied out: the
        # denominator trims to degree one, so partial fractions give one term
        # plus the atoms (5.0e-4, -1e-13), whose mass at one the view must
        # keep. pi = 1 - (mass above zero) also takes up the decomposition's
        # own mass defect, so m = 0 is exact only to that
        dec = partial_fractions(rf((0.0009990009992009764, -0.0004995004998003883,
                                    9.995004995003376e-14), (1.0, -0.9995004995004995)))
        assert len(dec.terms) == 1 and dec.atom_poly.coeff(1) == pytest.approx(-1e-13)
        h = decomposition_to_hurdle(dec)
        defect = abs(dec.total_mass() - 1.0)
        assert defect < 1e-13
        assert hurdle_pmf(h, 0) == pytest.approx(dec.pmf(0), rel=0, abs=defect + 1e-15)
        for m in range(1, 201):
            assert hurdle_pmf(h, m) == pytest.approx(dec.pmf(m), rel=0, abs=1e-15), m

    def test_far_root_is_carried_as_a_term(self):
        # from root offsets the same point keeps its root at s = 1 + 1e13 as a
        # second term, so no atom at one is left, and the view still equals
        # the decomposition, at m = 0 up to its mass defect
        dec = build_model("rho-geo-bin", mu=1000.0, rho=0.5, alpha=1e-13) \
            .innovation.decomposition
        assert len(dec.terms) == 2 and dec.terms[1][1] == pytest.approx(1e13)
        assert dec.atom_poly.degree == 0
        h = decomposition_to_hurdle(dec)
        defect = abs(dec.total_mass() - 1.0)
        assert defect < 1e-13
        assert hurdle_pmf(h, 0) == pytest.approx(dec.pmf(0), rel=0, abs=defect + 1e-15)
        for m in range(1, 201):
            assert hurdle_pmf(h, m) == pytest.approx(dec.pmf(m), rel=0, abs=1e-15), m


class TestRecursion:
    def test_zero_inflated_values(self):
        assert pmf_recursive(GINAR_RF, 2) == pytest.approx([0.75, 0.125, 0.0625], abs=1e-15)

    def test_degenerate_constant(self):
        assert pmf_recursive(rf((1.0,), (1.0,)), 3) == [1.0, 0.0, 0.0, 0.0]

    def test_matches_hurdle_form_entrywise(self):
        h = quadratic_closed_form(*ex6_quadratic())
        a, b, c, abar, bbar, cbar = ex6_quadratic()
        r = rf((c, b, a), (cbar, bbar, abar))
        rec = pmf_recursive(r, 200)
        for m, v in enumerate(rec):
            assert hurdle_pmf(h, m) == pytest.approx(v, abs=1e-10)

    def test_against_series_oracle(self):
        rec = pmf_recursive(nginar_rf(), 100)
        expect = oracle_pmf("nginar", 100, mu=1.0, alpha=0.3)
        assert rec == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("num, den", [
        ((0.5, 0.5), (1.0,)),
        ((-0.0, 0.25, 0.75), (1.0,)),
        ((0.75, -0.25), (1.0, -0.5)),
        ((-0.0, 1.0), (1.0, -0.5)),
        ((0.3, 0.2), (1.0, -0.7, 0.1)),
        # a -0.0 start against negative b_1, b_2: 0.0 * b_i is -0.0, so adding
        # the absent terms as zeros would flip the sign of the first entries
        ((-0.0, -0.0, 1.0), (1.0, -0.5, -0.06)),
    ])
    def test_same_bits_as_the_full_convolution(self, num, den):
        r = rf(num, den, pgf=False)
        for n in (0, 1, 2, 3, 400):
            assert list(map(float.hex, pmf_recursive(r, n))) == \
                list(map(float.hex, full_convolution(r, n)))

    def test_grid_models_same_bits_as_the_full_convolution(self):
        for name, grid in GRIDS.items():
            for params in grid:
                r = build_model(name, **params).law.rf
                assert list(map(float.hex, pmf_recursive(r, 400))) == \
                    list(map(float.hex, full_convolution(r, 400))), (name, params)

    def test_denominator_above_degree_two_raises_naming_it(self):
        cubic = rf((1.0,), (1.0, -0.5, 0.25, -0.125), pgf=False)
        with pytest.raises(GeominarError, match="got degree 3"):
            pmf_recursive(cubic, 10)


def bits(values):
    """Each float's eight bytes, so that 0.0 and -0.0 differ."""
    return [struct.pack("d", x) for x in values]


class TestBranchFreeRecursion:
    """pmf_recursive's branch-free steps give the bits, sign of zero included,
    of the row loop that tests each term's presence (oracles.loop_pmf_recursive)."""

    @pytest.mark.parametrize("den", [
        (1.0,), (1.0, -0.5), (1.0, 0.5), (1.0, 0.0, -0.25), (1.0, -0.7, 0.1), (1.0, -0.5, -0.06),
    ])
    def test_same_bits_at_each_degree(self, den):
        nums = [(0.3,), (0.0,), (0.5, 0.5), (-0.0, 1.0), (0.2, 0.0, 0.8), (-0.0, -0.0, 1.0),
                (0.1, 0.0, -0.0, 0.9), (0.0, 0.0, 0.0, -1.0)]
        for num in nums:
            r = RationalFunction(Polynomial(num), Polynomial(den))
            for n in (0, 1, 2, 3, 200, 400):
                assert bits(pmf_recursive(r, n)) == bits(loop_pmf_recursive(r, n)), (num, den, n)

    def test_same_bits_for_the_catalog_laws(self):
        points = [(n, p) for n, grid in GRIDS.items() for p in grid]
        points += list(CANONICAL.items()) + WIDE + _extreme_points()
        for name, params in points:
            r = _validate(_entry(name), params)[2].rf
            assert bits(pmf_recursive(r, 400)) == bits(loop_pmf_recursive(r, 400)), (name, params)


def full_convolution(r, n):
    """c_l = (a_l - sum_{i=max(0,l-q)}^{l-1} c_i b_{l-i}) / b_0, term by term
    in ascending i: the operation order pmf_recursive keeps."""
    a, b, q = r.num.coeffs, r.den.coeffs, r.den.degree
    out = []
    for el in range(n + 1):
        acc = a[el] if el < len(a) else 0.0
        for i in range(max(0, el - q), el):
            acc -= out[i] * b[el - i]
        out.append(acc / b[0])
    return out


class TestTailApprox:
    def test_single_term_exact_beyond_atoms(self):
        dec = partial_fractions(GINAR_RF)
        for m in (1, 5, 20):
            assert tail_geometric_approx(dec, m) == pytest.approx(dec.pmf(m), rel=1e-13)

    def test_two_term_error_shrinks(self):
        dec = partial_fractions(nginar_rf())
        errs = []
        for m in (5, 10, 20):
            exact = dec.pmf(m)
            errs.append(abs(tail_geometric_approx(dec, m) - exact) / exact)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_no_terms_raises(self):
        with pytest.raises(NoGeometricTermsError):
            tail_geometric_approx(FractionalDecomposition(Polynomial((1.0,)), ()), 5)


class TestCrossMethodProperty:
    def test_reconstruction_of_pgf_from_table(self):
        dist = pmf_from_decomposition(partial_fractions(nginar_rf()), 1.0 - 1e-14)
        r = nginar_rf()
        for s in (0.0, 0.25, 0.5, 0.75, 0.9):
            series = sum(p * s**m for m, p in enumerate(dist.pmf_table))
            assert series == pytest.approx(r(s), abs=1e-8)

    def test_mean_identity_vs_derivative(self):
        r = nginar_rf()
        dist = pmf_from_decomposition(partial_fractions(r))
        h = 1e-6
        fd = (r(1.0 + h) - r(1.0 - h)) / (2.0 * h)
        assert dist.mean() == pytest.approx(fd, rel=1e-7)
