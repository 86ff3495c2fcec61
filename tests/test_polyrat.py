import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geominar.errors import (
    ComplexRootsError,
    DomainViolationError,
    GeominarError,
    RepeatedRootsError,
    ZeroDivisorError,
)
from geominar.polyrat import (
    Polynomial,
    RationalFunction,
    cancel,
    compose_mobius,
    poly_divmod,
    real_distinct_roots,
)


def poly(*cs):
    return Polynomial(tuple(cs))


class TestEvalAndDerivative:
    def test_constant_eval(self):
        assert poly(1.0)(7.3) == 1.0

    def test_hand_sum(self):
        assert poly(0.75, -0.25)(1.0) == 0.5

    def test_eval_at_root(self):
        assert poly(2.0, -3.0, 1.0)(2.0) == 0.0

    def test_derivative_constant(self):
        assert poly(5.0).derivative().coeffs == (0.0,)

    def test_derivative_power_rule(self):
        assert poly(2.0, -3.0, 1.0).derivative().coeffs == (-3.0, 2.0)
        assert poly(0.0, 0.0, 0.0, 4.0).derivative().coeffs == (0.0, 0.0, 12.0)

    def test_trailing_zero_normalization(self):
        assert poly(1.0, 2.0, 0.0).coeffs == (1.0, 2.0)
        assert poly(0.0, 0.0).coeffs == (0.0,)

    @pytest.mark.parametrize("cs, index", [((1.0, math.inf), 1), ((math.nan,), 0),
                                           ((-math.inf, 1.0), 0)])
    def test_non_finite_coefficient_named(self, cs, index):
        # an infinite coefficient used to set the trim cut to inf and drop
        # everything after it; nan passed unchecked
        with pytest.raises(DomainViolationError, match=f"coefficient {index} is"):
            Polynomial(cs)


class TestDivmod:
    def test_zero_inflated_split(self):
        # reproduces the alpha + (1-alpha) * geometric split at theta = alpha = 0.5
        q, r = poly_divmod(poly(0.75, -0.25), poly(1.0, -0.5))
        assert q.coeffs == (0.5,)
        assert r.coeffs == (0.25,)

    def test_unit_divisor(self):
        q, r = poly_divmod(poly(1.0, 2.0), poly(1.0))
        assert q.coeffs == (1.0, 2.0)
        assert r.is_zero()

    def test_small_numerator(self):
        q, r = poly_divmod(poly(1.0), poly(1.0, 1.0))
        assert q.is_zero()
        assert r.coeffs == (1.0,)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisorError):
            poly_divmod(poly(1.0), poly(0.0))

    @pytest.mark.parametrize("ncs, lead", [((0.0, 1.0), 5e-324),
                                           ((0.0, 2.0), 2.0 ** -1023)])
    def test_overflowing_quotient_raises(self, ncs, lead):
        # the quotient's coefficient would be inf, and trimming it left (0.0,)
        with pytest.raises(ZeroDivisorError, match="quotient overflows"):
            poly_divmod(poly(*ncs), poly(lead))

    def test_quotient_near_float_limit_is_exact(self):
        q, r = poly_divmod(poly(0.0, 1.5), poly(2.0 ** -1023))
        assert q.coeffs == (0.0, 1.5 * 2.0 ** 1023)
        assert r.is_zero()


def exact_divmod(num, den):
    """Long division of the float coefficients in exact rationals."""
    r = [Fraction(c) for c in num.coeffs]
    d = [Fraction(c) for c in den.coeffs]
    dn = len(d) - 1
    q = [Fraction(0)] * max(len(r) - dn, 1)
    for k in range(len(r) - 1, dn - 1, -1):
        q[k - dn] = r[k] / d[-1]
        for j in range(dn + 1):
            r[k - dn + j] -= q[k - dn] * d[j]
    return q, r[:dn]


def exact_value(p, s):
    return sum(Fraction(c) * s**k for k, c in enumerate(p.coeffs))


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(coeff, min_size=1, max_size=7),
    st.lists(coeff, min_size=1, max_size=7),
    st.integers(min_value=0, max_value=10**6),
)
def test_divmod_reconstruction(ncs, dcs, seed):
    den = Polynomial(tuple(dcs))
    if den.is_zero():
        den = poly(1.0, -0.5)
    num = Polynomial(tuple(ncs))
    try:  # float() of an exact coefficient beyond the float range raises OverflowError
        [float(c) for cs in exact_divmod(num, den) for c in cs]
    except OverflowError:
        # a subnormal divisor lead can put the true quotient there: refused, not trimmed
        with pytest.raises(ZeroDivisorError):
            poly_divmod(num, den)
        return
    q, r = poly_divmod(num, den)
    # reconstruction can amplify rounding when the divisor leading
    # coefficient is tiny relative to the rest; scale accordingly
    blowup = max(abs(c) for cs in (q.coeffs, r.coeffs, den.coeffs) for c in cs)
    rng_points = [math.sin(seed + 17.0 * i) * 2.0 for i in range(20)]
    for s in rng_points:
        # exact evaluation: q(s) * den(s) overflows floats for a quotient near the limit
        x = Fraction(s)
        lhs = exact_value(num, x)
        rhs = exact_value(q, x) * exact_value(den, x) + exact_value(r, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, blowup) * max(1.0, abs(s)) ** num.degree


class TestRoots:
    def test_factored_quadratic(self):
        rs = real_distinct_roots(poly(2.0, -3.0, 1.0))
        assert isinstance(rs, tuple)
        assert rs == pytest.approx((1.0, 2.0), abs=1e-13)

    def test_hurdle_denominator_roots(self):
        # composed denominator at mu=1, rho=0.2, alpha=0.3
        rs = real_distinct_roots(poly(1.72, -1.152, 0.072))
        assert rs == pytest.approx((5.0 / 3.0, 43.0 / 3.0), rel=1e-12)

    def test_complex_roots_raise(self):
        with pytest.raises(ComplexRootsError):
            real_distinct_roots(poly(1.0, 0.0, 1.0))

    def test_double_root_flagged(self):
        # (s-2)^2: a repeated root is refused where it is found
        with pytest.raises(RepeatedRootsError, match=r"roots \(2\.0, 2\.0\) are not distinct"):
            real_distinct_roots(poly(4.0, -4.0, 1.0))

    def test_cubic_raises_naming_the_degree(self):
        # (s-1.2)(s-2.5)(s+3.1): the closed forms stop at degree two
        p = poly(1.0)
        for r in (1.2, 2.5, -3.1):
            p = p * poly(-r, 1.0)
        with pytest.raises(GeominarError, match="degree 3"):
            real_distinct_roots(p)
        with pytest.raises(GeominarError, match="degree 3"):
            cancel(RationalFunction(p, poly(1.0, -0.5)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=2, max_size=2, unique=True))
def test_roots_residual_bound(roots):
    roots = sorted(roots)
    if min(b - a for a, b in zip(roots, roots[1:])) < 1e-3:
        return
    p = poly(1.0)
    for r in roots:
        p = p * poly(-r, 1.0)
    rs = real_distinct_roots(p)
    big = max(abs(c) for c in p.coeffs)
    for r in rs:
        assert abs(p(r)) <= 1e-10 * big * max(1.0, abs(r)) ** p.degree
    assert rs == pytest.approx(tuple(roots), rel=1e-9, abs=1e-9)


class TestCompose:
    def test_geometric_with_bernoulli_counting(self):
        r = RationalFunction(poly(0.5), poly(1.0, -0.5), radius=2.0)
        m = RationalFunction(poly(0.5, 0.5), poly(1.0))
        out = compose_mobius(r, m)
        # 0.5 / (0.75 - 0.25 s), normalized so den(0) = 1
        assert out.num.coeffs == pytest.approx((0.5 / 0.75,), rel=1e-14)
        assert out.den.coeffs == pytest.approx((1.0, -0.25 / 0.75), rel=1e-14)

    def test_identity_map_exact(self):
        r = RationalFunction(poly(0.3, 0.2), poly(1.0, -0.5), radius=2.0)
        ident = RationalFunction(poly(0.0, 1.0), poly(1.0))
        out = compose_mobius(r, ident)
        assert out.num.coeffs == r.num.coeffs
        assert out.den.coeffs == r.den.coeffs

    def test_geometric_with_nb_counting(self):
        r = RationalFunction(poly(1.0), poly(2.0, -1.0), radius=2.0)
        m = RationalFunction(poly(1.0), poly(1.3, -0.3), radius=1.3 / 0.3)
        out = compose_mobius(r, m)
        # (1.3 - 0.3 s) / (1.6 - 0.6 s) up to normalization
        for s in (0.0, 0.3, 0.7, 1.0):
            assert out.num(s) / out.den(s) == pytest.approx(
                (1.3 - 0.3 * s) / (1.6 - 0.6 * s), rel=1e-14)

    def test_map_leaving_radius_raises(self):
        r = RationalFunction(poly(0.1), poly(1.0, -0.9), radius=1.0 / 0.9)
        m = RationalFunction(poly(0.5, 1.0), poly(1.0))
        with pytest.raises(DomainViolationError):
            compose_mobius(r, m)

    def test_map_with_pole_between_samples_raises(self):
        # the map 1 / (1 - 1.5 s) has its pole at s = 2/3, between the points
        # i / 32 of a sampled scan, and an infinite radius never trips such a scan
        r = RationalFunction(poly(0.3, 0.2), poly(1.0, -0.5))
        m = RationalFunction(poly(1.0), poly(1.0, -1.5))
        with pytest.raises(DomainViolationError, match="pole in"):
            compose_mobius(r, m)

    def test_degree_two_rf_rejected(self):
        r = RationalFunction(poly(0.3, 0.2), poly(1.0, -0.7, 0.1))
        m = RationalFunction(poly(0.0, 1.0), poly(1.0))
        with pytest.raises(DomainViolationError, match="degree <= 1"):
            compose_mobius(r, m)

    def test_constant_comes_back_unchanged(self):
        r = RationalFunction(poly(0.25), poly(1.0))
        m = RationalFunction(poly(0.5, 0.5), poly(1.0))
        out = compose_mobius(r, m)
        assert (out.num.coeffs, out.den.coeffs) == ((0.25,), (1.0,))

    def test_degree_two_map_rejected(self):
        r = RationalFunction(poly(0.5), poly(1.0, -0.5), radius=2.0)
        m = RationalFunction(poly(0.0, 0.0, 1.0), poly(1.0))
        with pytest.raises(DomainViolationError):
            compose_mobius(r, m)


class TestCancel:
    def test_shared_factor_removed(self):
        num = poly(-2.0, 1.0) * poly(-3.0, 1.0)
        den = poly(-2.0, 1.0) * poly(-5.0, 1.0)
        out = cancel(RationalFunction(num, den))
        assert out.num.degree == 1 and out.den.degree == 1
        for s in (0.0, 0.5, 1.5):
            assert out.num(s) / out.den(s) == pytest.approx((s - 3.0) / (s - 5.0), rel=1e-12)

    def test_distinct_roots_untouched(self):
        rf = RationalFunction(poly(0.75, -0.25), poly(1.0, -0.5))
        out = cancel(rf)
        assert out.num.coeffs == rf.num.coeffs
        assert out.den.coeffs == rf.den.coeffs

    def test_full_cancellation_gives_constant(self):
        p = poly(6.0, -5.0, 1.0)
        out = cancel(RationalFunction(p, p))
        assert out.num.degree == 0 and out.den.degree == 0
        assert out.num(0.3) / out.den(0.3) == pytest.approx(1.0, rel=1e-12)

    def test_idempotent(self):
        num = poly(-2.0, 1.0) * poly(-3.0, 1.0)
        den = poly(-2.0, 1.0) * poly(-5.0, 1.0)
        once = cancel(RationalFunction(num, den))
        twice = cancel(once)
        assert twice.num.coeffs == pytest.approx(once.num.coeffs, abs=1e-12)
        assert twice.den.coeffs == pytest.approx(once.den.coeffs, abs=1e-12)


class TestRationalFunction:
    def test_denominator_sign_normalized(self):
        rf = RationalFunction(poly(-0.5), poly(-1.0, 0.5))
        assert rf.den.coeffs[0] == 1.0
        assert rf(0.0) == pytest.approx(0.5)

    def test_evaluation_outside_radius_raises(self):
        rf = RationalFunction(poly(0.5), poly(1.0, -0.5), radius=2.0)
        with pytest.raises(DomainViolationError):
            rf(2.5)
