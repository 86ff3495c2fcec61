"""Dense real polynomials, rational functions, and real root finding.

Everything is plain double precision. Every catalog model pairs a Moebius
(degree 1/1) marginal pgf with a counting pgf of degree at most one, so the
polynomials whose roots are needed never exceed degree two: dense ascending
coefficient vectors plus the linear and quadratic closed forms are adequate
and easy to audit. Root finding above degree two raises, and so does
compose_mobius above degree one. The catalog reads its roots off the
parameters (pgf.InnovationLaw), so compose_mobius, cancel and the root
finding serve only as test references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ComplexRootsError,
    DomainViolationError,
    GeominarError,
    RepeatedRootsError,
    ZeroDivisorError,
)

# Trailing coefficients below this fraction of the largest magnitude are
# treated as zero when normalizing; composition of exact parameter values
# can leave dust terms of order machine epsilon.
_TRIM_REL = 1e-13

# Tolerance deciding whether two roots coincide, relative to the root
# magnitude.
DISTINCT_TOL = 1e-9


def _normalized(coeffs) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    if not all(map(math.isfinite, cs)):
        i = next(i for i, c in enumerate(cs) if not math.isfinite(c))
        raise DomainViolationError(f"polynomial coefficient {i} is {cs[i]!r}, not finite")
    if not cs:
        return (0.0,)
    big = max(abs(c) for c in cs)
    if big == 0.0:
        return (0.0,)
    cut = _TRIM_REL * big
    n = len(cs)
    while n > 1 and abs(cs[n - 1]) <= cut:
        n -= 1
    return tuple(cs[:n])


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients: coeffs[k] multiplies s**k.

    The trailing (highest stored) coefficient is nonzero after construction,
    except for the zero polynomial which is stored as (0.0,).
    """

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalized(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def coeff(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def __call__(self, s: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def derivative(self) -> Polynomial:
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * self.coeffs[k] for k in range(1, len(self.coeffs))))

    def __mul__(self, other: Polynomial) -> Polynomial:
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def scaled(self, c: float) -> Polynomial:
        return Polynomial(tuple(c * x for x in self.coeffs))


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Long division: num = quotient * den + remainder, deg(remainder) < deg(den)."""
    if den.is_zero():
        raise ZeroDivisorError("polynomial division by the zero polynomial")
    dn = den.degree
    if num.degree < dn:
        return Polynomial((0.0,)), num
    r = list(num.coeffs)
    lead = den.coeffs[-1]
    q = [0.0] * (len(r) - dn)
    for k in range(len(r) - 1, dn - 1, -1):
        f = r[k] / lead
        q[k - dn] = f
        for j in range(dn + 1):
            r[k - dn + j] -= f * den.coeffs[j]
    if not all(map(math.isfinite, q + r)):
        raise ZeroDivisorError(f"leading coefficient {lead!r} too small: the quotient overflows")
    rem = Polynomial(tuple(r[:dn])) if dn > 0 else Polynomial((0.0,))
    return Polynomial(tuple(q)), rem


def _quadratic_roots(c0: float, c1: float, c2: float, tol: float):
    """Stable quadratic formula; returns the ascending roots or raises."""
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(c1 * c1, abs(4.0 * c2 * c0), 1e-300)
    if disc < -tol * scale:
        raise ComplexRootsError(
            f"quadratic discriminant {disc:.3e} is negative beyond tolerance"
        )
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    if c1 == 0.0:
        r = sq / (2.0 * abs(c2))
        return sorted((-r, r))
    q = -0.5 * (c1 + math.copysign(sq, c1))
    r1 = q / c2
    r2 = c0 / q if q != 0.0 else r1
    return sorted((r1, r2))


def _closed_form_roots(p: Polynomial, tol: float) -> list[float]:
    """Real roots of a degree one or two polynomial, ascending."""
    if p.degree > 2:
        raise GeominarError(f"root finding supports degree 1 or 2, got degree {p.degree}")
    if p.degree == 1:
        return [-p.coeffs[0] / p.coeffs[1]]
    return _quadratic_roots(*p.coeffs, tol=tol)


def real_distinct_roots(p: Polynomial) -> tuple[float, ...]:
    """The real roots of p in ascending order, as many as the degree.

    Degrees one and two are solved in closed form (stable quadratic branch);
    higher degrees raise, and so do roots closer than DISTINCT_TOL.
    """
    if p.degree < 1:
        raise GeominarError("root finding needs degree >= 1")
    roots = tuple(_closed_form_roots(p, DISTINCT_TOL))
    if any(roots[i + 1] - roots[i] <= DISTINCT_TOL * max(1.0, abs(roots[i]))
           for i in range(len(roots) - 1)):
        raise RepeatedRootsError(f"denominator roots {roots} are not distinct")
    return roots


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials, normalized so den(0) == 1.

    radius is the validity radius for evaluation; calls outside it raise.
    """

    num: Polynomial
    den: Polynomial
    radius: float = math.inf

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisorError("rational function with zero denominator")
        d0 = self.den.coeffs[0]
        scale_guard = max(abs(c) for c in self.den.coeffs)
        if abs(d0) <= 1e-14 * scale_guard:
            raise GeominarError("denominator vanishes at s = 0; b_0 > 0 required")
        if d0 != 1.0:
            object.__setattr__(self, "num", self.num.scaled(1.0 / d0))
            object.__setattr__(self, "den", self.den.scaled(1.0 / d0))

    def __call__(self, s: float) -> float:
        if abs(s) >= self.radius:
            raise DomainViolationError(
                f"evaluation at s={s!r} outside validity radius {self.radius!r}"
            )
        return self.num(s) / self.den(s)


def cancel(rf: RationalFunction) -> RationalFunction:
    """Remove common real roots of numerator and denominator within DISTINCT_TOL.

    The result is renormalized (den(0) == 1). A no-op when no roots are shared.
    """
    num, den = rf.num, rf.den
    while num.degree > 0 and den.degree > 0:
        try:
            shared = [(rn, rd) for rd in _closed_form_roots(den, 1e-12)
                      for rn in _closed_form_roots(num, 1e-12)
                      if abs(rn - rd) <= DISTINCT_TOL * max(1.0, abs(rd))]
        except ComplexRootsError:  # a complex pair shares no real root
            break
        if not shared:
            break
        rn, rd = shared[0]
        num = poly_divmod(num, Polynomial((-rn, 1.0)))[0]
        den = poly_divmod(den, Polynomial((-rd, 1.0)))[0]
    return RationalFunction(num, den, radius=rf.radius)


def compose_mobius(rf: RationalFunction, m: RationalFunction) -> RationalFunction:
    """rf(m(s)) for rf and m of degree at most one, common factors cancelled.

    rf = (a0 + a1 s) / (b0 + b1 s) and m = p / q give (a0 q + a1 p) / (b0 q + b1 p);
    a constant rf comes back as it is. m is monotone on [0, 1] when q has no zero
    there (q(0) = 1, so when q(1) > 0), and then maps [0, 1] inside rf.radius
    exactly when |m(0)| and |m(1)| are below it.
    """
    p, q = m.num, m.den
    if max(rf.num.degree, rf.den.degree, p.degree, q.degree) > 1:
        raise DomainViolationError("composition needs rf and the map of degree <= 1")
    if not (q(1.0) > 0.0 and max(abs(p(0.0) / q(0.0)), abs(p(1.0) / q(1.0))) < rf.radius):
        raise DomainViolationError(
            f"the map has a pole in [0, 1] or leaves the validity radius {rf.radius!r}")
    if rf.num.degree == rf.den.degree == 0:
        return RationalFunction(rf.num, rf.den)

    def substituted(c: Polynomial) -> Polynomial:  # c0 q + c1 p
        return Polynomial(tuple(c.coeff(0) * q.coeff(k) + c.coeff(1) * p.coeff(k)
                                for k in range(2)))

    return cancel(RationalFunction(substituted(rf.num), substituted(rf.den)))
