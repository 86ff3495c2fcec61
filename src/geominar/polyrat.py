"""Dense real polynomials, rational functions, and real root finding.

Everything is plain double precision. Every catalog model pairs a Moebius
(degree 1/1) marginal pgf with a counting pgf of degree at most one, so the
polynomials whose roots are needed never exceed degree two: dense ascending
coefficient vectors plus the linear and quadratic closed forms are adequate
and easy to audit. Root finding above degree two raises.
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

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

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


def deflate(p: Polynomial, root: float) -> Polynomial:
    """Synthetic division of p by (s - root), discarding the remainder."""
    cs = p.coeffs
    if len(cs) == 1:
        return p
    q = [0.0] * (len(cs) - 1)
    acc = cs[-1]
    for k in range(len(cs) - 2, -1, -1):
        q[k] = acc
        acc = cs[k] + acc * root
    return Polynomial(tuple(q))


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


def real_roots_best_effort(p: Polynomial) -> list[float]:
    """All real roots of p (degree <= 2); a complex pair gives none."""
    if p.degree <= 0:
        return []
    try:
        return _closed_form_roots(p, 1e-12)
    except ComplexRootsError:
        return []


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
    When pgf is set the value at s=1 is renormalized to exactly one and the
    value at s=0 is checked to lie in [0, 1].
    """

    num: Polynomial
    den: Polynomial
    radius: float = math.inf
    pgf: bool = False

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisorError("rational function with zero denominator")
        d0 = self.den.coeffs[0]
        scale_guard = max(abs(c) for c in self.den.coeffs)
        if abs(d0) <= 1e-14 * scale_guard:
            raise GeominarError("denominator vanishes at s = 0; b_0 > 0 required")
        num, den = self.num, self.den
        if d0 != 1.0:
            num = num.scaled(1.0 / d0)
            den = den.scaled(1.0 / d0)
        if self.pgf:
            d1 = den(1.0)
            if d1 == 0.0:
                raise GeominarError("pgf denominator vanishes at s = 1")
            v1 = num(1.0) / d1
            if abs(v1 - 1.0) > 1e-9:
                raise GeominarError(f"pgf value at s=1 is {v1!r}, not 1")
            num = num.scaled(1.0 / v1)
            v0 = num(0.0) / den(0.0)
            if not -1e-12 <= v0 <= 1.0 + 1e-12:
                raise GeominarError(f"pgf value at s=0 is {v0!r}, outside [0, 1]")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, s: float) -> float:
        if abs(s) >= self.radius:
            raise DomainViolationError(
                f"evaluation at s={s!r} outside validity radius {self.radius!r}"
            )
        return self.num(s) / self.den(s)

    def is_constant(self) -> bool:
        return self.num.degree == 0 and self.den.degree == 0


def cancel(rf: RationalFunction) -> RationalFunction:
    """Remove common real roots of numerator and denominator within DISTINCT_TOL.

    The result is renormalized (den(0) == 1, and value 1 at s=1 when the
    function is tagged as a pgf). A no-op when no roots are shared.
    """
    num, den = rf.num, rf.den
    while num.degree > 0 and den.degree > 0:
        nroots = real_roots_best_effort(num)
        droots = real_roots_best_effort(den)
        matched = None
        for rd in droots:
            for rn in nroots:
                if abs(rn - rd) <= DISTINCT_TOL * max(1.0, abs(rd)):
                    matched = (rn, rd)
                    break
            if matched:
                break
        if matched is None:
            break
        num = deflate(num, matched[0])
        den = deflate(den, matched[1])
    return RationalFunction(num, den, radius=rf.radius, pgf=rf.pgf)


def compose_mobius(rf: RationalFunction, m: RationalFunction) -> RationalFunction:
    """Compose rf with a degree <= 1 rational map m, returning rf(m(s)).

    Clearing denominators: with rf = P/Q of degrees p, q and D = max(p, q),
    the composed numerator is sum_k P_k * m_num^k * m_den^(D-k), and the
    denominator is the same sum over Q. Common factors are cancelled.
    """
    if m.num.degree > 1 or m.den.degree > 1:
        raise DomainViolationError("composition map must have degree <= 1")
    for i in range(33):
        s = i / 32.0
        md = m.den(s)
        if md == 0.0 or not abs(m.num(s) / md) < rf.radius:
            raise DomainViolationError(
                f"map value at s={s} leaves the validity radius {rf.radius!r}"
            )
    d = max(rf.num.degree, rf.den.degree)
    num_pows = [Polynomial((1.0,))]
    den_pows = [Polynomial((1.0,))]
    for _ in range(d):
        num_pows.append(num_pows[-1] * m.num)
        den_pows.append(den_pows[-1] * m.den)

    def expand(p: Polynomial) -> Polynomial:
        acc = Polynomial((0.0,))
        for k, c in enumerate(p.coeffs):
            if c != 0.0:
                acc = acc + (num_pows[k] * den_pows[d - k]).scaled(c)
        return acc

    preserves_one = abs(m.num(1.0) / m.den(1.0) - 1.0) <= 1e-12
    out = RationalFunction(expand(rf.num), expand(rf.den),
                           radius=math.inf, pgf=rf.pgf and preserves_one)
    return cancel(out)


def min_denominator_root_magnitude(den: Polynomial) -> float:
    """Smallest root magnitude of den, used as a pgf validity radius."""
    if den.degree == 0:
        return math.inf
    roots = real_roots_best_effort(den)
    if len(roots) == den.degree:
        return min(abs(r) for r in roots)
    # complex pair: |root|^2 equals the coefficient ratio c0/c2
    return math.sqrt(abs(den.coeffs[0] / den.coeffs[2]))
