"""Partial-fraction machinery turning a rational innovation pgf into a pmf.

A FractionalDecomposition is point masses plus signed geometric terms
rho_i / s_i^(m+1), which every catalog family gets from pgf.InnovationLaw.
pmf_from_decomposition tabulates them and decomposition_to_hurdle reads them
as a hurdle form (atom pi at zero, signed two-geometric mixture above).
partial_fractions (the terms from a RationalFunction's coefficients),
linear_closed_form, quadratic_closed_form (with hurdle_pmf) and the series
recursion pmf_recursive stay as independent oracles for verify and the tests.

All weights may be negative individually; validity means the combined pmf is
nonnegative, checked explicitly on the table and certified on the tail by a
dominance argument.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import add, or_, truediv
from typing import TYPE_CHECKING

from .errors import (
    ConstraintViolationError,
    GeominarError,
    NegativeProbabilityError,
    NoGeometricTermsError,
    RootInsideDiskError,
)
from .polyrat import (
    Polynomial,
    RationalFunction,
    poly_divmod,
    real_distinct_roots,
)

if TYPE_CHECKING:
    import numpy as np

# Entries in [-CLAMP_TOL, 0) are floating-point dust and are clamped to zero;
# anything below raises NegativeProbabilityError.
CLAMP_TOL = 1e-12

DEFAULT_TARGET_MASS = 1.0 - 1e-12

# most guide-table buckets per innovation law (a power of two): bounds the
# table, like simulate.BLOCK bounds the draws, whatever the pmf table length
GUIDE_MAX = 1 << 16

# pmf_from_decomposition tabulates in blocks of _FIRST_BLOCK rows, doubling,
# and refuses a law whose table needs more than rows 0.._ROW_CAP
_FIRST_BLOCK = 64
_ROW_CAP = 1_000_000


@dataclass(frozen=True)
class FractionalDecomposition:
    """Atoms plus geometric terms: pmf(m) = atom_poly[m] + sum_i rho_i / s_i^(m+1).

    terms are (rho_i, s_i) pairs sorted by ascending s_i; every s_i must
    exceed one or the series diverges.
    """

    atom_poly: Polynomial
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        terms = tuple(sorted(((float(r), float(s)) for r, s in self.terms),
                             key=lambda t: t[1]))
        for _, s in terms:
            if s <= 1.0:
                raise RootInsideDiskError(f"geometric term with root s={s!r} <= 1")
        object.__setattr__(self, "terms", terms)

    def pmf(self, m: int) -> float:
        v = self.atom_poly.coeff(m)
        for rho, s in self.terms:
            v += rho * s ** (-(m + 1))  # negative power underflows to 0, never overflows
        return v

    def pgf_value(self, s: float) -> float:
        """Evaluate atom_poly(s) + sum rho_i / (s_i - s)."""
        v = self.atom_poly(s)
        for rho, si in self.terms:
            v += rho / (si - s)
        return v

    def remaining_mass(self, m: int) -> float:
        """Exact mass beyond index m: sum_i rho_i s_i^-(m+1) / (s_i - 1)."""
        return sum(rho * s ** (-(m + 1)) / (s - 1.0) for rho, s in self.terms)

    def total_mass(self) -> float:
        return sum(self.atom_poly.coeffs) + sum(r / (s - 1.0) for r, s in self.terms)

    def mixture_components(self) -> tuple[tuple[float, float], ...]:
        """Geometric-mixture view: (weight c_i, mean mu_i) per term, with
        c_i = rho_i / (s_i - 1) and mu_i = 1 / (s_i - 1)."""
        return tuple((r / (s - 1.0), 1.0 / (s - 1.0)) for r, s in self.terms)


@dataclass(frozen=True)
class InnovationDistribution:
    """Tabulated innovation pmf with its decomposition and geometric tail.

    pmf_table covers m = 0..truncation; beyond that the smallest-root
    geometric term (decomposition.terms[0]) carries the residual mass and the
    decomposition formula stays exact. sampling_table is built on first use
    and cached on the instance, so derive never builds it, nor imports numpy.
    """

    decomposition: FractionalDecomposition
    pmf_table: tuple[float, ...]

    @property
    def truncation(self) -> int:
        return len(self.pmf_table) - 1

    def pmf(self, m: int) -> float:
        if m < 0:
            return 0.0
        if m <= self.truncation:
            return self.pmf_table[m]
        return max(self.decomposition.pmf(m), 0.0)

    def pgf_value(self, s: float) -> float:
        return self.decomposition.pgf_value(s)

    @functools.cached_property
    def sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf, guide): the table CDF and a guide over M buckets (Chen & Asau).

        M is the smallest power of two >= 4 len(cdf), at most GUIDE_MAX.
        guide[b] is searchsorted(cdf, u, side="right") for every u in
        [b/M, (b+1)/M) when no CDF value lies in that bucket, and -1 when one
        does. Scaling by a power of two is exact, so the counts below are
        exact: lo[b] = #{cdf <= b/M} and hi[b] = #{cdf < (b+1)/M}.
        """
        import numpy as np

        cdf = np.cumsum(self.pmf_table)
        m = min(GUIDE_MAX, 1 << (4 * len(cdf) - 1).bit_length())
        lo = np.cumsum(np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1))[:m]
        hi = np.cumsum(np.bincount(np.floor(cdf * m).astype(np.intp), minlength=m + 1))[:m]
        guide = np.where(lo == hi, lo, -1)
        cdf.flags.writeable = guide.flags.writeable = False
        return cdf, guide

    def table_mass(self) -> float:
        return sum(self.pmf_table)

    def total_mass(self) -> float:
        return self.table_mass() + self.decomposition.remaining_mass(self.truncation)

    def mean(self) -> float:
        """Exact series mean: atoms plus sum_i rho_i / (s_i - 1)^2; dividing one
        factor at a time, a far root underflows instead of overflowing."""
        atoms = sum(m * c for m, c in enumerate(self.decomposition.atom_poly.coeffs))
        return atoms + sum(r / (s - 1.0) / (s - 1.0) for r, s in self.decomposition.terms)

    def variance(self) -> float:
        """Exact series variance via E[X^2] = atoms + sum rho_i (s_i+1)/(s_i-1)^3."""
        atoms = sum(m * m * c for m, c in enumerate(self.decomposition.atom_poly.coeffs))
        m2 = atoms + sum(r / (s - 1.0) * (s + 1.0) / (s - 1.0) / (s - 1.0)
                         for r, s in self.decomposition.terms)
        mu = self.mean()
        return m2 - mu * mu


@dataclass(frozen=True)
class HurdleForm:
    """Hurdle law: atom pi at zero, signed two-geometric mixture above.

    pmf(m) = pi at m=0 and (1-pi) * [w1 (1-p1) p1^(m-1) + w2 (1-p2) p2^(m-1)]
    for m >= 1. Weights sum to one but may individually be negative; the
    combined pmf is checked nonnegative where it is tabulated
    (pmf_from_decomposition), not here. pi = 1 is the point mass at zero.
    """

    pi: float
    p1: float
    p2: float
    w1: float
    w2: float

    def __post_init__(self):
        if not -CLAMP_TOL <= self.pi <= 1.0:
            raise ConstraintViolationError(f"hurdle atom pi={self.pi!r} outside [0, 1]")
        if not 0.0 <= self.p2 <= self.p1 < 1.0:
            raise ConstraintViolationError(
                f"hurdle ratios need 0 <= p2 <= p1 < 1, got p1={self.p1!r} p2={self.p2!r}")
        wscale = max(1.0, abs(self.w1), abs(self.w2))
        if abs(self.w1 + self.w2 - 1.0) > 1e-12 * wscale:
            raise ConstraintViolationError(
                f"hurdle weights must sum to 1, got {self.w1 + self.w2!r}")


def decomposition_to_hurdle(dec: FractionalDecomposition) -> HurdleForm:
    """The hurdle view of an atom-at-zero law with at most two geometric terms.

    p_i = 1/s_i; w_i is the mass rho_i / (s_i (s_i - 1)) that term i puts above
    zero over the sum of those masses, and pi = 1 - that sum. The inverse of
    writing each component as rho_i / s_i^(m+1). An atom at one (where a
    denominator trimmed to degree one or zero) is the ratio-0 geometric, the
    next component after the terms; the point mass at zero has pi = 1.
    """
    above = [(r / (s * (s - 1.0)), 1.0 / s) for r, s in dec.terms]
    above.append((dec.atom_poly.coeff(1), 0.0))
    total = sum(c for c, _ in above)
    if total == 0.0:
        return HurdleForm(1.0, 0.0, 0.0, 1.0, 0.0)
    (c1, p1), (c2, p2) = (*above, (0.0, 0.0))[:2]
    return HurdleForm(1.0 - total, p1, p2, c1 / total, c2 / total)


def hurdle_pmf(h: HurdleForm, m: int) -> float:
    """Evaluate the hurdle pmf at m, with the 0**0 == 1 convention at p == 0."""
    if m < 0:
        return 0.0
    if m == 0:
        return h.pi
    # x ** 0 is 1.0 for every float x, 0.0 included: a p == 0 component adds only at m = 1
    t1 = h.w1 * (1.0 - h.p1) * h.p1 ** (m - 1)
    t2 = h.w2 * (1.0 - h.p2) * h.p2 ** (m - 1)
    return (1.0 - h.pi) * (t1 + t2)


def partial_fractions(rf: RationalFunction) -> FractionalDecomposition:
    """Residue decomposition of a rational pgf with real distinct roots > 1.

    The polynomial quotient becomes the atom part; each denominator root s_i
    contributes rho_i = -remainder(s_i) / den'(s_i).
    """
    num, den = rf.num, rf.den
    if den.degree == 0:
        dec = FractionalDecomposition(num.scaled(1.0 / den.coeffs[0]), ())
        _check_mass(dec, rf)
        return dec
    quotient, remainder = poly_divmod(num, den)
    roots = real_distinct_roots(den)
    for s in roots:
        if s <= 1.0:
            raise RootInsideDiskError(f"denominator root s={s!r} <= 1: pmf would diverge")
    dden = den.derivative()
    terms = []
    for s in roots:
        rho = -remainder(s) / dden(s)
        terms.append((rho, s))
    scale = max(1.0, sum(abs(r) for r, _ in terms))
    terms = [(r, s) for r, s in terms if abs(r) > 1e-14 * scale]
    dec = FractionalDecomposition(quotient, tuple(terms))
    _check_mass(dec, rf)
    return dec


def _check_mass(dec: FractionalDecomposition, rf: RationalFunction) -> None:
    target = rf.num(1.0) / rf.den(1.0)
    if abs(dec.total_mass() - target) > 1e-10:
        raise GeominarError(
            f"decomposition mass {dec.total_mass()!r} does not reconstruct {target!r}")


def pmf_from_decomposition(dec: FractionalDecomposition,
                           target_mass: float = DEFAULT_TARGET_MASS) -> InnovationDistribution:
    """Tabulate the pmf until the accumulated mass reaches target_mass.

    The truncation index T is the smallest m, never less than the atom
    degree, at which the running sum of the clamped rows 0..m reaches
    target_mass or the exact mass beyond m, sum_i rho_i s_i^-(m+1) / (s_i - 1),
    is at most 1 - target_mass, and at which the tail beyond m is certified
    nonnegative by dominance of the smallest-root term. Dust in [-1e-12, 0)
    is clamped to zero; the first row at or before T that is below -1e-12
    raises NegativeProbabilityError (invalid model parameters), and the first
    that is not finite raises GeominarError. A law with no T up to m = 1e6
    raises GeominarError.

    The rows are built in blocks of 64, 128, 256, ... rows, column by column:
    each term's column rho_i s_i^-(m+1) is added to the atom column in the
    terms' order, and the running sums come from itertools.accumulate. Every
    row, sum and remaining mass is the float that FractionalDecomposition.pmf,
    a running `cum += v` and remaining_mass give one row at a time.
    """
    if not 0.0 < target_mass < 1.0:
        raise ConstraintViolationError(f"target_mass must be in (0,1), got {target_mass!r}")
    terms = dec.terms
    if terms and terms[0][0] < -CLAMP_TOL:
        raise NegativeProbabilityError(
            f"smallest-root residue rho={terms[0][0]!r} < 0: tail is eventually negative")
    atoms = dec.atom_poly.coeffs
    first = dec.atom_poly.degree
    slack = 1.0 - target_mass
    table: list[float] = []
    cum = 0.0
    lo, size = 0, _FIRST_BLOCK
    while lo <= _ROW_CAP:
        hi = min(lo + size, _ROW_CAP + 1)
        rows = list(atoms[lo:hi])
        rows += [0.0] * (hi - lo - len(rows))
        beyond = [0.0] * (hi - lo)  # remaining_mass's sum starts from 0 too
        for rho, s in terms:
            col = [rho * s ** e for e in range(-lo - 1, -hi - 1, -1)]
            rows = list(map(add, rows, col))
            beyond = list(map(add, beyond, map(truediv, col, repeat(s - 1.0))))
        # max(v, 0.0), faster: both keep -0.0, and a nan row in the table is refused below
        clamped = [v if v >= 0.0 else 0.0 for v in rows]
        sums = list(accumulate(clamped, initial=cum))  # sums[i + 1]: the mass of rows 0..lo + i
        # cum stops growing once the entries fall below half its ulp,
        # so the exact remaining mass stands in for it from there on
        reached = map(or_, map(target_mass.__le__, islice(sums, 1, None)),
                      map(slack.__ge__, map(abs, beyond)))
        stop = next((m for m in compress(range(lo, hi), reached)
                     if m >= first and _tail_certified(terms, m)), None)
        end = hi if stop is None else stop + 1
        _refuse_bad_row(rows[:end - lo], lo)
        table += clamped[:end - lo]
        if stop is not None:
            return InnovationDistribution(dec, tuple(table))
        cum = sums[-1]
        lo, size = hi, 2 * size
    raise GeominarError("pmf truncation did not converge within 1e6 entries")


def _refuse_bad_row(rows: list[float], lo: int) -> None:
    """Raise on the first of rows (indices lo, lo + 1, ...) that is not finite
    or is below -CLAMP_TOL; min and sum pass a block without one in C."""
    if min(rows) >= -CLAMP_TOL and math.isfinite(sum(rows)):
        return  # min skips a nan after the first row, sum does not
    for m, v in enumerate(rows, lo):
        if not math.isfinite(v):
            raise GeominarError(f"pmf entry at m={m} is {v!r}: not a finite number")
        if v < -CLAMP_TOL:
            raise NegativeProbabilityError(f"pmf entry at m={m} is {v!r}")


def tail_dominance_margin(terms, m: int) -> float:
    """rho_min less the bound on all other residues from index m+1 on:
    sum_i |rho_i| (s_min / s_i)^(m+2) over the terms after the smallest root."""
    rho_min, s_min = terms[0]
    return rho_min - sum(abs(r) * (s_min / s) ** (m + 2) for r, s in terms[1:])


def _tail_certified(terms, m: int) -> bool:
    """True when rho_min dominates all other residues from index m+1 on."""
    return (not any(r < 0.0 for r, _ in terms[1:])
            or tail_dominance_margin(terms, m) >= -CLAMP_TOL)


def linear_closed_form(a: float, b: float, c: float, d: float) -> InnovationDistribution:
    """Closed-form pmf of the linear rational pgf (a + b s) / (c + d s).

    Requires a < c, a + b = c + d, d != 0 and -c/d > 1; the law is the atom
    b/d at zero plus the geometric term rho / s1^(m+1) with s1 = -c/d and
    rho = b c / d^2 - a / d.
    """
    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
    if abs(d) <= 1e-14 * scale:
        raise ConstraintViolationError("linear form requires d != 0")
    if c <= 0.0:
        raise ConstraintViolationError(f"linear form requires c > 0, got c={c!r}")
    if not a < c:
        raise ConstraintViolationError(f"linear form requires a < c, got a={a!r} c={c!r}")
    if abs((a + b) - (c + d)) > 1e-9 * scale:
        raise ConstraintViolationError(
            f"linear form requires a + b = c + d, got {a + b!r} vs {c + d!r}")
    s1 = -c / d
    if not s1 > 1.0:
        raise ConstraintViolationError(f"linear form requires -c/d > 1, got {s1!r}")
    if not a / c < 1.0:
        raise ConstraintViolationError(f"linear form requires value < 1 at s=0, got {a / c!r}")
    rho = b * c / (d * d) - a / d
    atom = b / d
    dec = FractionalDecomposition(Polynomial((atom,)), ((rho, s1),) if rho != 0.0 else ())
    return pmf_from_decomposition(dec)


def quadratic_closed_form(a: float, b: float, c: float,
                          abar: float, bbar: float, cbar: float) -> HurdleForm:
    """Hurdle representation of (a s^2 + b s + c) / (abar s^2 + bbar s + cbar).

    With equal leading coefficients the ratios and weights come straight from
    the roots: w1 = p1/(p1-p2), w2 = p2/(p2-p1). Otherwise the numerator
    degree is reduced first and the weights come from the residues:
    w_i = rho_i p_i^2 / ((1-p_i)(1-pi)). A vanishing leading pair (a = abar
    = 0) degrades to the linear case, which is the p2 = 0 hurdle.
    """
    scale = max(abs(x) for x in (a, b, c, abar, bbar, cbar))
    if scale == 0.0:
        raise ConstraintViolationError("all coefficients are zero")
    if cbar <= 0.0:
        raise ConstraintViolationError(f"requires cbar > 0, got {cbar!r}")
    if c > cbar + 1e-12 * scale:
        raise ConstraintViolationError(f"requires c <= cbar, got c={c!r} cbar={cbar!r}")
    if abs((a + b + c) - (abar + bbar + cbar)) > 1e-9 * scale:
        raise ConstraintViolationError(
            "requires equal coefficient sums (pgf value 1 at s=1), got "
            f"{a + b + c!r} vs {abar + bbar + cbar!r}")
    pi = c / cbar
    if not pi < 1.0:
        raise ConstraintViolationError(f"requires value < 1 at s=0, got {pi!r}")
    pi = max(pi, 0.0)

    if abs(abar) <= 1e-12 * scale:
        if abs(a) > 1e-12 * scale:
            raise ConstraintViolationError(
                "numerator degree exceeds denominator degree (a != 0 while abar = 0)")
        if abs(bbar) <= 1e-12 * scale:
            raise ConstraintViolationError("denominator must have degree >= 1")
        s1 = -cbar / bbar
        if not s1 > 1.0:
            raise RootInsideDiskError(f"denominator root s={s1!r} <= 1")
        p1 = 1.0 / s1
        rho = -(c - b * cbar / bbar) / bbar
        w1 = rho * p1 * p1 / ((1.0 - p1) * (1.0 - pi))
        return HurdleForm(pi, p1, 0.0, w1, 1.0 - w1)

    s1, s2 = real_distinct_roots(Polynomial((cbar, bbar, abar)))
    if not s1 > 1.0:
        raise RootInsideDiskError(f"denominator root s={s1!r} <= 1")
    if abs(a - abar) <= 1e-12 * scale:
        w1, w2 = _weights_equal_leading(1.0 / s1, 1.0 / s2)
    else:
        w1, w2 = _weights_from_residues(a, b, c, abar, bbar, cbar, s1, s2, pi)
    return HurdleForm(pi, 1.0 / s1, 1.0 / s2, w1, w2)


def _weights_equal_leading(p1: float, p2: float) -> tuple[float, float]:
    """Mixture weights when numerator and denominator share the leading
    coefficient: w1 = p1/(p1-p2), w2 = p2/(p2-p1)."""
    return p1 / (p1 - p2), p2 / (p2 - p1)


def _weights_from_residues(a: float, b: float, c: float,
                           abar: float, bbar: float, cbar: float,
                           s1: float, s2: float, pi: float) -> tuple[float, float]:
    """General-case weights: reduce the numerator degree, take residues at
    the roots, then w_i = rho_i p_i^2 / ((1-p_i)(1-pi))."""
    u1 = (b - a * bbar / abar) / abar
    u0 = (c - a * cbar / abar) / abar
    rho1 = -(u1 * s1 + u0) / (s1 - s2)
    rho2 = -(u1 * s2 + u0) / (s2 - s1)
    p1, p2 = 1.0 / s1, 1.0 / s2
    w1 = rho1 * p1 * p1 / ((1.0 - p1) * (1.0 - pi))
    if p2 == 0.0:
        return w1, 1.0 - w1
    w2 = rho2 * p2 * p2 / ((1.0 - p2) * (1.0 - pi))
    return w1, w2


def pmf_recursive(rf: RationalFunction, n: int) -> list[float]:
    """First n+1 pmf values by power-series division of num by den.

    c_l = (a_l - c_{l-2} b_2 - c_{l-1} b_1) / b_0 with a_l = 0 beyond the
    numerator degree, where a term is present only when its index is >= 0
    and within the denominator degree q; identical to the staged triangular
    solves of the matrix formulation because those systems are
    lower-triangular Toeplitz in the denominator coefficients. The first
    max(deg num + 1, q) values skip each absent term; from there on every
    term is present and the steps run without a branch, from 0.0 as the
    absent a_l. Skipping a term rather than adding 0.0 * c, and starting
    from 0.0, keeps the sign of zero. q > 2 raises.
    """
    b = rf.den.coeffs  # RationalFunction scales b[0] = den(0) to 1, so never 0
    q = len(b) - 1
    if q > 2:
        raise GeominarError(f"pmf recursion supports denominator degree <= 2, got degree {q}")
    b0, b1, b2 = (*b, 0.0, 0.0)[:3]
    # the first index at which each term enters (past the end when absent)
    from1 = 1 if q >= 1 else n + 1
    from2 = 2 if q == 2 else n + 1
    a = rf.num.coeffs
    na = len(a)
    head = min(n + 1, max(na, q))
    out = []
    c1 = c2 = 0.0
    for el in range(head):
        acc = a[el] if el < na else 0.0
        if el >= from2:
            acc -= c2 * b2
        if el >= from1:
            acc -= c1 * b1
        c2, c1 = c1, acc / b0
        out.append(c1)
    if q == 2:
        for _ in range(head, n + 1):
            c2, c1 = c1, (0.0 - c2 * b2 - c1 * b1) / b0
            out.append(c1)
    elif q == 1:
        for _ in range(head, n + 1):
            c1 = (0.0 - c1 * b1) / b0
            out.append(c1)
    else:
        out += [0.0 / b0] * (n + 1 - head)
    return out


def tail_geometric_approx(dec: FractionalDecomposition, m: int) -> float:
    """Smallest-root geometric approximation rho_min / s_min^(m+1).

    The relative error against the exact pmf decays like (s_min/s_next)^m,
    so the single-term tail is accurate for large m.
    """
    if not dec.terms:
        raise NoGeometricTermsError("decomposition has no geometric terms")
    rho, s = dec.terms[0]
    return rho * s ** (-(m + 1))
