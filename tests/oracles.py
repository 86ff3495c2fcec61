"""Independent oracles for the test suite.

Deliberately separate from the library: exact Fraction polynomial algebra
for pgf composition and plain power-series division for pmf values, so the
expected numbers asserted in tests never flow through the code under test.
"""
from __future__ import annotations

from fractions import Fraction as F


def pmul(a: list, b: list) -> list:
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0))
            for i in range(n)]


def compose_deg1(p: list, m_num: list, m_den: list, d: int) -> list:
    """sum_k p_k * m_num^k * m_den^(d-k), exact in Fractions."""
    out = [F(0)]
    for k, pk in enumerate(p):
        term = [pk]
        for _ in range(k):
            term = pmul(term, m_num)
        for _ in range(d - k):
            term = pmul(term, m_den)
        out = padd(out, term)
    return out


def innovation_quotient(marg_num, marg_den, thin_num, thin_den):
    """Exact numerator and denominator of phi_X / phi_X(phi_N)."""
    d = max(len(marg_num), len(marg_den)) - 1
    comp_num = compose_deg1(marg_num, thin_num, thin_den, d)
    comp_den = compose_deg1(marg_den, thin_num, thin_den, d)
    return pmul(marg_num, comp_den), pmul(marg_den, comp_num)


def series_pmf(num, den, n: int) -> list[float]:
    """Power-series division in floats: the brute-force pmf oracle."""
    a = [float(x) for x in num]
    b = [float(x) for x in den]
    out: list[float] = []
    for el in range(n + 1):
        acc = a[el] if el < len(a) else 0.0
        for i in range(max(0, el - (len(b) - 1)), el):
            acc -= out[i] * b[el - i]
        out.append(acc / b[0])
    return out


def exact_model_quotient(name: str, **p):
    """Exact innovation quotient for a catalog model, built from Fractions
    near the parameters (denominators up to 1e12)."""
    return _quotient(name, {k: F(v).limit_denominator(10**12) for k, v in p.items()})


def _marginal(kind: str, fr: dict):
    """Exact numerator and denominator of the marginal pgf of the class named
    kind, written from the family's pmf."""
    if kind == "Geometric":
        th = fr["theta"]
        return [th], [F(1), -(1 - th)]
    if kind == "GeometricMean":
        mu = fr["mu"]
        return [F(1)], [1 + mu, -mu]
    mu, rho = fr["mu"], fr["rho"]
    if kind == "RhoGeometric":
        return [F(1), -rho], [1 + mu, -(rho + mu)]
    if kind == "HurdleGeometric":
        k = mu + mu * rho - rho
        return [1 - k, k], [1 + rho, -rho]
    raise ValueError(kind)


# each thinned catalog family's marginal class, and whether its thinning is binomial
_THINNED = {"ginar": ("Geometric", True), "nginar": ("GeometricMean", False),
            "rho-geo-bin": ("RhoGeometric", True), "hurdle-geo-bin": ("HurdleGeometric", True),
            "rho-geo-nb": ("RhoGeometric", False), "hurdle-geo-nb": ("HurdleGeometric", False)}


def _iid(name: str, fr: dict):
    """Exact numerator and denominator of an iid family's law, its own marginal."""
    if name == "zmg":
        mu, k = fr["mu"], fr["k"]
        return [1 + k * mu, -k * mu], [1 + mu, -mu]
    if name == "two-param":
        r, m = fr["r"], fr["m"]
        return [1 + r - m, m - r], [1 + r, -r]
    raise ValueError(name)


def _quotient(name: str, fr: dict):
    if name not in _THINNED:
        return _iid(name, fr)
    kind, binomial = _THINNED[name]
    al = fr["alpha"]
    thinning = ([1 - al, al], [F(1)]) if binomial else ([F(1)], [1 + al, -al])
    return innovation_quotient(*_marginal(kind, fr), *thinning)


def marginal_pgf(marginal):
    """Exact numerator and denominator of a pgf marginal's (a s + b) / (c s + d)
    at its float parameters (Fraction(v), no rounding)."""
    return _marginal(type(marginal).__name__, {k: F(v) for k, v in vars(marginal).items()})


def exact_marginal_moments(name: str, **p) -> tuple[float, float, float, float]:
    """Mean and central m2, m3, m4 of a catalog model's marginal law (an iid
    family's law), from exact Fraction derivatives at s = 1 of its pgf
    f = (a s + b) / (c s + d) at the float parameters, each rounded to the
    nearest float once at the end: f^(n)(1) = (-1)^n n! e c^(n-1) / (c + d)^(n+1)
    with e = b c - a d are the factorial moments."""
    fr = {k: F(v) for k, v in p.items()}
    num, den = _marginal(_THINNED[name][0], fr) if name in _THINNED else _iid(name, fr)
    (b, a), (d, c) = (*num, F(0))[:2], den
    e, sign, fact = b * c - a * d, -1, 1
    f = []
    for n in range(1, 5):
        fact *= n
        f.append(sign * fact * e * c ** (n - 1) / (c + d) ** (n + 1))
        sign = -sign
    f1, f2, f3, f4 = f
    mean = f1
    e2, e3, e4 = f2 + f1, f3 + 3 * f2 + f1, f4 + 6 * f3 + 7 * f2 + f1
    m2 = e2 - mean ** 2
    m3 = e3 - 3 * mean * e2 + 2 * mean ** 3
    m4 = e4 - 4 * mean * e3 + 6 * mean ** 2 * e2 - 3 * mean ** 4
    return float(mean), float(m2), float(m3), float(m4)


def _derivative(poly: list) -> list:
    return [i * c for i, c in enumerate(poly)][1:]


def exact_moments(name: str, **p) -> tuple[float, float]:
    """Innovation mean phi'(1) and variance phi''(1) + phi'(1) - phi'(1)^2 of
    the exact quotient of the float parameters (Fraction(v), no rounding),
    each rounded to the nearest float once at the end."""
    num, den = _quotient(name, {k: F(v) for k, v in p.items()})
    dn, dd = _derivative(num), _derivative(den)
    # a polynomial's value at s = 1 is the sum of its coefficients
    n0, n1, n2 = sum(num), sum(dn), sum(_derivative(dn))
    d0, d1, d2 = sum(den), sum(dd), sum(_derivative(dd))
    # phi = n/d: phi' = (n' d - n d')/d^2, phi'' = (n'' - 2 phi' d' - phi d'')/d
    phi = n0 / d0
    first = (n1 * d0 - n0 * d1) / (d0 * d0)
    second = (n2 - 2 * first * d1 - phi * d2) / d0
    return float(first), float(second + first - first * first)


def oracle_pmf(name: str, n: int, **p) -> list[float]:
    num, den = exact_model_quotient(name, **p)
    return series_pmf(num, den, n)


def oracle_moments(name: str, n: int = 6000, **p) -> tuple[float, float]:
    c = oracle_pmf(name, n, **p)
    m1 = sum(m * q for m, q in enumerate(c))
    m2 = sum(m * m * q for m, q in enumerate(c))
    return m1, m2 - m1 * m1


def scalar_pmf(dec, m: int) -> float:
    """A FractionalDecomposition's pmf at m, one value at a time: the atom
    coefficient, then rho * s^-(m+1) per term in the decomposition's order
    (a negative power underflows to 0, never overflows)."""
    v = dec.atom_poly.coeff(m)
    for rho, s in dec.terms:
        v += rho * s ** (-(m + 1))
    return v


def scalar_innovation_pmf(dist, m: int) -> float:
    """An InnovationDistribution's pmf at m: 0 below 0, the table's row up to
    its truncation, the decomposition's value clamped at 0 past it."""
    if m < 0:
        return 0.0
    if m <= dist.truncation:
        return dist.pmf_table[m]
    return max(scalar_pmf(dist.decomposition, m), 0.0)


def loop_pmf_table(dec, target_mass: float) -> tuple[float, ...]:
    """The pmf table tabulated one row at a time, as pmf_from_decomposition
    did before it built blocks of columns: scalar_pmf(dec, m) and
    dec.remaining_mass(m) per row, with the same clamp, stop rule, tail
    certificate, refusals and 1e6-row cap."""
    from geominar.decompose import CLAMP_TOL, _tail_certified
    from geominar.errors import GeominarError, NegativeProbabilityError

    terms = dec.terms
    if terms and terms[0][0] < -CLAMP_TOL:
        raise NegativeProbabilityError(
            f"smallest-root residue rho={terms[0][0]!r} < 0: tail is eventually negative")
    table = []
    cum = 0.0
    m = 0
    while True:
        v = scalar_pmf(dec, m)
        if v < -CLAMP_TOL:
            raise NegativeProbabilityError(f"pmf entry at m={m} is {v!r}")
        v = max(v, 0.0)
        table.append(v)
        cum += v
        if m >= dec.atom_poly.degree:
            remaining = dec.remaining_mass(m)
            if cum >= target_mass or abs(remaining) <= 1.0 - target_mass:
                if _tail_certified(terms, m):
                    return tuple(table)
        m += 1
        if m > 1_000_000:
            raise GeominarError("pmf truncation did not converge within 1e6 entries")
