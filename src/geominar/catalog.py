"""Named INAR(1) model families with validity regions and closed-form moments.

Eight entries ship, each deriving its innovation law from root offsets:

==============  ============================  =====================
name            marginal                      thinning
==============  ============================  =====================
ginar           Geometric(theta)              binomial(alpha)
nginar          GeometricMean(mu)             neg. binomial(alpha)
zmg             (innovation only)             none (alpha = 0)
two-param       (innovation only)             none (alpha = 0)
rho-geo-bin     RhoGeometric(mu, rho)         binomial(alpha)
hurdle-geo-bin  HurdleGeometric(mu, rho)      binomial(alpha)
rho-geo-nb      RhoGeometric(mu, rho)         neg. binomial(alpha)
hurdle-geo-nb   HurdleGeometric(mu, rho)      neg. binomial(alpha)
==============  ============================  =====================

zmg is the zero-modified geometric innovation law (atom k at zero, weight
1-k on a geometric with mean mu); two-param is the linear family with pgf
1 - m(1-s)/(1+r(1-s)). Both behave as iid models (alpha = 0) whose marginal
equals the innovation law.

Families are rows of _ENTRIES, not name tests: a thinned row names its
marginal and thinning (which declare their bounds and give the InnovationLaw)
and its closed-form checks; an iid row declares bounds, factor and moments.
Each bound and check is a (label, test) pair; validate_params reports its
label with the test's result, and `geominar catalog` lists the same labels.
Every row ends with _FINAL: poles s = 1 + t > 1 as doubles, pmf nonnegative.

The innovation moments of a thinned family follow from its marginal's by
the stationarity identity phi_X(s) = phi_X(phi_N(s)) phi_e(s) at s = 1
(Al-Osh & Alzaid 1987; Ristic, Bakouch & Nastic 2009), one formula per
thinning; simplified variance shortcuts for the hurdle families disagree
with the pmf and are kept only in the test suite as rejected candidates.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .decompose import (
    CLAMP_TOL,
    FractionalDecomposition,
    HurdleForm,
    InnovationDistribution,
    decomposition_to_hurdle,
    pmf_from_decomposition,
    pmf_recursive,
)
from .errors import GeominarError, ValidityViolationError
from .pgf import (
    BinomialThinning,
    Geometric,
    GeometricMean,
    HurdleGeometric,
    InnovationLaw,
    ModelSpec,
    NegativeBinomialThinning,
    RhoGeometric,
    innovation_law,
    interval,
    offset_div,
)

_MARGIN_CAP = 1e18


@dataclass(frozen=True)
class Constraint:
    """A named validity condition with a signed margin (positive = inside)."""

    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class Moments:
    marginal_mean: float
    marginal_var: float
    marginal_dispersion: float
    innovation_mean: float
    innovation_var: float
    innovation_dispersion: float


@dataclass(frozen=True)
class DispersionClass:
    marginal: str
    innovation: str


@dataclass(frozen=True)
class INARModel:
    """A derived model: spec, innovation law (its one pgf), decomposition, hurdle view, moments."""

    name: str
    params: Mapping[str, float]
    spec: ModelSpec
    law: InnovationLaw
    decomposition: FractionalDecomposition
    hurdle: HurdleForm
    moments: Moments
    constraints: tuple[Constraint, ...]

    @functools.cached_property
    def innovation(self) -> InnovationDistribution:
        """The pmf table at the default mass, built on first use and cached;
        its refusals (past 1e6 rows, a row not finite) come here."""
        return pmf_from_decomposition(self.decomposition)

    @property
    def alpha(self) -> float:
        return self.spec.thinning.alpha

    def marginal_pmf(self, k: int) -> float:
        if self.spec.marginal is None:
            return self.innovation.pmf(k)
        return self.spec.marginal.pmf(k)


def _constraint(name: str, satisfied: bool, margin: float) -> Constraint:
    return Constraint(name, bool(satisfied), max(min(margin, _MARGIN_CAP), -_MARGIN_CAP))


def _refuse(name: str, constraints) -> None:
    """Raise ValidityViolationError naming the first violated constraint and its margin."""
    for c in constraints:
        if not c.satisfied:
            raise ValidityViolationError(
                f"{name}: constraint '{c.name}' violated (margin {c.margin:.6g})")


def validate_params(name: str, **params: float) -> tuple[Constraint, ...]:
    """Every applicable validity condition with a boolean and signed margin.

    The model is buildable iff all entries are satisfied, short of the build's
    two self-checks, where digits are lost (a law that the recursion contradicts,
    a hurdle view outside its bounds); its table refuses at first use. Each
    entry is exact, pmf nonnegativity at every m too (_pmf_nonnegative).
    """
    entry = _entry(name)
    return _validate(entry, _coerce_params(entry, params))[0]


def _validate(entry: _Entry, p: dict) -> tuple[tuple[Constraint, ...], ModelSpec | None,
                                               InnovationLaw | None]:
    """The constraint report of validate_params, with the model spec and its
    innovation law when the domain admits them (else None). Every check runs,
    even after another has failed, so that the report stays informative."""
    out = entry.domain(p)
    if not all(c.satisfied for c in out):
        return tuple(out), None, None

    spec = entry.spec(p)
    if spec.marginal is not None:
        law = innovation_law(spec)
    else:  # the iid entries give their Moebius law (1 - c t) / (1 - b t) as is, with c - b
        c, b, diff = entry.factor(**p)
        law = InnovationLaw(((offset_div(1.0, c), offset_div(1.0, b),
                              offset_div(offset_div(diff, b), c)),))
    out += [_constraint(label, *test(p, spec, law)) for label, test in entry.checks + _FINAL]
    return tuple(out), spec, law


def closed_form_moments(name: str, **params: float) -> Moments:
    """All six moment fields from closed forms (no table summation).

    With E the marginal's mean, X = a (.) X' + e gives E[e] = (1 - a) E; the
    thinning's innovation_variance gives Var(e). Parameters outside the
    declared domain raise ValidityViolationError naming the bound.
    """
    entry = _entry(name)
    p = _coerce_params(entry, params)
    _refuse(name, entry.domain(p))
    return _moments(entry, entry.spec(p), p)


def _moments(entry: _Entry, spec: ModelSpec, p: dict) -> Moments:
    if spec.marginal is None:  # the marginal is the innovation law
        im, iv = mm, mv = entry.moments(**p)
    else:
        mm, mv = spec.marginal.mean(), spec.marginal.variance()
        im, iv = (1.0 - spec.thinning.alpha) * mm, spec.thinning.innovation_variance(mm, mv)
    return Moments(mm, mv, mv / mm if mm > 0 else math.nan,
                   im, iv, iv / im if im > 0 else math.nan)


def dispersion_class(m: Moments) -> DispersionClass:
    """Classify marginal and innovation as under/equi/over dispersed (equi
    within 1e-12 of index one), or undefined where the index is NaN (mean 0)."""

    def classify(i: float) -> str:
        if abs(i - 1.0) <= 1e-12:
            return "equi"
        return "over" if i > 1.0 else "under" if i < 1.0 else "undefined"  # NaN: neither

    return DispersionClass(classify(m.marginal_dispersion),
                           classify(m.innovation_dispersion))


def build_model(name: str, **params: float) -> INARModel:
    """Validate parameters, derive and decompose the innovation law from its
    root offsets (no table: see INARModel.innovation), attach closed-form moments.

    Raises ValidityViolationError naming the first violated constraint and
    its margin when the parameters are outside the validity region.
    """
    entry = _entry(name)
    p = _coerce_params(entry, params)
    constraints, spec, law = _validate(entry, p)
    _refuse(name, constraints)
    dec = law.decomposition
    _cross_check(pmf_recursive(law.rf, 32), dec)
    return INARModel(name, dict(p), spec, law, dec, decomposition_to_hurdle(dec),
                     _moments(entry, spec, p), constraints)


def _cross_check(recursive: list[float], dec: FractionalDecomposition) -> None:
    """The law, clamped at zero as its table is, against the recursion (m = 0..32), to 1e-9.

    Each value is the float dec.pmf(m) gives (dec.pmf_column)."""
    for m, (v, expected) in enumerate(zip(dec.pmf_column(0, len(recursive)), recursive)):
        v = v if v >= 0.0 else 0.0
        if abs(v - expected) > 1e-9:
            raise GeominarError(f"innovation construction mismatch at m={m}: "
                                f"{v!r} (root offsets) vs {expected!r} (recursion)")


@dataclass(frozen=True)
class _Entry:
    """One catalog family (see the module docstring). Bounds and checks are (label, test)
    pairs; a test gives (inside, margin) from the parameters, a check's from (params, spec,
    law). An iid entry's factor (c, b, c - b) of phi_e = (1 - c t) / (1 - b t) and moments
    take its parameters."""

    name: str
    param_names: tuple[str, ...]
    marginal: type | None
    thinning: type
    summary: str
    checks: tuple[tuple[str, Callable], ...] = ()
    iid_bounds: tuple[tuple[str, Callable], ...] = ()
    factor: Callable | None = None
    moments: Callable | None = None

    @property
    def bounds(self) -> tuple[tuple[str, Callable], ...]:
        return self.marginal.DOMAIN + self.thinning.DOMAIN if self.marginal else self.iid_bounds

    @property
    def labels(self) -> tuple[str, ...]:
        """Every constraint name validate_params reports, in its order; nothing is evaluated."""
        return tuple(label for label, _ in self.bounds + self.checks + _FINAL)

    def marginal_params(self, p: dict) -> dict:
        return {f.name: p[f.name] for f in fields(self.marginal)}

    def spec(self, p: dict) -> ModelSpec:
        marginal = None if self.marginal is None else self.marginal(**self.marginal_params(p))
        return ModelSpec(marginal, self.thinning(p.get("alpha", 0.0)))

    def domain(self, p: dict) -> list[Constraint]:
        """The declared parameter bounds, or alone the parameters that are not finite."""
        if not all(map(math.isfinite, p.values())):
            return [_constraint(f"{k} finite", False, -math.inf) for k, v in p.items()
                    if not math.isfinite(v)]
        return [_constraint(label, *test(p)) for label, test in self.bounds]


def _at_most_ratio(x: str, y: str) -> tuple[str, Callable]:
    return (f"{x} <= {y}/(1+{y})", lambda p, spec, law: interval(
        p[x], hi=p[y] / (1.0 + p[y]), hi_closed=True, slack=1e-12))


def _roots_ordered(p, spec, law):
    # t1: the marginal's pole (s1 = 1 + t1 > 1); t2: its zero's preimage
    z, t1 = spec.marginal.offsets()
    t2 = spec.thinning.preimage(z)[0]
    return t1 > 0.0 and t2 >= t1 - 1e-12, min(t1, t2 - t1)


def _poles_above_one(p, spec, law):
    # the marginal's pole too: the law may drop its factor. (1 + t) - 1, monotone in
    # t, is 0 exactly where s rounds onto 1, which no term at s = 1 can stand for
    t = min(law.poles + (spec.marginal.offsets()[1:] if spec.marginal else ()), default=math.inf)
    margin = (1.0 + t) - 1.0
    return margin > 0.0, margin


def _pmf_nonnegative(p, spec, law):
    # Past its atoms (degree <= 1) the pmf is r1 x1^(m+1) + r2 x2^(m+1), x_j = 1/s_j and
    # 1 > x1 > x2, or x2^(m+1) (r1 (x1/x2)^(m+1) + r2), whose bracket is monotone in m: so
    # the rows to one past the atoms and, if a residue is negative, the dominant one settle
    # every m. The rows are the floats of the law's one decomposition.
    try:
        dec = law.decomposition
    except GeominarError:  # poles not distinct, or one at or inside s = 1
        return False, -math.inf
    values = dec.pmf_column(0, dec.atom_poly.degree + 2)
    values += [dec.terms[0][0]] if min((r for r, _ in dec.terms), default=0.0) < 0.0 else []
    if len(dec.terms) > 2 or not math.isfinite(sum(values)):  # no such bracket, or a nan row
        return False, -math.inf
    return min(values) >= -CLAMP_TOL, min(values)


# the checks that end every row: the first decides whether the second can read the law
_FINAL = (("poles s = 1 + t > 1 in double precision", _poles_above_one),
          ("innovation pmf nonnegative", _pmf_nonnegative))
_ROOTS_ORDERED = ("roots ordered s2 >= s1 > 1", _roots_ordered)

_ENTRIES = {e.name: e for e in (
    _Entry("ginar", ("theta", "alpha"), Geometric, BinomialThinning,
           "geometric marginal, binomial thinning; zero-inflated geometric innovations"),
    _Entry("nginar", ("mu", "alpha"), GeometricMean, NegativeBinomialThinning,
           "geometric marginal (mean mu), negative binomial thinning",
           checks=(_at_most_ratio("alpha", "mu"),)),
    _Entry("zmg", ("mu", "k"), None, BinomialThinning,
           "zero-modified geometric innovation law (iid model, alpha = 0)",
           iid_bounds=(("mu > 0", lambda p: interval(p["mu"], 0.0)),
                       ("k >= -1/mu", lambda p: interval(p["k"], offset_div(-1.0, p["mu"]),
                                                         lo_closed=True, slack=1e-12)),
                       ("k < 1", lambda p: interval(p["k"], hi=1.0))),
           factor=lambda mu, k: (k * mu, mu, mu * (k - 1.0)),
           moments=lambda mu, k: ((1.0 - k) * mu, (1.0 - k) * mu * (1.0 + mu + k * mu))),
    _Entry("two-param", ("r", "m"), None, BinomialThinning,
           "two-parameter linear innovation law (iid model, alpha = 0)",
           iid_bounds=(("r > 0", lambda p: interval(p["r"], 0.0)),
                       ("m > 0", lambda p: interval(p["m"], 0.0)),
                       ("m <= 1 + r", lambda p: interval(p["m"], hi=1.0 + p["r"],
                                                         hi_closed=True, slack=1e-12))),
           factor=lambda r, m: (r - m, r, -m),
           moments=lambda r, m: (m, m * (1.0 + 2.0 * r - m))),
    _Entry("rho-geo-bin", ("mu", "rho", "alpha"), RhoGeometric, BinomialThinning,
           "zero-inflated geometric marginal, binomial thinning; hurdle innovations",
           checks=(_ROOTS_ORDERED,)),
    _Entry("hurdle-geo-bin", ("mu", "rho", "alpha"), HurdleGeometric, BinomialThinning,
           "hurdle geometric marginal, binomial thinning; hurdle innovations",
           checks=(_at_most_ratio("mu", "rho"), _ROOTS_ORDERED)),
    _Entry("rho-geo-nb", ("mu", "rho", "alpha"), RhoGeometric, NegativeBinomialThinning,
           "zero-inflated geometric marginal, negative binomial thinning",
           checks=(_ROOTS_ORDERED,)),
    _Entry("hurdle-geo-nb", ("mu", "rho", "alpha"), HurdleGeometric, NegativeBinomialThinning,
           "hurdle geometric marginal, negative binomial thinning", checks=(_ROOTS_ORDERED,)),
)}

MODEL_NAMES = tuple(_ENTRIES)


def _entry(name: str) -> _Entry:
    try:
        return _ENTRIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, say a list
        raise ValidityViolationError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}") from None


def _coerce_params(entry: _Entry, params: Mapping[str, float]) -> dict:
    unknown = set(params) - set(entry.param_names)
    if unknown:
        raise ValidityViolationError(
            f"{entry.name}: unknown parameter(s) {sorted(unknown)}; "
            f"expected {list(entry.param_names)}")
    missing = [n for n in entry.param_names if n not in params]
    if missing:
        raise ValidityViolationError(f"{entry.name}: missing parameter(s) {missing}")
    out = {}
    for n in entry.param_names:
        v = params[n]
        try:  # real numbers only: float() would also read "0.5" and False
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError
            out[n] = float(v)
        except (TypeError, OverflowError):  # OverflowError: an int beyond float range
            raise ValidityViolationError(
                f"{entry.name}: parameter {n} must be a float, got {params[n]!r}") from None
    return out


def model_entries() -> tuple[_Entry, ...]:
    """Catalog listing for the CLI: names, parameters, summaries, constraint labels."""
    return tuple(_ENTRIES.values())
