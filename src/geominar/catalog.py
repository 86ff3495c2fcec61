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

The innovation moments of a thinned family follow from its marginal's by
the stationarity identity phi_X(s) = phi_X(phi_N(s)) phi_e(s) at s = 1
(Al-Osh & Alzaid 1987; Ristic, Bakouch & Nastic 2009), one formula per
thinning; simplified variance shortcuts for the hurdle families disagree
with the pmf and are kept only in the test suite as rejected candidates.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .decompose import (
    CLAMP_TOL,
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
NUMERIC = "innovation pmf nonnegative (numeric)"  # the label of the check run last


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
    """A derived model: spec, innovation law (its one pgf), table and hurdle view, moments."""

    name: str
    params: Mapping[str, float]
    spec: ModelSpec
    law: InnovationLaw
    innovation: InnovationDistribution
    hurdle: HurdleForm
    moments: Moments
    constraints: tuple[Constraint, ...]

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

    The model is buildable iff all entries are satisfied. Conditions without
    a usable closed form are established numerically: the first few hundred
    pmf values are computed by the series recursion (which needs no root
    geometry) and checked for nonnegativity.
    """
    entry = _entry(name)
    return _validate(entry, _coerce_params(entry, params))[0]


def _validate(entry: _Entry, p: dict) -> tuple[tuple[Constraint, ...], ModelSpec | None,
                                               InnovationLaw | None, list[float] | None]:
    """The constraint report of validate_params, with the model spec, its
    innovation law and the law's 400-term recursion table when the domain
    admits them (else None)."""
    out = entry.domain(p)
    if not all(c.satisfied for c in out):
        return tuple(out), None, None, None

    spec = entry.spec(p)
    if spec.marginal is not None:
        law = innovation_law(spec)
    else:  # the iid entries give their Moebius law (1 - c t) / (1 - b t) as is, with c - b
        c, b, diff = entry.factor(**p)
        law = InnovationLaw(((offset_div(1.0, c), offset_div(1.0, b),
                              offset_div(offset_div(diff, b), c)),))
    out += [_constraint(label, *test(p, spec, law)) for label, test in entry.checks]

    # the numeric check runs whenever the domain admits an innovation law,
    # even if a closed-form condition above already failed: the recursion
    # needs no root geometry, so the report stays informative
    table = None
    try:
        table = pmf_recursive(law.rf, 400)
        worst = min(table)
        out.append(_constraint(NUMERIC, worst >= -CLAMP_TOL, worst))
    except GeominarError as exc:
        out.append(_constraint(f"{NUMERIC[:-1]}: {exc})", False, -math.inf))
    return tuple(out), spec, law, table


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
    """Validate parameters, derive the innovation law from its root offsets,
    and attach closed-form moments.

    Raises ValidityViolationError naming the first violated constraint and
    its margin when the parameters are outside the validity region.
    """
    entry = _entry(name)
    p = _coerce_params(entry, params)
    constraints, spec, law, table = _validate(entry, p)
    _refuse(name, constraints)
    marginal_pole = spec.marginal.offsets()[1:] if spec.marginal else ()
    for t in law.poles + marginal_pole:  # the marginal's too: the law may drop its factor
        if not 1.0 + t > 1.0:  # a named refusal, not a term at s = 1
            raise GeominarError(f"{name}: pole s = 1 + {t!r} rounds onto 1 in double precision")
    innovation = pmf_from_decomposition(law.decomposition())
    _cross_check(table, innovation)
    return INARModel(name, dict(p), spec, law, innovation,
                     decomposition_to_hurdle(innovation.decomposition),
                     _moments(entry, spec, p), constraints)


def _cross_check(recursive: list[float], innovation: InnovationDistribution) -> None:
    """The built law against the recursion at m = 0..32, to 1e-9."""
    for m, expected in enumerate(recursive[:33]):
        if abs(innovation.pmf(m) - expected) > 1e-9:
            raise GeominarError(
                f"innovation construction mismatch at m={m}: "
                f"{innovation.pmf(m)!r} (root offsets) vs {expected!r} (recursion)")


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
        return tuple(label for label, _ in self.bounds + self.checks) + (NUMERIC,)

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
    # t1: the marginal's pole (s1 = 1 + t1 > 1 as a float); t2: its zero's preimage
    z, t1 = spec.marginal.offsets()
    t2 = spec.thinning.preimage(z)[0]
    s1_margin = t1 if 1.0 + t1 > 1.0 else min(t1, 0.0)  # s1 rounded onto 1 is 0 away
    return 1.0 + t1 > 1.0 and t2 >= t1 - 1e-12, min(s1_margin, t2 - t1)


def _tail_weight(p, spec, law):
    try:  # the term of the smallest pole dominates the tail; no pole, no tail
        rho1 = law.residues[0] if law.poles else 0.0
    except GeominarError:
        rho1 = -math.inf
    return rho1 >= -CLAMP_TOL, rho1


_ROOTS_AND_TAIL = (("roots ordered s2 >= s1 > 1", _roots_ordered),
                   ("dominant tail weight w1 >= 0", _tail_weight))

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
           checks=_ROOTS_AND_TAIL),
    _Entry("hurdle-geo-bin", ("mu", "rho", "alpha"), HurdleGeometric, BinomialThinning,
           "hurdle geometric marginal, binomial thinning; hurdle innovations",
           checks=(_at_most_ratio("mu", "rho"),) + _ROOTS_AND_TAIL),
    _Entry("rho-geo-nb", ("mu", "rho", "alpha"), RhoGeometric, NegativeBinomialThinning,
           "zero-inflated geometric marginal, negative binomial thinning",
           checks=_ROOTS_AND_TAIL),
    _Entry("hurdle-geo-nb", ("mu", "rho", "alpha"), HurdleGeometric, NegativeBinomialThinning,
           "hurdle geometric marginal, negative binomial thinning", checks=_ROOTS_AND_TAIL),
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
