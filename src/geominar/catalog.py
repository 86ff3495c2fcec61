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

The thinned families build their pgf.InnovationLaw from the marginal and
the thinning; the iid entries give the root offsets of their pgf directly.

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
from typing import Mapping

from .decompose import (
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
    offset_div,
    counting_pgf,
    innovation_law,
)
from .polyrat import RationalFunction

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
    """A derived model: pgfs, innovation law and its hurdle view, moments, constraints."""

    name: str
    params: Mapping[str, float]
    spec: ModelSpec
    marginal_rf: RationalFunction
    counting_rf: RationalFunction
    innovation_rf: RationalFunction
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


def _cap(x: float) -> float:
    return max(min(x, _MARGIN_CAP), -_MARGIN_CAP)


def _constraint(name: str, satisfied: bool, margin: float) -> Constraint:
    return Constraint(name, bool(satisfied), _cap(margin))


def _open01(label: str, v: float) -> Constraint:
    return _constraint(f"{label} in (0,1)", 0.0 < v < 1.0, min(v, 1.0 - v))


def _alpha_dom(a: float) -> Constraint:
    return _constraint("alpha in [0,1)", 0.0 <= a < 1.0, min(a, 1.0 - a) if a > 0 else 1.0 - a)


def _domain_constraints(entry: _Entry, p: dict) -> list[Constraint]:
    name = entry.name
    if name == "ginar":
        return [_open01("theta", p["theta"]), _alpha_dom(p["alpha"])]
    if name == "nginar":
        return [_constraint("mu > 0", p["mu"] > 0.0, p["mu"]), _alpha_dom(p["alpha"])]
    if name == "zmg":
        mu, k = p["mu"], p["k"]
        out = [_constraint("mu > 0", mu > 0.0, mu)]
        if mu > 0.0:
            out.append(_constraint("k >= -1/mu", k + 1.0 / mu >= -1e-12, k + 1.0 / mu))
        out.append(_constraint("k < 1", k < 1.0, 1.0 - k))
        return out
    if name == "two-param":
        r, m = p["r"], p["m"]
        return [
            _constraint("r > 0", r > 0.0, r),
            _constraint("m > 0", m > 0.0, m),
            _constraint("m <= 1 + r", m <= 1.0 + r + 1e-12, 1.0 + r - m),
        ]
    mu, rho, alpha = p["mu"], p["rho"], p["alpha"]
    out = []
    if entry.marginal is RhoGeometric:
        out.append(_constraint("mu > 0", mu > 0.0, mu))
        out.append(_constraint("rho in [0,1)", 0.0 <= rho < 1.0,
                               min(rho, 1.0 - rho) if rho > 0 else 1.0 - rho))
    else:
        out.append(_open01("mu", mu))
        out.append(_open01("rho", rho))
    out.append(_alpha_dom(alpha))
    return out


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
    # inf passes mu > 0 and nan fails later checks with a nan margin: name them first
    out = [_constraint(f"{k} finite", False, -math.inf) for k, v in p.items()
           if not math.isfinite(v)] or _domain_constraints(entry, p)
    if not all(c.satisfied for c in out):
        return tuple(out), None, None, None

    spec = _model_spec(entry, p)
    law = _innovation_law(entry, spec, p)
    name = entry.name
    if name == "nginar":
        bound = p["mu"] / (1.0 + p["mu"])
        out.append(_constraint("alpha <= mu/(1+mu)", p["alpha"] <= bound + 1e-12,
                               bound - p["alpha"]))
    elif entry.marginal in (RhoGeometric, HurdleGeometric):
        mu, rho = p["mu"], p["rho"]
        if name == "hurdle-geo-bin":
            bound = rho / (1.0 + rho)
            out.append(_constraint("mu <= rho/(1+rho)", mu <= bound + 1e-12, bound - mu))
        # t1: the marginal's pole (s1 = 1 + t1 > 1 as a float); t2: its zero's preimage
        z, t1 = spec.marginal.offsets()
        t2 = spec.thinning.preimage(z)[0]
        out.append(_constraint("roots ordered s2 >= s1 > 1",
                               1.0 + t1 > 1.0 and t2 >= t1 - 1e-12, min(t1, t2 - t1)))
        try:  # the term of the smallest pole dominates the tail; no pole, no tail
            rho1 = law.residues[0] if law.poles else 0.0
        except GeominarError:
            rho1 = -math.inf
        out.append(_constraint("dominant tail weight w1 >= 0", rho1 >= -1e-12, rho1))

    # the numeric check runs whenever the domain admits an innovation law,
    # even if a closed-form condition above already failed: the recursion
    # needs no root geometry, so the report stays informative
    table = None
    try:
        table = pmf_recursive(law.rf, 400)
        worst = min(table)
        out.append(_constraint("innovation pmf nonnegative (numeric)", worst >= -1e-12, worst))
    except GeominarError as exc:
        out.append(_constraint(f"innovation pmf nonnegative (numeric: {exc})", False,
                               -math.inf))
    return tuple(out), spec, law, table


def _innovation_law(entry: _Entry, spec: ModelSpec, p: dict) -> InnovationLaw:
    if spec.marginal is not None:
        return innovation_law(spec)
    # the iid entries give their Moebius law (1 - c t) / (1 - b t) as is, with c - b
    if entry.name == "zmg":
        c, b, diff = p["k"] * p["mu"], p["mu"], p["mu"] * (p["k"] - 1.0)
    else:  # two-param
        c, b, diff = p["r"] - p["m"], p["r"], -p["m"]
    gap = offset_div(offset_div(diff, b), c)
    return InnovationLaw(((offset_div(1.0, c), offset_div(1.0, b), gap),))


def _model_spec(entry: _Entry, p: dict) -> ModelSpec:
    # the marginal takes the parameters named like its fields; innovation-only
    # entries have none and behave as iid models with alpha = 0
    marginal = (None if entry.marginal is None else
                entry.marginal(**{f.name: p[f.name] for f in fields(entry.marginal)}))
    return ModelSpec(marginal, entry.thinning(p.get("alpha", 0.0)))


def closed_form_moments(name: str, **params: float) -> Moments:
    """All six moment fields from closed forms (no table summation).

    With E, V the marginal's mean and variance, X = a (.) X' + e gives
    E[e] = (1 - a) E and Var(e) = (1 - a)((1 + a) V - a E) for binomial
    thinning, (1 + a)((1 - a) V - a E) for negative binomial thinning, whose
    counting variable has variance a (1 + a).
    """
    entry = _entry(name)
    p = _coerce_params(entry, params)
    return _moments(entry, _model_spec(entry, p), p)


def _moments(entry: _Entry, spec: ModelSpec, p: dict) -> Moments:
    marginal = spec.marginal
    if marginal is not None:
        a = spec.thinning.alpha
        mm, mv = marginal.mean(), marginal.variance()
        im = (1.0 - a) * mm
        if isinstance(spec.thinning, BinomialThinning):
            iv = (1.0 - a) * ((1.0 + a) * mv - a * mm)
        else:
            iv = (1.0 + a) * ((1.0 - a) * mv - a * mm)
    elif entry.name == "zmg":
        mu, k = p["mu"], p["k"]
        im = mm = (1.0 - k) * mu
        iv = mv = (1.0 - k) * mu * (1.0 + mu + k * mu)
    else:  # two-param
        r, m = p["r"], p["m"]
        im = mm = m
        iv = mv = m * (1.0 + 2.0 * r - m)
    return Moments(mm, mv, mv / mm if mm > 0 else math.nan,
                   im, iv, iv / im if im > 0 else math.nan)


def dispersion_class(m: Moments) -> DispersionClass:
    """Classify marginal and innovation as under/equi/over dispersed (equi
    within 1e-12 of index one)."""

    def classify(i: float) -> str:
        if abs(i - 1.0) <= 1e-12:
            return "equi"
        return "over" if i > 1.0 else "under"

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
    for c in constraints:
        if not c.satisfied:
            raise ValidityViolationError(
                f"{name}: constraint '{c.name}' violated (margin {c.margin:.6g})")
    innovation = pmf_from_decomposition(law.decomposition())
    _cross_check(table, innovation)

    marg_rf = law.rf if spec.marginal is None else spec.marginal.pgf()
    return INARModel(name, dict(p), spec, marg_rf, counting_pgf(spec.thinning), law.rf,
                     innovation, decomposition_to_hurdle(innovation.decomposition),
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
    """One catalog family. marginal is the marginal class (None for the
    innovation-only entries) and thinning the thinning class."""

    name: str
    param_names: tuple[str, ...]
    marginal: type | None
    thinning: type
    summary: str
    constraints_doc: tuple[str, ...]


_ENTRIES = {e.name: e for e in (
    _Entry("ginar", ("theta", "alpha"), Geometric, BinomialThinning,
           "geometric marginal, binomial thinning; zero-inflated geometric innovations",
           ("theta in (0,1)", "alpha in [0,1)")),
    _Entry("nginar", ("mu", "alpha"), GeometricMean, NegativeBinomialThinning,
           "geometric marginal (mean mu), negative binomial thinning",
           ("mu > 0", "alpha in [0, mu/(1+mu)]")),
    _Entry("zmg", ("mu", "k"), None, BinomialThinning,
           "zero-modified geometric innovation law (iid model, alpha = 0)",
           ("mu > 0", "-1/mu <= k < 1")),
    _Entry("two-param", ("r", "m"), None, BinomialThinning,
           "two-parameter linear innovation law (iid model, alpha = 0)",
           ("r > 0", "0 < m <= 1 + r")),
    _Entry("rho-geo-bin", ("mu", "rho", "alpha"), RhoGeometric, BinomialThinning,
           "zero-inflated geometric marginal, binomial thinning; hurdle innovations",
           ("mu > 0", "rho in [0,1)", "alpha in [0,1)",
            "root ordering and numeric pmf nonnegativity")),
    _Entry("hurdle-geo-bin", ("mu", "rho", "alpha"), HurdleGeometric, BinomialThinning,
           "hurdle geometric marginal, binomial thinning; hurdle innovations",
           ("mu in (0,1)", "rho in (0,1)", "alpha in [0,1)",
            "mu <= rho/(1+rho)", "numeric pmf nonnegativity")),
    _Entry("rho-geo-nb", ("mu", "rho", "alpha"), RhoGeometric, NegativeBinomialThinning,
           "zero-inflated geometric marginal, negative binomial thinning",
           ("mu > 0", "rho in [0,1)", "alpha in [0,1)",
            "root ordering and numeric pmf nonnegativity")),
    _Entry("hurdle-geo-nb", ("mu", "rho", "alpha"), HurdleGeometric, NegativeBinomialThinning,
           "hurdle geometric marginal, negative binomial thinning",
           ("mu in (0,1)", "rho in (0,1)", "alpha in [0,1)",
            "root ordering and numeric pmf nonnegativity")),
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
    """Catalog listing for the CLI: names, parameters, constraint summaries."""
    return tuple(_ENTRIES.values())
