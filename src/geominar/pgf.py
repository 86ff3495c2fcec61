"""Marginal, counting-series and innovation probability generating functions.

The stationary law of an INAR(1) process X_t = a (.) X_{t-1} + e_t ties three
pgfs together: phi_X(s) = phi_X(phi_N(s)) * phi_e(s), where phi_N is the pgf
of the thinning counting series. The marginals are Moebius maps, so the
innovation pgf phi_X / phi_X(phi_N) is fixed by a few roots: InnovationLaw
carries them as offsets t = s - 1 computed from the parameters.

Each marginal family is one dataclass holding its closed forms: mobius()
(the coefficients a, b, c, d of (a s + b) / (c s + d)), mean(), variance(),
pmf(k), and geometric_form() = (atom, body, shift, ratio), which says that
the law is an atom at zero plus, with probability body = 1 - atom, shift
plus a geometric on {0,1,...} with failure ratio ratio. The sampler inverts
that form. Each thinning holds its counting pgf, variance identity and draw.
Both declare their parameter bounds once, as DOMAIN: (label, test) pairs,
where test(params) gives (inside, margin) and the label names the bound
wherever it is checked, refused or listed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

from .decompose import FractionalDecomposition
from .errors import GeominarError, InvalidParameterError, RepeatedRootsError
from .polyrat import DISTINCT_TOL, Polynomial, RationalFunction


def offset_div(x: float, y: float) -> float:
    """x / y, with an infinite offset for y == 0 (a root at infinity)."""
    return x / y if y != 0.0 else math.inf


def interval(v: float, lo: float = -math.inf, hi: float = math.inf, *,
             lo_closed=False, hi_closed=False, slack=0.0) -> tuple[bool, float]:
    """(inside, margin) for lo < v < hi, an end closed where asked, with slack.
    The margin is the signed distance to the nearer bound, <= 0 outside; on the
    closed lower end of a bounded interval, the distance to the upper bound."""
    d_lo, d_hi = v - lo, hi - v
    inside = ((d_lo >= -slack if lo_closed else d_lo > 0.0)
              and (d_hi >= -slack if hi_closed else d_hi > 0.0))
    on_closed_lo = lo_closed and d_lo == 0.0 and math.isfinite(hi)
    return inside, d_hi if on_closed_lo else min(d_lo, d_hi)


class _Declared:
    """A dataclass whose fields must pass every test of its DOMAIN, a tuple of
    (label, test) pairs; test(params) gives (inside, margin)."""

    def __post_init__(self):
        for label, test in self.DOMAIN:
            if not test(vars(self))[0]:
                raise InvalidParameterError(f"{type(self).__name__} requires {label}, got {self!r}")


class _Moebius(_Declared):
    """A marginal pgf (a s + b) / (c s + d) with a + b = c + d, read from mobius()."""

    def pgf(self, s: float) -> float:
        a, b, c, d = self.mobius()
        return (a * s + b) / (c * s + d)

    def offsets(self) -> tuple[float, float]:
        """The zero and the pole as offsets t = s - 1: -S/a and -S/c with S = a + b."""
        a, b, c, _ = self.mobius()
        return offset_div(-(a + b), a), offset_div(-(a + b), c)


@dataclass(frozen=True)
class Geometric(_Moebius):
    """Geometric marginal on {0,1,...}: Pr[X=m] = (1-theta)^m * theta."""

    theta: float

    DOMAIN = (("theta in (0,1)", lambda p: interval(p["theta"], 0.0, 1.0)),)

    def mobius(self) -> tuple[float, float, float, float]:
        return 0.0, self.theta, -(1.0 - self.theta), 1.0

    def mean(self) -> float:
        return (1.0 - self.theta) / self.theta

    def variance(self) -> float:
        t2 = self.theta * self.theta  # 0 below theta ~ 1.5e-162: the variance overflows
        return (1.0 - self.theta) / t2 if t2 else math.inf

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return (1.0 - self.theta) ** k * self.theta

    def geometric_form(self) -> tuple[float, float, int, float]:
        return 0.0, 1.0, 0, 1.0 - self.theta


@dataclass(frozen=True)
class GeometricMean(_Moebius):
    """Geometric marginal parameterized by its mean mu: Pr[X=m] = (mu/(1+mu))^m / (1+mu)."""

    mu: float

    DOMAIN = (("mu > 0", lambda p: interval(p["mu"], 0.0)),)

    def mobius(self) -> tuple[float, float, float, float]:
        return 0.0, 1.0, -self.mu, 1.0 + self.mu

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.mu * (1.0 + self.mu)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        r = self.mu / (1.0 + self.mu)
        return r ** k / (1.0 + self.mu)

    def geometric_form(self) -> tuple[float, float, int, float]:
        return 0.0, 1.0, 0, self.mu / (1.0 + self.mu)


@dataclass(frozen=True)
class RhoGeometric(_Moebius):
    """Zero-inflated (rho-)geometric marginal with mean mu/(1-rho).

    Pr[X=m] = rho/(mu+rho) at 0 plus the complementary geometric component
    with ratio (mu+rho)/(1+mu).
    """

    mu: float
    rho: float

    DOMAIN = (("mu > 0", lambda p: interval(p["mu"], 0.0)),
              ("rho in [0,1)", lambda p: interval(p["rho"], 0.0, 1.0, lo_closed=True)))

    def mobius(self) -> tuple[float, float, float, float]:
        return -self.rho, 1.0, -(self.rho + self.mu), 1.0 + self.mu

    def mean(self) -> float:
        return self.mu / (1.0 - self.rho)

    def variance(self) -> float:
        return self.mu * (1.0 + self.mu + self.rho) / (1.0 - self.rho) ** 2

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        atom = self.rho / (self.mu + self.rho)
        r = (self.mu + self.rho) / (1.0 + self.mu)
        body = (1.0 - atom) * r ** k * (1.0 - self.rho) / (1.0 + self.mu)
        return body + (atom if k == 0 else 0.0)

    def geometric_form(self) -> tuple[float, float, int, float]:
        atom = self.rho / (self.mu + self.rho)
        return atom, 1.0 - atom, 0, (self.mu + self.rho) / (1.0 + self.mu)


@dataclass(frozen=True)
class HurdleGeometric(_Moebius):
    """Hurdle geometric marginal: 1-mu at zero, shifted geometric above.

    Pr[X=0] = 1-mu and Pr[X=m] = mu * (rho/(1+rho))^(m-1) / (1+rho) for m >= 1.
    """

    mu: float
    rho: float

    DOMAIN = (("mu in (0,1)", lambda p: interval(p["mu"], 0.0, 1.0)),
              ("rho in (0,1)", lambda p: interval(p["rho"], 0.0, 1.0)))

    def mobius(self) -> tuple[float, float, float, float]:
        k = self.mu + self.mu * self.rho - self.rho
        return k, 1.0 - k, -self.rho, 1.0 + self.rho

    def mean(self) -> float:
        return self.mu * (1.0 + self.rho)

    def variance(self) -> float:
        return self.mu * (1.0 + self.rho) * (self.rho + (1.0 + self.rho) * (1.0 - self.mu))

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if k == 0:
            return 1.0 - self.mu
        r = self.rho / (1.0 + self.rho)
        return self.mu * r ** (k - 1) / (1.0 + self.rho)

    def geometric_form(self) -> tuple[float, float, int, float]:
        return 1.0 - self.mu, self.mu, 1, self.rho / (1.0 + self.rho)


MarginalSpec = Union[Geometric, GeometricMean, RhoGeometric, HurdleGeometric]


@dataclass(frozen=True)
class _Thinning(_Declared):
    alpha: float

    DOMAIN = (("alpha in [0,1)", lambda p: interval(p["alpha"], 0.0, 1.0, lo_closed=True)),)


@dataclass(frozen=True)
class BinomialThinning(_Thinning):
    """Binomial thinning: counting series of iid Bernoulli(alpha) variables.

    phi_N(s) = 1 - alpha + alpha s moves an offset t to alpha t.
    """

    def pgf(self, s: float) -> float:
        return self.alpha * s + (1.0 - self.alpha)

    def innovation_variance(self, mean: float, var: float) -> float:
        """Var(e) from the marginal's mean E and variance V: (1 - a)((1 + a) V - a E)."""
        a = self.alpha
        return (1.0 - a) * ((1.0 + a) * var - a * mean)

    def draw(self, gen, x):
        """Thin the counts x with the numpy Generator gen: binomial(x, alpha)."""
        return gen.binomial(x, self.alpha)

    def draw_single(self, gen, size):
        """Thin size single units with the numpy Generator gen: Bernoulli(alpha),
        one uniform each."""
        return gen.random(size) < self.alpha

    def preimage(self, u: float) -> tuple[float, float]:
        """The offset t with phi_N(1 + t) = 1 + u, u / alpha, and t - u formed
        as u (1 - alpha) / alpha."""
        return offset_div(u, self.alpha), offset_div(u * (1.0 - self.alpha), self.alpha)


@dataclass(frozen=True)
class NegativeBinomialThinning(_Thinning):
    """Negative binomial thinning: counting series of iid geometrics with mean alpha.

    phi_N(s) = 1 / (1 + alpha - alpha s) moves an offset t to alpha t / (1 - alpha t).
    """

    def pgf(self, s: float) -> float:
        return 1.0 / (1.0 + self.alpha - self.alpha * s)

    def innovation_variance(self, mean: float, var: float) -> float:
        """Var(e) from the marginal's mean E and variance V: (1 + a)((1 - a) V - a E)."""
        a = self.alpha
        return (1.0 + a) * ((1.0 - a) * var - a * mean)

    def draw(self, gen, x):
        """Thin the counts x with the numpy Generator gen: NB(x, 1/(1+alpha)), drawn
        as Poisson(Gamma(x, scale alpha)), which is zero at x = 0."""
        return gen.poisson(gen.gamma(x, self.alpha))

    def draw_single(self, gen, size):
        """Thin size single units with the numpy Generator gen: the offspring of one
        unit, a geometric on {0, 1, ...} with mean alpha, which numpy draws by
        search (its success probability 1/(1+alpha) is above 1/3), one uniform each."""
        return gen.geometric(1.0 / (1.0 + self.alpha), size) - 1

    def preimage(self, u: float) -> tuple[float, float]:
        """The offset t with phi_N(1 + t) = 1 + u, u / (alpha (1 + u)) (1 / alpha for u = inf),
        and t - u as u d / (alpha (1 + u)), d = (1 - alpha) - alpha u, set to 0 where it
        cancels to within DISTINCT_TOL of its terms: there u is its own preimage."""
        a = self.alpha
        if math.isinf(u):
            return offset_div(1.0, a), math.inf
        w, d = offset_div(u, 1.0 + u), (1.0 - a) - a * u
        d = 0.0 if abs(d) <= DISTINCT_TOL * max(1.0 - a, abs(a * u)) else d
        return offset_div(w, a), offset_div(w * d, a)


ThinningOperator = Union[BinomialThinning, NegativeBinomialThinning]


@dataclass(frozen=True)
class ModelSpec:
    """Marginal plus thinning operator; marginal is None for pure-innovation
    catalog entries, which behave as iid models with alpha = 0."""

    marginal: MarginalSpec | None
    thinning: ThinningOperator


def _gain(factors) -> float:
    """prod(-poles) / prod(-zeros) over the finite offsets: phi_e's leading ratio."""
    return math.prod(-p if math.isinf(z) else -1.0 / z if math.isinf(p) else p / z
                     for z, p, _ in factors)


@dataclass(frozen=True)
class InnovationLaw:
    """An innovation pgf held as root offsets t = s - 1 from the unit root.

    phi_e = prod (1 - t/zero) / (1 - t/pole) over (zero, pole, gap) triples,
    gap = pole - zero formed from the parameters (a pole next to its own zero
    keeps its relative accuracy). Left out as 1: a factor with both offsets
    infinite, or with gap 0, which the thinning's preimage gives where the
    pair agrees. The farthest pole is dropped when ulp(gain) * pole >
    max(1, 1/zero): pmf(0) would lose more to the atoms' rounding than that
    pole changes the pmf by.
    """

    factors: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        def live(factors):  # the factors that are not 1
            return tuple((z, p, g) for z, p, g in factors
                         if not (math.isinf(z) and math.isinf(p) or g == 0.0))

        kept = live(self.factors)
        zeros = [abs(z) for z, _, _ in kept if math.isfinite(z)]
        poles = [abs(p) for _, p, _ in kept if math.isfinite(p)]
        gain = abs(_gain(kept))
        if (0 < len(poles) == len(zeros) and gain > 1.0
                and math.ulp(gain) * max(poles) > max(1.0, 1.0 / min(zeros))):
            kept = live((z, math.inf if abs(p) == max(poles) else p, g) for z, p, g in kept)
        object.__setattr__(self, "factors", kept)

    @functools.cached_property
    def poles(self) -> tuple[float, ...]:
        """The finite pole offsets, ascending."""
        return tuple(sorted(p for _, p, _ in self.factors if math.isfinite(p)))

    @functools.cached_property
    def residues(self) -> tuple[float, ...]:
        """rho_j of each pole's term rho_j / (s_j - s): -gain prod_i (pole_j - zero_i) /
        prod_{k != j} (pole_j - pole_k), as its own factor's residue times the others there."""
        for a, b in zip(self.poles, self.poles[1:]):
            if b - a <= DISTINCT_TOL * max(1.0, abs(1.0 + a)):
                raise RepeatedRootsError(
                    f"innovation poles s = {1.0 + a!r} and {1.0 + b!r} are not distinct")
        rho = {}
        for j, (zj, pj, gj) in enumerate(self.factors):
            if math.isfinite(pj):  # the others' values first: the own residue can overflow
                r = math.prod((1.0 - pj / z) / (1.0 - pj / p)
                              for k, (z, p, _) in enumerate(self.factors) if k != j)
                rho[pj] = r * gj * (-pj / zj) if math.isfinite(zj) else r * pj
        return tuple(rho[p] for p in self.poles)

    def decomposition(self) -> FractionalDecomposition:
        """A term (rho_j, s_j = 1 + pole_j) per pole; atoms 0, the gain, or, with one
        zero more than poles, gain s plus the constant that makes the mass one."""
        terms = tuple((r, 1.0 + p) for r, p in zip(self.residues, self.poles))
        excess = sum(math.isfinite(z) for z, _, _ in self.factors) - len(self.poles)
        if excess > 1:
            raise GeominarError(f"innovation pgf has {excess} more zeros than poles")
        if excess < 0:
            return FractionalDecomposition(Polynomial((0.0,)), terms)
        gain = _gain(self.factors)
        const = 1.0 - sum(r / p for r, p in zip(self.residues, self.poles)) - gain
        return FractionalDecomposition(Polynomial((const, gain) if excess else (gain,)), terms)

    @functools.cached_property
    def rf(self) -> RationalFunction:
        """The factors multiplied out, for the series recursion, which reads
        coefficients, not roots; an infinite offset gives the factor 1."""
        num = den = Polynomial((1.0,))
        for z, p, _ in self.factors:
            num *= Polynomial((1.0 + 1.0 / z, -1.0 / z))
            den *= Polynomial((1.0 + 1.0 / p, -1.0 / p))
        return RationalFunction(num, den, radius=min((abs(1.0 + p) for p in self.poles),
                                                     default=math.inf))


def innovation_law(spec: ModelSpec) -> InnovationLaw:
    """phi_e = phi_X / phi_X(phi_N) from the marginal's zero z and pole p.

    phi_e = (s - z)(phi_N(s) - p) / ((s - p)(phi_N(s) - z)): one factor with
    zero z and pole preimage(z), one with zero preimage(p) and pole p.
    """
    if spec.marginal is None:
        raise InvalidParameterError("innovation_law needs a marginal; "
                                    "pure-innovation models supply their offsets directly")
    z, p = spec.marginal.offsets()
    (tz, gz), (tp, gp) = spec.thinning.preimage(z), spec.thinning.preimage(p)
    return InnovationLaw(((z, tz, gz), (tp, p, -gp)))


def innovation_pgf(spec: ModelSpec) -> RationalFunction:
    """phi_e = phi_X / phi_X(phi_N) multiplied out from its root offsets (the law's rf)."""
    return innovation_law(spec).rf
