"""Marginal, counting-series and innovation probability generating functions.

The stationary law of an INAR(1) process X_t = a (.) X_{t-1} + e_t ties three
pgfs together: phi_X(s) = phi_X(phi_N(s)) * phi_e(s), where phi_N is the pgf
of the thinning counting series. Given a rational marginal pgf and an affine
or Moebius counting pgf, the innovation pgf is the rational quotient
phi_X(s) / phi_X(phi_N(s)); this module builds all three as RationalFunction
values.

Each marginal family is one dataclass holding its closed forms: pgf(),
mean(), variance(), pmf(k), and geometric_form() = (atom, body, shift,
ratio), which says that the law is an atom at zero plus, with probability
body = 1 - atom, shift plus a geometric on {0,1,...} with failure ratio
ratio. The sampler inverts that form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DegenerateModelError, DomainViolationError, InvalidParameterError
from .polyrat import (
    Polynomial,
    RationalFunction,
    cancel,
    compose_mobius,
    min_denominator_root_magnitude,
)


@dataclass(frozen=True)
class Geometric:
    """Geometric marginal on {0,1,...}: Pr[X=m] = (1-theta)^m * theta."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise InvalidParameterError(f"Geometric requires theta in (0,1), got {self.theta!r}")

    def pgf(self) -> RationalFunction:
        q = 1.0 - self.theta
        return RationalFunction(Polynomial((self.theta,)), Polynomial((1.0, -q)),
                                radius=1.0 / q, pgf=True)

    def mean(self) -> float:
        return (1.0 - self.theta) / self.theta

    def variance(self) -> float:
        q = 1.0 - self.theta
        return q / (self.theta * self.theta)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return (1.0 - self.theta) ** k * self.theta

    def geometric_form(self) -> tuple[float, float, int, float]:
        return 0.0, 1.0, 0, 1.0 - self.theta


@dataclass(frozen=True)
class GeometricMean:
    """Geometric marginal parameterized by its mean mu: Pr[X=m] = (mu/(1+mu))^m / (1+mu)."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise InvalidParameterError(f"GeometricMean requires mu > 0, got {self.mu!r}")

    def pgf(self) -> RationalFunction:
        return RationalFunction(Polynomial((1.0,)), Polynomial((1.0 + self.mu, -self.mu)),
                                radius=(1.0 + self.mu) / self.mu, pgf=True)

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
class RhoGeometric:
    """Zero-inflated (rho-)geometric marginal with mean mu/(1-rho).

    Pr[X=m] = rho/(mu+rho) at 0 plus the complementary geometric component
    with ratio (mu+rho)/(1+mu).
    """

    mu: float
    rho: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise InvalidParameterError(f"RhoGeometric requires mu > 0, got {self.mu!r}")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidParameterError(f"RhoGeometric requires rho in [0,1), got {self.rho!r}")

    def pgf(self) -> RationalFunction:
        num = Polynomial((1.0, -self.rho))
        den = Polynomial((1.0 + self.mu, -(self.rho + self.mu)))
        return RationalFunction(num, den, radius=(1.0 + self.mu) / (self.rho + self.mu),
                                pgf=True)

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
class HurdleGeometric:
    """Hurdle geometric marginal: 1-mu at zero, shifted geometric above.

    Pr[X=0] = 1-mu and Pr[X=m] = mu * (rho/(1+rho))^(m-1) / (1+rho) for m >= 1.
    """

    mu: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise InvalidParameterError(f"HurdleGeometric requires mu in (0,1), got {self.mu!r}")
        if not 0.0 < self.rho < 1.0:
            raise InvalidParameterError(f"HurdleGeometric requires rho in (0,1), got {self.rho!r}")

    def pgf(self) -> RationalFunction:
        k = self.mu + self.mu * self.rho - self.rho
        num = Polynomial((1.0 - k, k))
        den = Polynomial((1.0 + self.rho, -self.rho))
        return RationalFunction(num, den, radius=(1.0 + self.rho) / self.rho, pgf=True)

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
class BinomialThinning:
    """Binomial thinning: counting series of iid Bernoulli(alpha) variables."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidParameterError(f"thinning requires alpha in [0,1), got {self.alpha!r}")


@dataclass(frozen=True)
class NegativeBinomialThinning:
    """Negative binomial thinning: counting series of iid geometrics with mean alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidParameterError(f"thinning requires alpha in [0,1), got {self.alpha!r}")


ThinningOperator = Union[BinomialThinning, NegativeBinomialThinning]


@dataclass(frozen=True)
class ModelSpec:
    """Marginal plus thinning operator; marginal is None for pure-innovation
    catalog entries, which behave as iid models with alpha = 0."""

    marginal: MarginalSpec | None
    thinning: ThinningOperator


def counting_pgf(t: ThinningOperator) -> RationalFunction:
    """Pgf of one counting-series variable: affine for binomial thinning,
    Moebius 1/(1+alpha-alpha*s) for negative binomial thinning."""
    a = t.alpha
    if isinstance(t, BinomialThinning):
        return RationalFunction(Polynomial((1.0 - a, a)), Polynomial((1.0,)),
                                radius=math.inf, pgf=True)
    if isinstance(t, NegativeBinomialThinning):
        if a == 0.0:
            return RationalFunction(Polynomial((1.0,)), Polynomial((1.0,)),
                                    radius=math.inf, pgf=True)
        return RationalFunction(Polynomial((1.0,)), Polynomial((1.0 + a, -a)),
                                radius=(1.0 + a) / a, pgf=True)
    raise InvalidParameterError(f"unknown thinning kind {type(t).__name__}")


def innovation_pgf(spec: ModelSpec) -> RationalFunction:
    """Innovation pgf phi_e = phi_X / phi_X(phi_N) as a cancelled rational.

    The validity radius of the result is the smallest denominator root
    magnitude; evaluation beyond it raises rather than extrapolates.
    """
    if spec.marginal is None:
        raise InvalidParameterError("innovation_pgf needs a marginal; "
                                    "pure-innovation models supply their pgf directly")
    phi_x = spec.marginal.pgf()
    phi_n = counting_pgf(spec.thinning)
    composed = compose_mobius(phi_x, phi_n)
    quotient = RationalFunction(phi_x.num * composed.den, phi_x.den * composed.num,
                                radius=math.inf, pgf=True)
    rf = cancel(quotient)
    radius = min_denominator_root_magnitude(rf.den)
    rf = RationalFunction(rf.num, rf.den, radius=radius, pgf=True)
    for i in range(33):
        if rf.den(i / 32.0) <= 0.0:
            raise DomainViolationError("innovation denominator vanishes on [0, 1]")
    if rf.is_constant():
        if spec.thinning.alpha > 0.0:
            raise DegenerateModelError("innovation collapsed to a point mass at zero "
                                       "while alpha > 0")
    if rf.num(0.0) >= 1.0 and rf.num.degree + rf.den.degree > 0:
        raise DegenerateModelError(f"innovation pgf at 0 is {rf.num(0.0)!r} >= 1")
    return rf
