"""geominar: INAR(1) count models with geometric-type marginals.

Builds the innovation distribution of a first-order integer-valued
autoregression from the rational quotient of its marginal and thinned pgfs,
whose roots it carries as offsets from s = 1, as point masses plus signed
geometric terms; simulates exact stationary trajectories; and verifies every closed
form against independent recursion and Monte Carlo oracles.
"""
import importlib

from .catalog import (
    MODEL_NAMES,
    Constraint,
    DispersionClass,
    INARModel,
    Moments,
    build_model,
    closed_form_moments,
    dispersion_class,
    validate_params,
)
from .decompose import (
    FractionalDecomposition,
    HurdleForm,
    InnovationDistribution,
    decomposition_to_hurdle,
    hurdle_pmf,
    linear_closed_form,
    partial_fractions,
    pmf_from_decomposition,
    pmf_recursive,
    quadratic_closed_form,
    tail_geometric_approx,
)
from .errors import (
    ComplexRootsError,
    ConstraintViolationError,
    DomainViolationError,
    GeominarError,
    InvalidParameterError,
    NegativeProbabilityError,
    NoGeometricTermsError,
    RepeatedRootsError,
    RootInsideDiskError,
    ValidityViolationError,
    ZeroDivisorError,
)
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
    innovation_pgf,
)
from .polyrat import (
    Polynomial,
    RationalFunction,
    cancel,
    compose_mobius,
    poly_divmod,
    real_distinct_roots,
)

# the sampler and the checks import numpy: load them on first use, so that
# derive and catalog start without it (PEP 562)
_LAZY = {
    **dict.fromkeys(("RngStream", "SeriesSample", "sample_innovation", "simulate_series"),
                    "simulate"),
    **dict.fromkeys(("CheckResult", "VerificationReport", "check_cross_method",
                     "check_moments", "check_pgf_identity", "check_pmf_validity",
                     "check_tail_quality", "run_all_checks"), "verify"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.6.3"
