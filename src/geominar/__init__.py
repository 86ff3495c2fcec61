"""geominar: INAR(1) count models with geometric-type marginals.

Builds the innovation distribution of a first-order integer-valued
autoregression from the rational quotient of its marginal and thinned pgfs,
by partial-fraction decomposition into point masses plus signed geometric
terms; simulates exact stationary trajectories; and verifies every closed
form against independent recursion and Monte Carlo oracles.
"""
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
    DegenerateModelError,
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
    ModelSpec,
    NegativeBinomialThinning,
    RhoGeometric,
    counting_pgf,
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
from .simulate import RngStream, SeriesSample, apply_thinning, sample_innovation, simulate_series
from .verify import (
    CheckResult,
    VerificationReport,
    check_cross_method,
    check_moments,
    check_pgf_identity,
    check_pmf_validity,
    check_tail_quality,
    run_all_checks,
)

__version__ = "0.3.0"
