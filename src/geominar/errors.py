"""Exception hierarchy for geominar.

Every library error derives from GeominarError so callers can catch one
type at the boundary (the CLI maps them all to exit code 2).
"""


class GeominarError(Exception):
    """Base class for all geominar errors."""


class InvalidParameterError(GeominarError, ValueError):
    """A distribution or model parameter violates its domain constraint."""


class ConstraintViolationError(InvalidParameterError):
    """A closed-form construction received coefficients outside its preconditions.

    The message names the violated restriction.
    """


class ValidityViolationError(InvalidParameterError):
    """Model parameters fall outside the validity region of the catalog entry."""


class ZeroDivisorError(GeominarError, ZeroDivisionError):
    """Polynomial division by zero, or by a lead too small for a finite quotient."""


class DomainViolationError(GeominarError, ValueError):
    """Evaluation or composition left the guaranteed validity region."""


class ComplexRootsError(GeominarError, ArithmeticError):
    """A polynomial expected to have real roots has a complex pair."""


class RepeatedRootsError(GeominarError, ArithmeticError):
    """Denominator roots are not distinct within tolerance."""


class RootInsideDiskError(GeominarError, ValueError):
    """A denominator root s_i <= 1; the associated geometric series diverges."""


class NegativeProbabilityError(GeominarError, ValueError):
    """A derived probability mass is negative beyond tolerance."""


class DegenerateModelError(GeominarError, ValueError):
    """The innovation law collapsed to a point mass despite active thinning."""


class NoGeometricTermsError(GeominarError, ValueError):
    """The decomposition has no geometric terms, so there is no tail to approximate."""
