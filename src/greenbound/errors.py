"""Exception hierarchy shared by all greenbound modules."""


class GreenboundError(Exception):
    """Base class for all greenbound errors."""


class NotTriangular(GreenboundError):
    """Input matrix has a subdiagonal entry above the triangularity tolerance."""


class NotStrictlyTriangular(GreenboundError):
    """Matrix expected to have a zero diagonal does not."""


class ConvergenceFailure(GreenboundError):
    """An iterative algorithm did not converge within its iteration budget."""


class FloatOverflow(GreenboundError):
    """A result does not fit in the floating-point range."""


class SpectrumOnAxis(GreenboundError):
    """An eigenvalue lies on (or numerically on) the imaginary axis; the
    bounded-solutions problem is ill-posed."""


class UndefinedAtZero(GreenboundError):
    """The Green's function and its bounds are undefined at t = 0."""


class SingularResolvent(GreenboundError):
    """A contour node fell too close to an eigenvalue."""


class Inapplicable(GreenboundError):
    """A bound's hypotheses are not met for the given data."""


class DomainError(GreenboundError, ValueError):
    """Scalar argument outside the mathematical domain of the function."""
