"""Exception hierarchy shared across the package."""


class PolyflatError(Exception):
    """Base class for all errors raised by polyflat."""


class InvalidInputError(PolyflatError):
    """Malformed or dimensionally inconsistent input."""


class EmptyFaceError(PolyflatError):
    """The requested facet index set does not cut out a nonempty face."""


class DomainError(PolyflatError):
    """A point lies outside the domain of the requested evaluation."""


class FaceBoundaryError(DomainError):
    """A face-interior computation ran into the relative boundary of the face."""


class NumericalError(PolyflatError):
    """An iterative numerical procedure failed to converge.

    A failed Newton solve also reports its row's status and step count.
    """

    def __init__(self, message, residual=None, status=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.status = status
        self.iterations = iterations


class NoSolutionError(NumericalError):
    """The target of a gradient-map inversion is not attained on the domain."""


class NotTorifiableError(PolyflatError):
    """The polytope cannot carry a mixture family (zero-sum condition fails)."""


class DegenerateError(PolyflatError):
    """Degenerate data, e.g. a region with no vertex or no interior point, or no positive offset sum."""
