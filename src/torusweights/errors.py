"""Exception types shared across the package."""


class InputError(ValueError):
    """A precondition on user-supplied data was violated."""


class HomogeneityError(InputError):
    """A matrix entry or polynomial fails the required homogeneity constraint."""


class MinimalityError(InputError):
    """A map that must be minimal (its columns minimally generating the image) is not."""


class SingularMatrixError(InputError):
    """A scalar matrix that must be invertible is singular."""


class DependentColumnsError(InputError):
    """The coefficient matrix of a linear system has linearly dependent columns."""


class ResolutionStepError(MinimalityError):
    """Propagation along a resolution failed at one step.

    Carries `step` (the homological index that could not be computed) and
    `partial` (a tuple of weight lists, one slot per free module, with None
    at the indices that were never reached).
    """

    def __init__(self, message, step, partial):
        super().__init__(message)
        self.step = step
        self.partial = partial


class InternalError(Exception):
    """An invariant of the library's own algorithms failed; not the caller's fault."""


class PolynomialSyntaxError(ValueError):
    """Bad polynomial text; `position` is the 0-based offset of the offence."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ProblemFileError(ValueError):
    """A problem description file is malformed or has dangling references."""
