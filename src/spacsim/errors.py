"""Exception hierarchy shared by all spacsim modules."""


class SpacsimError(Exception):
    """Base class for every error raised by this package."""


class RangeError(SpacsimError, ValueError):
    """A scenario parameter is outside its allowed range.

    ``field`` names the offending parameter, or a range's parameters joined by "/".
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DegeneratePostselection(SpacsimError, ValueError):
    """Pre- and postselected states are orthogonal (phi >= pi).

    The weak value diverges and the conditioned pointer state is undefined
    without renormalising the postselection branch, so this is rejected
    rather than treated as a limit.
    """


class TruncationTooSmall(SpacsimError):
    """A state carries non-negligible weight in the top Fock levels.

    Raised by any operation whose output would be distorted by the
    truncation boundary.
    """


class DimensionMismatch(SpacsimError, ValueError):
    """Two states live in truncated spaces of different dimension."""


class NonPositiveNorm(SpacsimError):
    """A printed normalisation expression evaluated to a value <= 0."""


class NumericalOverflow(SpacsimError, ArithmeticError):
    """A closed-form expression overflowed a double.

    The printed formulas are evaluated as written, so at extreme
    parameters (a coupling of 1e200, say) an intermediate term exceeds
    the double range; the result is a numerical failure, not bad input.
    """
