"""Exception and warning types shared across the library."""


class SplitQuaternionError(Exception):
    """Base class for all library errors."""


class ParseError(SplitQuaternionError):
    """Malformed quaternion literal; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ZeroInputError(SplitQuaternionError):
    """Operation requires a nonzero quaternion."""


class NotLightlikeError(SplitQuaternionError):
    """Operation requires a zero divisor (quadratic form zero)."""


class NotInvertibleError(SplitQuaternionError):
    """Ordinary inverse requested for a zero divisor."""


class RealInputError(SplitQuaternionError):
    """Operation is only defined for non-real quaternions."""


class NonFiniteError(SplitQuaternionError):
    """A float-backend value, or its quadratic form, is not finite, or an exact value leaves the float range."""


class IllConditionedWarning(UserWarning):
    """Quadratic form close enough to the branch cutoff to be unreliable."""


class ExactnessWarning(UserWarning):
    """Exact input had to be converted to floats to proceed."""
