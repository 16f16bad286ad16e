"""Exception taxonomy shared by every module.

Two top-level families matter to callers: ValidationError for anything wrong
with inputs (bad config, malformed expression, contract violation such as a
contraction bound asked of q >= 1) and NumericalError for failures that
occur while computing (domain violations, divergent iterations, singular
systems).  The CLI maps them to exit codes 2 and 3 respectively.
"""

from numbers import Integral


class FredholmError(Exception):
    """Base class for all package errors."""


class ValidationError(FredholmError):
    """Invalid input: configuration, arguments, or contract violations."""


def as_count(value, least: int, name: str) -> int:
    """``value`` as a Python int, refused unless it is an integer (a numpy
    integer too, but not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < least):
        raise ValidationError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class ExprSyntaxError(ValidationError):
    """Malformed expression text.  Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnboundVariableError(ValidationError):
    """Expression evaluated without a binding for one of its variables."""


class NumericalError(FredholmError):
    """Failure while computing (exit code 3 in the CLI)."""


class DomainError(NumericalError):
    """A user function undefined or not finite at a point: log of a
    non-positive value, sqrt of a negative value, zero raised to a
    negative power, division by zero, or an overflowing or NaN sample.
    Raised from one sampler, which names the function and the point."""


class DivergenceError(NumericalError):
    """Iteration produced a non-finite value, or its map residual
    ||T h - h|| ended above where it started."""


class SingularSystemError(NumericalError):
    """Direct solve hit a singular or numerically singular matrix."""
