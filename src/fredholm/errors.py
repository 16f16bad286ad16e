"""Exception taxonomy shared by every module.

Two top-level families matter to callers: ValidationError for anything wrong
with inputs (bad config, malformed expression, contract violation such as a
contraction bound asked of q >= 1) and NumericalError for failures that
occur while computing (domain violations, divergent iterations, singular
systems).  The CLI maps them to exit codes 2 and 3 respectively.
"""

from decimal import Decimal
from math import isfinite
from numbers import Integral, Real


class FredholmError(Exception):
    """Base class for all package errors."""


class ValidationError(FredholmError):
    """Invalid input: configuration, arguments, or contract violations."""


def _refuse(value, name: str, rule: str):
    try:
        shown = repr(value)
    except ValueError:  # an int past the interpreter's str digit limit
        shown = f"{Decimal(value):.3e}"
    raise ValidationError(f"{name} must be {rule}, got {shown}")


def as_count(value, least: int, name: str) -> int:
    """``value`` as a Python int, refused unless it is an integer (a numpy
    integer too, but not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < least):
        _refuse(value, name, f"an integer >= {least}")
    return int(value)


def as_number(value, name: str) -> float:
    """``value`` as a finite Python float, refused unless it is a real
    number (an int, float, Fraction or numpy real scalar, but not a bool)
    that a float holds finitely."""
    # the builtins first: a float judged by the Real ABC alone took ~4x as long
    if isinstance(value, (float, int, Real)) and not isinstance(value, bool):
        try:
            if isfinite(number := float(value)):
                return number
        except OverflowError:  # an int or Fraction past a float's range
            pass
    _refuse(value, name, "a finite number")


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
