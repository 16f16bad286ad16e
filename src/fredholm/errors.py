"""Exception taxonomy shared by every module.

Two top-level families matter to callers: ValidationError for anything wrong
with inputs (bad config, malformed expression, contract violation) and
NumericalError for failures that occur while computing (domain violations,
divergent iterations, singular systems).  The CLI maps them to exit codes
2 and 3 respectively.
"""


class FredholmError(Exception):
    """Base class for all package errors."""


class ValidationError(FredholmError):
    """Invalid input: configuration, arguments, or contract violations."""


class ExprSyntaxError(ValidationError):
    """Malformed expression text.  Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnboundVariableError(ValidationError):
    """Expression evaluated without a binding for one of its variables."""


class BoundUnavailableError(ValidationError):
    """A contraction-based bound was requested but q >= 1."""


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
