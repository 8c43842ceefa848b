"""Exception hierarchy shared by the library and the command line tool.

Each exception carries an optional ``context`` dict with the numbers that
explain the failure (parameters, residuals, mismatched counts).  The CLI
serializes that dict when reporting errors, so anything placed in it must be
JSON friendly.
"""

from __future__ import annotations

import numbers


class HenonMorseError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.message = message
        self.context = dict(context) if context else {}


class NonConvergenceError(HenonMorseError):
    """A numerical procedure failed to reach its accuracy or stability target.

    Raised when integration breaks down, a zero count does not stabilize
    under domain growth, eigenvalues do not settle under mesh refinement,
    or a computed object violates one of its construction invariants.
    """


class ThresholdTieError(NonConvergenceError):
    """The sign of some lambda_j + k^2 cannot be decided at the working
    tolerance; ``context`` holds the eigenvalues, the scaled tie distance
    and the eig_tol of the last pass."""


class VerificationError(HenonMorseError):
    """A mathematical consistency check failed.

    This is the serious one: the computation converged but the result
    contradicts an identity or inequality that must hold.  Instances carry
    the full evidence in ``context``.
    """


class TwoRouteError(VerificationError):
    """Two independent computations of the same quantity disagree.

    ``context`` holds both routes' intermediate output (eigenvalues,
    per-mode counts) so the discrepancy can be diagnosed offline.
    """


class UsageError(HenonMorseError):
    """Bad command line arguments or an invalid parameter combination."""


class SchemaError(UsageError):
    """A value that cannot be written as canonical JSON or CSV.

    The message names the value or field and the expectation it violated.
    """


def integer_at_least(value, lowest: int, name: str) -> int:
    """``value`` as an int, when it is an integer (any ``numbers.Integral``
    but a bool, so numpy integers pass and True does not) at least
    ``lowest``; UsageError otherwise."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= lowest):
        raise UsageError(f"{name} must be an integer >= {lowest}, got {value!r}")
    return int(value)
