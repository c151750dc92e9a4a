"""Shared exception types.

Every failure mode in the toolkit maps onto one of three situations: an
argument left the geometric domain of validity, an iterative solver could
not converge, or a pipeline stage could not certify its claim at the
requested tolerance.  The CLI maps these onto exit codes.
"""

from __future__ import annotations

import numbers


class DomainError(ValueError):
    """An argument lies outside the geometric domain of validity."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to bracket or converge.

    The message carries the solver state (brackets, counts) so a failed run
    can be diagnosed from the report alone.
    """


class CertificationError(RuntimeError):
    """A pipeline stage could not certify its output.

    ``stage`` names the failing stage ("weyl", "diameter", "alpha", ...) so
    multi-stage reports point at the exact place the certification broke.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _count(x, what: str, minimum: int | None = None) -> int:
    """x as a plain int when it is an integer (numpy integers included) of at
    least ``minimum``; a bool, a float such as 2.0, or a smaller value raises
    DomainError.  The library's one rule for dimension, degree, order and
    count arguments."""
    if type(x) is not int:
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            raise DomainError(f"{what} must be an integer, got {x!r}")
        x = int(x)
    if minimum is not None and x < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {x!r}")
    return x
