"""Shared exception types and the library's argument rules.

Every failure mode in the toolkit maps onto one of three situations: an
argument left the geometric domain of validity, an iterative solver could
not converge, or a pipeline stage could not certify its claim at the
requested tolerance.  All three share one base class whose ``stage`` names
the situation; the CLI maps them onto one exit code.
"""

from __future__ import annotations

import math
import numbers


class OrbispecError(Exception):
    """A library failure; ``stage`` names where it happened."""

    stage: str


class DomainError(OrbispecError, ValueError):
    """An argument lies outside the geometric domain of validity."""

    stage = "domain"


class ConvergenceError(OrbispecError, RuntimeError):
    """An iterative solver failed to bracket or converge.

    The message carries the solver state (brackets, counts) so a failed run
    can be diagnosed from the report alone.
    """

    stage = "convergence"


class CertificationError(OrbispecError, RuntimeError):
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


def _real(x, what: str) -> float:
    """x as a float when it is a real number (numpy scalars included; an int
    past every float counts as infinite); a bool or a non-real raises
    DomainError.  The type test under the magnitude and truncation rules."""
    if type(x) is not float:
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise DomainError(f"{what} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:  # an int past every float
            x = math.inf
    return x


def _positive(x, what: str) -> float:
    """x as a float when it is a finite real number > 0 (numpy scalars
    included); a bool, a non-real, NaN, an infinity, zero or a negative value
    raises DomainError.  The library's one rule for volume, diameter, radius,
    ell and eps arguments."""
    x = _real(x, what)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {x!r}")
    return x
