"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to handle has its own class so
that the CLI can map families of errors onto exit codes without string
matching.  ``whole_number`` is the package's check of a count argument.
"""

from __future__ import annotations

__all__ = [
    "HenonLabError",
    "DomainError",
    "LadderError",
    "BracketError",
    "ConvergenceError",
    "BranchError",
    "NonMonotoneError",
    "ProductError",
    "WordError",
    "TangencyError",
    "NoCrossingError",
    "whole_number",
]


class HenonLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HenonLabError):
    """A parameter or point lies outside the validity domain of an operation."""


class LadderError(HenonLabError):
    """A ladder rung does not exist (negative radicand at this parameter)."""


class BracketError(HenonLabError):
    """A root bracket does not enclose a sign change."""


class ConvergenceError(HenonLabError):
    """An iterative solver failed to converge within its iteration cap."""


class BranchError(HenonLabError):
    """A chain factor cannot be seeded (negative radicand on the branch)."""


class NonMonotoneError(HenonLabError):
    """A shooting slice is not monotone; the cone condition fails there."""


class ProductError(HenonLabError):
    """A star product is undefined: the image does not cover the next factor."""


class WordError(HenonLabError):
    """A word string is malformed.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class TangencyError(HenonLabError):
    """Tangency data is degenerate (quadratic coefficient too small)."""


class NoCrossingError(HenonLabError):
    """Two tangency-defect curves do not cross over the searched bracket.

    Carries curve samples for diagnostics.
    """

    def __init__(self, message: str, samples=None):
        super().__init__(message)
        self.samples = samples if samples is not None else []


def whole_number(name: str, value) -> int:
    """``value`` as an int; a ``DomainError`` unless it is whole, as 64 and 64.0 are."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a whole number, got {value!r}")
