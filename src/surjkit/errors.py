"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class StructuralError(ValueError):
    """Arities or shapes of composed objects do not line up."""


class ResourceError(RuntimeError):
    """A configured cap (depth, bracket expansion, target budget) was hit."""


class NoSolutionError(ValueError):
    """The equation has no solution (e.g. solving against the zero span)."""


class DegenerateMemberError(ValueError):
    """A vector span member has a coordinate that cancels to the zero span.

    Carries the 0-based index of the first vanishing coordinate.
    """

    def __init__(self, coordinate: int):
        self.coordinate = coordinate
        super().__init__(
            f"member is degenerate at coordinate {coordinate + 1}: the reduced "
            f"span of that coordinate is the zero function (see detect_degenerate)"
        )


class RefinementError(RuntimeError):
    """The forward check of a preimage witness measured a residual above
    the tolerance. Forward evaluation is exact through every curve stage,
    so this signals a bug rather than a depth to retry with."""
