"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AffwalkError",
    "ConfigError",
    "BudgetError",
    "StabilizationError",
    "DegenerateMeasureError",
]


class AffwalkError(Exception):
    """Base class for package-specific failures."""


class ConfigError(AffwalkError):
    """Invalid measure or experiment configuration."""


class BudgetError(AffwalkError):
    """A resource budget (table cells, integer bit size) was exceeded."""

    def __init__(self, message: str, reached: int | None = None):
        super().__init__(message)
        self.reached = reached


class StabilizationError(AffwalkError):
    """A walk failed to stabilize within its step cap."""

    def __init__(self, message: str, steps: int | None = None):
        super().__init__(message)
        self.steps = steps


class DegenerateMeasureError(AffwalkError):
    """A degenerate step distribution was passed where forbidden."""
