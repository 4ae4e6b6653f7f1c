"""Exception types shared across the package."""

from __future__ import annotations


class BeamsquintError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BeamsquintError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(BeamsquintError, ValueError):
    """A configuration value is invalid or inconsistent."""


class InfeasibleError(BeamsquintError, RuntimeError):
    """A requested design has no solution.

    ``failing_focus`` holds the beam focus angle (or chained left edge) at
    which solving first broke down, when known; for a design that built
    both sizes it is the odd size's, and ``even_focus`` the even size's.
    """

    def __init__(self, message: str, failing_focus: float | None = None,
                 even_focus: float | None = None):
        super().__init__(message)
        self.failing_focus = failing_focus
        self.even_focus = even_focus
