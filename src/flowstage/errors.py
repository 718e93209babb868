"""Exception types shared across the package, and the shared type checks
for settings."""

import math
import numbers


class ShapeError(ValueError):
    """An array argument has the wrong shape or an inconsistent dimension."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation."""


class RolloutError(RuntimeError):
    """A sampling rollout produced a non-finite state."""


class ConfigError(ValueError):
    """A run configuration failed validation.

    Carries one message per offending field in ``details``.
    """

    def __init__(self, details):
        if isinstance(details, str):
            details = [details]
        self.details = list(details)
        super().__init__("; ".join(self.details))


def require_int(name: str, value) -> None:
    """Raise DomainError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def require_number(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a finite real number; a bool
    is not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
