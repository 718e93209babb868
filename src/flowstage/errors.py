"""Exception types shared across the package, and the shared type checks
for settings and condition arrays."""

import math
import numbers

import numpy as np


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


def class_indices(conditions, count: int, num_classes: int | None) -> np.ndarray:
    """``conditions``, one class for all ``count`` rows or one per row, as
    a new ``(count,)`` int64 array.

    Raises ShapeError for any other shape, and DomainError unless every
    value is an integer (a bool or a float is not one) in
    ``[0, num_classes)``; ``num_classes`` None checks only the type.
    """
    values = np.asarray(conditions)
    if values.shape not in ((), (count,)):
        raise ShapeError(f"need one condition or {count}, got shape {values.shape}")
    if values.dtype.kind not in "iu":
        raise DomainError(f"conditions must be integers, got {conditions!r}")
    if num_classes is not None and ((values < 0) | (values >= num_classes)).any():
        raise DomainError(f"condition {conditions} out of range")
    if values.ndim == 0:
        return np.full(count, values, dtype=np.int64)
    return values.astype(np.int64)
