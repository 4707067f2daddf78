"""Exception hierarchy shared across the package."""

from numbers import Integral
from typing import Optional


class VlmkitError(Exception):
    """Base class for all package errors."""


class ValidationError(VlmkitError, ValueError):
    """Invalid input data, configuration, or API usage."""


class DimensionError(ValidationError):
    """Tensor or component shapes are incompatible."""


class RegistryError(ValidationError):
    """Unknown component name or conflicting registration."""


def require_int(name: str, value, low: Optional[int] = None) -> int:
    """`value` as an int when it is an integer (numpy's too, a bool never) of at
    least `low`; anything else is a ValidationError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
