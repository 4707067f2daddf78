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


class naming:
    """Context manager prefixing any VlmkitError raised inside with `key`, the
    record, sample, conversation or component it is about; the error keeps
    its type. A class, not a generator, since it wraps every tokenization."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, VlmkitError):
            raise type(exc)(f"{self.key}: {exc}") from None
        return False


def path_error(path, verb: str, exc: Exception) -> ValidationError:
    """The ValidationError, naming `path`, for the OS layer's refusal to `verb`
    it: an OSError, or a ValueError for a path no OS call takes, one holding a
    NUL or a character UTF-8 cannot encode (a lone surrogate)."""
    if isinstance(exc, OSError):
        return ValidationError(f"{path}: cannot {verb} ({exc.strerror})")
    if isinstance(exc, UnicodeEncodeError):
        return ValidationError(f"{path!r}: cannot {verb}, the path holds "
                               f"{exc.object[exc.start]!r}, which UTF-8 cannot encode")
    return ValidationError(f"{path!r}: cannot {verb} ({exc})")


def require_int(name: str, value, low: Optional[int] = None) -> int:
    """`value` as an int when it is an integer (numpy's too, a bool never) of at
    least `low`; anything else is a ValidationError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
