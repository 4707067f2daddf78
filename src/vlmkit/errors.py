"""Exception hierarchy shared across the package."""


class VlmkitError(Exception):
    """Base class for all package errors."""


class ValidationError(VlmkitError, ValueError):
    """Invalid input data, configuration, or API usage."""


class DimensionError(ValidationError):
    """Tensor or component shapes are incompatible."""


class RegistryError(ValidationError):
    """Unknown component name or conflicting registration."""


class NumericError(VlmkitError, ArithmeticError):
    """Non-finite loss or other numeric failure during training."""
