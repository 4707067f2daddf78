"""Exception hierarchy shared across the package."""


class VlmkitError(Exception):
    """Base class for all package errors."""


class ValidationError(VlmkitError, ValueError):
    """Invalid input data, configuration, or API usage."""


class DimensionError(ValidationError):
    """Tensor or component shapes are incompatible."""


class RegistryError(ValidationError):
    """Unknown component name or conflicting registration."""


class ConfigError(ValidationError):
    """One or more problems in a run configuration.

    Collects every message so a bad config is reported in full, not
    first-error-only.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class NumericError(VlmkitError, ArithmeticError):
    """Non-finite loss or other numeric failure during training."""
