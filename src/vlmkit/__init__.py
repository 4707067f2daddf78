"""Desk-scale modular vision-language models.

Small multimodal models are composed from interchangeable vision towers,
connectors, and language models via a component registry, and trained on
synthetic VQA data with a float32 numpy autodiff engine.
"""

__version__ = "0.1.0"

from . import numerics
from .numerics import Rng, Tensor

__all__ = ["Rng", "Tensor", "numerics", "__version__"]
