"""Model components and their registry entries.

One tiny ViT stands in for every vision tower family and one tiny decoder
for every LLM family; registered names plus configs are what distinguish
them. Connector names match the five supported kinds exactly.
"""

from ..registry import registry
from .connectors import (
    CONNECTOR_CLASSES,
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

VISION_TOWER_NAMES = ("clip_tiny", "siglip_tiny", "dino_tiny")
LLM_NAMES = ("phi_tiny", "gemma_tiny", "llama_tiny")


def _make_vision(cfg, rng):
    return VisionTower(config_from_dict(VisionTowerConfig, cfg), rng)


def _make_llm(cfg, rng):
    return LanguageModel(config_from_dict(LLMConfig, cfg), rng)


for _name in VISION_TOWER_NAMES:
    registry.register("vision", _name, _make_vision)
for _name in LLM_NAMES:
    registry.register("llm", _name, _make_llm)
for _kind, _cls in CONNECTOR_CLASSES.items():
    registry.register(
        "connector", _kind,
        lambda cfg, rng=None, _c=_cls: _c(config_from_dict(ConnectorConfig, cfg), rng))

__all__ = [
    "CONNECTOR_CLASSES",
    "Connector",
    "ConnectorConfig",
    "DualTower",
    "FeedForward",
    "IdentityConnector",
    "LLMConfig",
    "LLM_NAMES",
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
    "VISION_TOWER_NAMES",
    "VisionTower",
    "VisionTowerConfig",
    "build_model",
    "compose_multimodal",
    "generate",
    "patchify",
    "resolve_model_config",
    "sequence_loss",
]
