"""Model components and their registry entries.

One tiny ViT stands in for every vision tower family and one tiny decoder
for every LLM family; registered names plus configs are what distinguish
them. Connector names match the five supported kinds exactly.
"""

from ..registry import register_component
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
    return VisionTower(VisionTowerConfig.from_dict(cfg or {}), rng)


def _make_llm(cfg, rng):
    return LanguageModel(LLMConfig.from_dict(cfg or {}), rng)


for _name in VISION_TOWER_NAMES:
    register_component("vision", _name, _make_vision)
for _name in LLM_NAMES:
    register_component("llm", _name, _make_llm)
for _kind, _cls in CONNECTOR_CLASSES.items():
    register_component(
        "connector", _kind,
        lambda cfg, rng=None, _c=_cls: _c(ConnectorConfig.from_dict(cfg or {}), rng))

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
