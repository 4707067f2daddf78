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
    QueryConfig,
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

def _from_config(cls, config_cls):
    """The registry factory of `cls`: a config dict checked as `config_cls`, then the
    rest of the arguments (the init stream) as given. The factory names
    `config_cls` as its `config_class`, which `resolve_model_config` parses with."""
    def create(cfg, *args):
        return cls(config_from_dict(config_cls, cfg), *args)
    create.config_class = config_cls
    return create


registry.register("vision", "clip_tiny", _from_config(VisionTower, VisionTowerConfig))
# The clip_tiny tower under a second name, kept only because the benchmark's
# ALIGN_CONFIG names it as its second (MoF) tower.
registry.register("vision", "dino_tiny", _from_config(VisionTower, VisionTowerConfig))
registry.register("llm", "phi_tiny", _from_config(LanguageModel, LLMConfig))
for _cls in (IdentityConnector, LinearConnector, MlpConnector, ResamplerConnector,
             QFormerConnector):
    registry.register("connector", _cls.kind, _from_config(_cls, _cls.config_class))

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
    "QueryConfig",
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
