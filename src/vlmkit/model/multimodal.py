"""Composing vision, connector, and language model into one system.

A multimodal sequence is the text token embeddings with the single image
placeholder position replaced by the connector's output tokens. The
next-token shift happens exactly once, in `sequence_loss`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.conversations import Conversation, ROLE_ASSISTANT, Turn
from ..data.labeling import TokenizedSample, tokenize_prompt
from ..data.tokenizer import EOS_ID, ByteTokenizer
from ..errors import ValidationError
from ..numerics import Rng, Tensor, concat, masked_cross_entropy, narrow, no_grad
from ..numerics.ops import IGNORE_INDEX
from ..registry import registry
from .connectors import Connector, ConnectorConfig, CONNECTOR_CLASSES
from .layers import Module
from .llm import LanguageModel, LLMConfig
from .vision import DualTower, VisionTower, VisionTowerConfig

_TOKENIZER = ByteTokenizer()


class MultimodalModel(Module):
    def __init__(self, vision, connector: Connector, llm: LanguageModel,
                 template_name: str, seed: int, config: dict,
                 image_aspect_ratio: str = "square"):
        self.vision = vision
        self.connector = connector
        self.llm = llm
        self._template_name = template_name
        self._seed = seed
        self._config = config
        self._image_aspect_ratio = image_aspect_ratio

    @property
    def template_name(self) -> str:
        return self._template_name

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def config(self) -> dict:
        return self._config

    @property
    def image_aspect_ratio(self) -> str:
        return self._image_aspect_ratio

    @property
    def image_size(self) -> int:
        return self.vision.config.image_size

    def components(self) -> Dict[str, Module]:
        return {"vision": self.vision, "connector": self.connector, "llm": self.llm}

    def encode_image(self, image: np.ndarray) -> Tensor:
        return self.connector(self.vision(image))

    def template(self):
        return registry.create("template", self._template_name)

    def config_hash(self) -> str:
        blob = json.dumps({"model": self._config, "seed": self._seed}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def compose_multimodal(ids: np.ndarray, labels: Optional[np.ndarray],
                       image_embeds: Optional[Tensor], image_token_index: Optional[int],
                       llm: LanguageModel) -> Tuple[Tensor, Optional[np.ndarray], np.ndarray]:
    """Embed text ids, splicing image tokens in at the placeholder position.

    Returns (embeds [T', d], labels [T'] or None, positions [T']). Labels stay
    aligned with their input positions (`sequence_loss` shifts them); positions
    covering the image carry IGNORE_INDEX.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if (image_embeds is None) != (image_token_index is None):
        raise ValidationError("image embeddings and placeholder index must come together")
    if image_embeds is None:
        embeds = llm.embed_ids(ids)
        out_labels = None if labels is None else np.asarray(labels, dtype=np.int32)
        return embeds, out_labels, np.arange(len(ids))

    idx = int(image_token_index)
    if not 0 <= idx < len(ids):
        raise ValidationError(f"image token index {idx} outside sequence of length {len(ids)}")
    m = image_embeds.shape[0]
    parts: List[Tensor] = []
    if idx > 0:
        parts.append(llm.embed_ids(ids[:idx]))
    parts.append(image_embeds)
    if idx + 1 < len(ids):
        parts.append(llm.embed_ids(ids[idx + 1:]))
    embeds = parts[0] if len(parts) == 1 else concat(parts, axis=0)

    out_labels = None
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int32)
        out_labels = np.concatenate([
            labels[:idx],
            np.full(m, IGNORE_INDEX, dtype=np.int32),
            labels[idx + 1:],
        ])
    return embeds, out_labels, np.arange(len(ids) - 1 + m)


def sequence_loss(model: MultimodalModel, sample: TokenizedSample) -> Tuple[Tensor, int]:
    """Next-token loss for one sample; returns (loss, supervised token count)."""
    image_embeds = None
    if sample.image is not None:
        image_embeds = model.encode_image(sample.image)
    elif sample.image_token_index is not None:
        raise ValidationError(f"sample '{sample.conv_id}' has an image placeholder but no image")
    embeds, labels2, _ = compose_multimodal(
        sample.input_ids, sample.labels, image_embeds, sample.image_token_index, model.llm)
    logits = model.llm.forward_embeds(embeds)
    t = embeds.shape[0]
    shifted = labels2[1:]
    loss = masked_cross_entropy(narrow(logits, 0, 0, t - 1), shifted)
    return loss, int((shifted != IGNORE_INDEX).sum())


def generate(model: MultimodalModel, conv: Conversation,
             image: Optional[np.ndarray] = None, max_new_tokens: int = 8) -> str:
    """Greedy decoding until EOS or the token budget; deterministic.

    The prompt is composed once and run through the LLM in one forward (the
    prefill), which fills a per-block K/V cache. Each later step embeds only
    the token just chosen and runs that one position, at the cache length,
    against the cached keys and values. Decoding stops before a token would
    need position `max_positions`, and runs no forward once the budget is spent.
    """
    if conv.turns and conv.turns[-1].role != ROLE_ASSISTANT:
        conv = Conversation(conv.id, conv.image_path, conv.turns + [Turn(ROLE_ASSISTANT, "")])
    tpl = model.template()
    ids, image_idx = tokenize_prompt(conv, tpl, _TOKENIZER)
    if (image_idx is not None) and image is None:
        raise ValidationError("prompt contains an image placeholder but no image was given")
    if (image_idx is None) and image is not None:
        raise ValidationError("an image was given but the prompt has no placeholder")

    llm = model.llm
    max_pos = llm.config.max_positions
    with no_grad():
        image_embeds = model.encode_image(image) if image is not None else None
        embeds, _, _ = compose_multimodal(ids, None, image_embeds, image_idx, llm)
        need = embeds.shape[0]
        if need > max_pos:
            raise ValidationError(f"prompt needs {need} positions, model allows {max_pos}")
        generated: List[int] = []
        cache = llm.new_cache()
        while len(generated) < max_new_tokens:
            logits = llm.forward(embeds, cache)
            next_id = int(np.argmax(logits.data[-1]))
            if next_id == EOS_ID:
                break
            generated.append(next_id)
            if cache.length == max_pos:     # no position left for next_id
                break
            embeds = llm.embed_ids(np.array([next_id]))
    return _TOKENIZER.decode(generated)


# -- construction from configuration -------------------------------------------


def resolve_model_config(cfg: dict) -> dict:
    """Materialize defaults and cross-component dimensions; fully validates."""
    cfg = dict(cfg or {})
    out: dict = {}

    vision_spec = dict(cfg.get("vision") or {"name": "clip_tiny"})
    vision_name = vision_spec.get("name", "clip_tiny")
    if not registry.has("vision", vision_name):
        registry.create("vision", vision_name)  # raises with candidates
    vision_cfg = VisionTowerConfig.from_dict(vision_spec.get("config") or {})
    out["vision"] = {"name": vision_name, "config": asdict(vision_cfg)}

    mof_spec = cfg.get("mof")
    d_v = vision_cfg.width
    n_tokens = vision_cfg.num_patches
    if mof_spec is not None:
        mof_spec = dict(mof_spec)
        mof_name = mof_spec.get("name", vision_name)
        if not registry.has("vision", mof_name):
            registry.create("vision", mof_name)
        mof_cfg = VisionTowerConfig.from_dict(mof_spec.get("config") or {})
        if (mof_cfg.image_size, mof_cfg.patch_size, mof_cfg.width) != (
                vision_cfg.image_size, vision_cfg.patch_size, vision_cfg.width):
            raise ValidationError(
                "mof towers must match image size, patch size, and width: "
                f"{asdict(vision_cfg)} vs {asdict(mof_cfg)}")
        out["mof"] = {"name": mof_name, "config": asdict(mof_cfg)}
        n_tokens *= 2

    llm_spec = dict(cfg.get("llm") or {"name": "phi_tiny"})
    llm_name = llm_spec.get("name", "phi_tiny")
    if not registry.has("llm", llm_name):
        registry.create("llm", llm_name)
    llm_cfg = LLMConfig.from_dict(llm_spec.get("config") or {})
    out["llm"] = {"name": llm_name, "config": asdict(llm_cfg)}

    conn_spec = dict(cfg.get("connector") or {"name": "mlp"})
    conn_name = conn_spec.get("name", "mlp")
    if not registry.has("connector", conn_name):
        registry.create("connector", conn_name)
    conn_raw = dict(conn_spec.get("config") or {})
    conn_raw.setdefault("d_v", d_v)
    conn_raw.setdefault("d_m", llm_cfg.width)
    conn_cfg = ConnectorConfig.from_dict(conn_raw)
    if conn_cfg.d_v != d_v:
        raise ValidationError(
            f"connector d_v={conn_cfg.d_v} does not match vision width {d_v}")
    if conn_cfg.d_m != llm_cfg.width:
        raise ValidationError(
            f"connector d_m={conn_cfg.d_m} does not match llm width {llm_cfg.width}")
    if conn_name == "identity" and conn_cfg.d_v != conn_cfg.d_m:
        raise ValidationError(
            f"identity connector requires d_v == d_m, got {conn_cfg.d_v} vs {conn_cfg.d_m}")
    out["connector"] = {"name": conn_name, "config": asdict(conn_cfg)}

    template_name = cfg.get("template", "llava_v1")
    if not registry.has("template", template_name):
        registry.create("template", template_name)
    out["template"] = template_name

    aspect = cfg.get("image_aspect_ratio", "square")
    if aspect not in ("square", "pad"):
        raise ValidationError(f"image_aspect_ratio must be 'square' or 'pad', got '{aspect}'")
    out["image_aspect_ratio"] = aspect

    # Informational: sequence cost of one image in LLM positions.
    if conn_name in ("resampler", "qformer"):
        out["image_tokens"] = conn_cfg.queries
    else:
        out["image_tokens"] = n_tokens
    return out


def build_model(model_cfg: dict, seed: int) -> MultimodalModel:
    """Construct a model from configuration; init streams derive from `seed`."""
    resolved = resolve_model_config(model_cfg)
    root = Rng(seed).split("init")

    vision = registry.create(
        "vision", resolved["vision"]["name"],
        resolved["vision"]["config"], root.split("vision"))
    if "mof" in resolved:
        second = registry.create(
            "vision", resolved["mof"]["name"],
            resolved["mof"]["config"], root.split("vision_b"))
        vision = DualTower(vision, second)

    llm = registry.create(
        "llm", resolved["llm"]["name"], resolved["llm"]["config"], root.split("llm"))
    connector = registry.create(
        "connector", resolved["connector"]["name"],
        resolved["connector"]["config"], root.split("connector"))

    return MultimodalModel(
        vision=vision,
        connector=connector,
        llm=llm,
        template_name=resolved["template"],
        seed=seed,
        config=resolved,
        image_aspect_ratio=resolved["image_aspect_ratio"],
    )
