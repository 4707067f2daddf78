"""Composing vision, connector, and language model into one system.

A multimodal sequence is the text token embeddings with the single image
placeholder position replaced by the connector's output tokens. The
next-token shift happens exactly once, in `sequence_loss`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional, Tuple

import numpy as np

from ..data.conversations import Conversation
from ..data.labeling import TokenizedSample, tokenize_prompt
from ..data.tokenizer import EOS_ID, IMAGE_ID, ByteTokenizer
from ..errors import ValidationError, naming, require_int
from ..numerics import Rng, Tensor, concat, masked_cross_entropy, no_grad
from ..numerics.ops import IGNORE_INDEX
from ..registry import registry
from .connectors import Connector, ConnectorConfig, check_identity_dims
from .layers import Module, as_object, config_from_dict
from .llm import LanguageModel, LLMConfig
from .vision import DualTower, VisionTowerConfig, check_towers_match

_TOKENIZER = ByteTokenizer()


class MultimodalModel(Module):
    """Vision tower, connector and LLM; `config` is the resolved model config,
    the one home of the chat template and the image aspect ratio."""

    def __init__(self, vision, connector: Connector, llm: LanguageModel, config: dict):
        self.vision = vision
        self.connector = connector
        self.llm = llm
        self.config = config

    @property
    def image_aspect_ratio(self) -> str:
        return self.config["image_aspect_ratio"]

    @property
    def image_size(self) -> int:
        return self.vision.config.image_size

    def encode_image(self, image: np.ndarray) -> Tensor:
        return self.connector(self.vision(image))

    def template(self):
        return registry.create("template", self.config["template"])


def compose_multimodal(ids: np.ndarray, labels: Optional[np.ndarray],
                       image_embeds: Optional[Tensor], image_token_index: Optional[int],
                       llm: LanguageModel) -> Tuple[Tensor, Optional[np.ndarray], np.ndarray]:
    """Embed text ids, splicing image tokens in at the placeholder position.

    Returns (embeds [T', d], labels [T'] or None, positions [T']). Labels stay
    aligned with their input positions (`sequence_loss` shifts them); positions
    covering the image carry IGNORE_INDEX. An image and a placeholder index
    come together or not at all, and the index must hold IMAGE_ID. Ids, labels
    and the index keep the caller's integer types; none is cast, so a float is
    rejected, not truncated. Labels must be signed, since no unsigned dtype
    holds IGNORE_INDEX.
    """
    ids = np.asarray(ids)
    if image_embeds is None and image_token_index is not None:
        raise ValidationError("has an image placeholder but no image")
    if image_embeds is not None and image_token_index is None:
        raise ValidationError("has an image but no image placeholder")
    labels = None if labels is None else np.asarray(labels)
    if labels is not None and labels.dtype.kind == "u":
        raise ValidationError(f"labels must be signed integers, got dtype {labels.dtype}")
    if image_embeds is None:
        return llm.embed_ids(ids), labels, np.arange(len(ids))

    idx = require_int("image token index", image_token_index)
    if not 0 <= idx < len(ids):
        raise ValidationError(f"image token index {idx} outside sequence of length {len(ids)}")
    if ids[idx] != IMAGE_ID:
        raise ValidationError(f"image token index {idx} holds token {ids[idx]}, "
                              f"not the image token {IMAGE_ID}")
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
        out_labels = np.concatenate([
            labels[:idx],
            np.full(m, IGNORE_INDEX, dtype=np.int32),
            labels[idx + 1:],
        ])
    return embeds, out_labels, np.arange(len(ids) - 1 + m)


def sequence_loss(model: MultimodalModel, sample: TokenizedSample) -> Tuple[Tensor, int]:
    """Next-token loss for one sample; returns (loss, supervised token count).

    The sample's image and placeholder must come together, as
    `compose_multimodal` checks. Every error raised inside names the sample.
    """
    with naming(f"sample '{sample.conv_id}'"):
        image_embeds = None if sample.image is None else model.encode_image(sample.image)
        embeds, labels2, _ = compose_multimodal(
            sample.input_ids, sample.labels, image_embeds, sample.image_token_index, model.llm)
        logits = model.llm.forward_embeds(embeds)
        # Position i predicts label i + 1; the last position predicts nothing.
        shifted = np.append(labels2[1:], IGNORE_INDEX)
        loss = masked_cross_entropy(logits, shifted)
    return loss, int((shifted != IGNORE_INDEX).sum())


def generate(model: MultimodalModel, conv: Conversation,
             image: Optional[np.ndarray] = None, max_new_tokens: int = 8) -> str:
    """Greedy decoding until EOS or the token budget; deterministic.

    The prompt, which `tokenize_prompt` ends on the assistant prefix, is
    composed once and run through the LLM in one forward (the
    prefill), which fills a per-block K/V cache. Each later step embeds only
    the token just chosen and runs that one position, at the cache length,
    against the cached keys and values. Decoding stops before a token would
    need position `max_positions`, and runs no forward once the budget is spent.

    The prompt's head is every id before the image placeholder; under one
    template it is the same for every prompt. The LLM keeps the head's keys and
    values from the last prefill (one entry per model). When the next prompt has
    the same head and every LLM parameter is byte-equal to the snapshot taken
    with them, the cache starts from that entry and the prefill runs only the
    rest of the prompt. Otherwise the whole prompt is prefilled and its head
    becomes the entry. A prompt without an image has an empty head, as does one
    with the image first: it neither uses nor replaces the entry.

    `max_new_tokens` is checked first, under its own name. After that the image
    and the prompt's placeholder must come together, as `compose_multimodal`
    checks, and every error raised names the prompt.
    """
    require_int("max_new_tokens", max_new_tokens, 0)
    llm = model.llm
    max_pos = llm.config.max_positions
    with naming(f"prompt '{conv.id}'"), no_grad():
        ids, image_idx = tokenize_prompt(conv, model.template(), _TOKENIZER)
        image_embeds = None if image is None else model.encode_image(image)
        head = ids[:0 if image_idx is None else image_idx]
        cache = llm.head_cache(head)
        start = cache.length
        embeds, _, _ = compose_multimodal(
            ids[start:], None, image_embeds, None if image_idx is None else image_idx - start, llm)
        need = start + embeds.shape[0]
        if need > max_pos:
            raise ValidationError(f"needs {need} positions, model allows {max_pos}")
        generated: List[int] = []
        while len(generated) < max_new_tokens:
            logits = llm.forward(embeds, cache)
            next_id = int(np.argmax(logits.data[-1]))
            if next_id == EOS_ID:
                break
            generated.append(next_id)
            if cache.length == max_pos:     # no position left for next_id
                break
            embeds = llm.embed_ids(np.array([next_id]))
        if start == 0 and 0 < len(head) <= cache.length:     # a miss that ran the prefill
            llm.keep_head(head, cache)
    return _TOKENIZER.decode(generated)


# -- construction from configuration -------------------------------------------


_MODEL_CONFIG_KEYS = ("vision", "mof", "llm", "connector", "template", "image_aspect_ratio",
                      "image_tokens")


def _component(spec, kind: str, default: str, config_cls, **defaults):
    """(registered name, config) of a component spec; a null spec takes the defaults.

    The config is parsed as the factory's `config_class`, or as `config_cls` for
    a factory that names none."""
    spec = as_object(spec, "spec")
    name = spec.get("name", default)
    config_cls = getattr(registry.require(kind, name), "config_class", config_cls)
    config = {**defaults, **as_object(spec.get("config"), "'config'")}
    return name, config_from_dict(config_cls, config)


def resolve_model_config(cfg: dict) -> dict:
    """Materialize defaults and cross-component dimensions; fully validates.

    A component spec ("vision", "mof", "llm", "connector") is an object with
    an optional registered "name" and an optional "config" object. Every
    error message starts with the key it is about, an unknown key included.
    "image_tokens" follows from the components; a stated value must be an
    integer equal to it, so a resolved config resolves to itself.
    """
    cfg = as_object(cfg, "model config")
    for key in cfg:
        if key not in _MODEL_CONFIG_KEYS:
            raise ValidationError(
                f"{key}: unknown model config key; known: {', '.join(_MODEL_CONFIG_KEYS)}")
    out: dict = {}

    with naming("vision"):
        vision_name, vision_cfg = _component(cfg.get("vision"), "vision", "clip_tiny",
                                             VisionTowerConfig)
    out["vision"] = {"name": vision_name, "config": asdict(vision_cfg)}

    d_v = vision_cfg.width
    n_tokens = vision_cfg.num_patches
    if cfg.get("mof") is not None:
        with naming("mof"):
            mof_name, mof_cfg = _component(cfg["mof"], "vision", vision_name, VisionTowerConfig)
            check_towers_match(vision_cfg, mof_cfg)
        out["mof"] = {"name": mof_name, "config": asdict(mof_cfg)}
        n_tokens *= 2

    with naming("llm"):
        llm_name, llm_cfg = _component(cfg.get("llm"), "llm", "phi_tiny", LLMConfig)
    out["llm"] = {"name": llm_name, "config": asdict(llm_cfg)}

    with naming("connector"):
        conn_name, conn_cfg = _component(cfg.get("connector"), "connector", "mlp",
                                         ConnectorConfig, d_v=d_v, d_m=llm_cfg.width)
        if conn_cfg.d_v != d_v:
            raise ValidationError(f"d_v={conn_cfg.d_v} does not match vision width {d_v}")
        if conn_cfg.d_m != llm_cfg.width:
            raise ValidationError(
                f"d_m={conn_cfg.d_m} does not match llm width {llm_cfg.width}")
        if conn_name == "identity":
            check_identity_dims(conn_cfg)
    out["connector"] = {"name": conn_name, "config": asdict(conn_cfg)}

    template_name = cfg.get("template", "llava_v1")
    with naming("template"):
        registry.require("template", template_name)
    out["template"] = template_name

    aspect = cfg.get("image_aspect_ratio", "square")
    if aspect not in ("square", "pad"):
        raise ValidationError(f"image_aspect_ratio: must be 'square' or 'pad', got {aspect!r}")
    out["image_aspect_ratio"] = aspect

    # The sequence cost of one image in LLM positions.
    out["image_tokens"] = image_tokens = getattr(conn_cfg, "queries", n_tokens)
    with naming("image_tokens"):
        if require_int("image_tokens", cfg.get("image_tokens", image_tokens)) != image_tokens:
            raise ValidationError(f"{cfg['image_tokens']} is not the {image_tokens} image tokens "
                                  "the vision and connector configs give")
    return out


def build_model(model_cfg: dict, seed: int) -> MultimodalModel:
    """Construct a model from configuration; init streams derive from `seed`.

    Each part is created from its (config key, registry kind, init stream);
    a MoF tower joins the vision tower in a `DualTower`.
    """
    resolved = resolve_model_config(model_cfg)
    root = Rng(seed).split("init")
    streams = (("vision", "vision", "vision"), ("mof", "vision", "vision_b"),
               ("llm", "llm", "llm"), ("connector", "connector", "connector"))
    parts = {key: registry.create(kind, resolved[key]["name"], resolved[key]["config"],
                                  root.split(stream))
             for key, kind, stream in streams if key in resolved}
    if "mof" in parts:
        parts["vision"] = DualTower(parts["vision"], parts.pop("mof"))
    return MultimodalModel(config=resolved, **parts)
