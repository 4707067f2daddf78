"""Registry, towers, connectors, LLM, composition, and generation."""

import numpy as np
import pytest

from vlmkit.data import ByteTokenizer, Conversation, Turn, tokenize_prompt
from vlmkit.data.tokenizer import EOS_ID
from vlmkit.errors import DimensionError, RegistryError, ValidationError
from vlmkit.model import (
    ConnectorConfig,
    DualTower,
    IdentityConnector,
    LLMConfig,
    LanguageModel,
    MlpConnector,
    ResamplerConnector,
    VisionTower,
    VisionTowerConfig,
    build_model,
    compose_multimodal,
    generate,
    mof_forward,
    multimodal,
    sequence_loss,
)
from vlmkit.numerics import Rng, Tensor, concat, narrow, no_grad, scale
from vlmkit.numerics.ops import IGNORE_INDEX
from vlmkit.registry import registry

SEED = 1234


def tiny_model_cfg(connector="mlp", mof=False, image_size=16):
    cfg = {
        "vision": {"name": "clip_tiny", "config": {"image_size": image_size, "patch_size": 8,
                                                   "width": 32, "depth": 1, "heads": 2}},
        "connector": {"name": connector, "config": {"queries": 3, "depth": 1, "heads": 2}},
        # Covers the 121-token llava_v1 sample, up to 8 image tokens and 6 generated tokens.
        "llm": {"name": "phi_tiny", "config": {"width": 32, "depth": 1, "heads": 2,
                                               "max_positions": 160}},
        "template": "llava_v1",
    }
    if connector in ("identity", "linear", "mlp"):
        cfg["connector"]["config"] = {}
    if mof:
        cfg["mof"] = {"name": "dino_tiny", "config": dict(cfg["vision"]["config"])}
    if connector == "identity":
        cfg["llm"]["config"]["width"] = 32
    return cfg


def random_image(side=16, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=(3, side, side)).astype(np.float32)


# -- registry -------------------------------------------------------------------


def test_registry_builtin_connector_set():
    assert registry.names("connector") == ["identity", "linear", "mlp", "qformer", "resampler"]


def test_registry_create_identity():
    conn = registry.create("connector", "identity", {"d_v": 32, "d_m": 32})
    assert isinstance(conn, IdentityConnector)


def test_registry_unknown_name_lists_candidates():
    with pytest.raises(RegistryError) as ei:
        registry.create("connector", "nope", {})
    msg = str(ei.value)
    for name in ("identity", "linear", "mlp", "qformer", "resampler"):
        assert name in msg


def test_registry_user_registration_round_trip():
    calls = {}

    def factory(cfg, rng=None):
        calls["cfg"] = cfg
        return "built"

    registry.register("connector", "my_conn_test", factory)
    assert registry.create("connector", "my_conn_test", {"x": 1}) == "built"
    assert calls["cfg"] == {"x": 1}
    with pytest.raises(RegistryError):
        registry.register("connector", "my_conn_test", factory)


def test_registry_rejects_empty_name():
    with pytest.raises(RegistryError):
        registry.register("llm", "", lambda: None)


# -- vision tower ------------------------------------------------------------------


def test_vision_token_count():
    tower = VisionTower(VisionTowerConfig(image_size=16, patch_size=8, width=32,
                                          depth=1, heads=2), Rng(0))
    out = tower(random_image())
    assert out.shape == (4, 32)
    assert np.isfinite(out.data).all()


def test_vision_wrong_side_raises():
    tower = VisionTower(VisionTowerConfig(image_size=16, patch_size=8, width=32,
                                          depth=1, heads=2), Rng(0))
    with pytest.raises(DimensionError):
        tower(random_image(side=24))


def test_vision_zero_depth_patch_permutation():
    cfg = VisionTowerConfig(image_size=16, patch_size=8, width=32, depth=0, heads=2)
    tower = VisionTower(cfg, Rng(0))
    tower.pos_embed.data[:] = 0.0
    img = random_image(seed=3)
    base = tower(img).data.copy()
    swapped = img.copy()
    # Patch grid is 2x2; patches 0 and 1 are the top-left and top-right blocks.
    swapped[:, 0:8, 0:8], swapped[:, 0:8, 8:16] = img[:, 0:8, 8:16], img[:, 0:8, 0:8]
    out = tower(swapped).data
    np.testing.assert_allclose(out[0], base[1], rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(out[1], base[0], rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(out[2:], base[2:], rtol=1e-5, atol=1e-6)


def test_mof_interleaves_and_doubles_tokens():
    cfg = VisionTowerConfig(image_size=16, patch_size=8, width=32, depth=1, heads=2)
    a = VisionTower(cfg, Rng(1))
    b = VisionTower(cfg, Rng(2))
    img = random_image(seed=4)
    out = mof_forward(a, b, img)
    assert out.shape == (8, 32)
    solo_a, solo_b = a(img).data, b(img).data
    np.testing.assert_array_equal(out.data[0::2], solo_a)
    np.testing.assert_array_equal(out.data[1::2], solo_b)


def test_mof_same_tower_duplicates_rows():
    cfg = VisionTowerConfig(image_size=16, patch_size=8, width=32, depth=1, heads=2)
    a = VisionTower(cfg, Rng(1))
    out = mof_forward(a, a, random_image(seed=5)).data
    np.testing.assert_array_equal(out[0::2], out[1::2])


def test_mof_mismatched_configs_rejected():
    a = VisionTower(VisionTowerConfig(image_size=16, patch_size=8, width=32,
                                      depth=1, heads=2), Rng(1))
    b = VisionTower(VisionTowerConfig(image_size=16, patch_size=8, width=64,
                                      depth=1, heads=2), Rng(2))
    with pytest.raises(ValidationError):
        DualTower(a, b)


# -- connectors ---------------------------------------------------------------------


def test_identity_connector_bitwise():
    conn = IdentityConnector(ConnectorConfig(d_v=32, d_m=32))
    feats = Tensor(np.random.default_rng(0).normal(size=(4, 32)).astype(np.float32))
    assert conn(feats) is feats


def test_identity_requires_matching_dims():
    with pytest.raises(ValidationError):
        IdentityConnector(ConnectorConfig(d_v=32, d_m=64))


def test_mlp_connector_zero_weights_zero_output():
    conn = MlpConnector(ConnectorConfig(d_v=16, d_m=24), Rng(0))
    conn.l1.w.data[:] = 0.0
    conn.l2.w.data[:] = 0.0
    feats = Tensor(np.random.default_rng(1).normal(size=(5, 16)).astype(np.float32))
    out = conn(feats)
    assert out.shape == (5, 24)
    np.testing.assert_array_equal(out.data, np.zeros((5, 24)))


def test_resampler_fixed_query_count():
    conn = ResamplerConnector(ConnectorConfig(d_v=16, d_m=24, queries=3, depth=1, heads=2),
                              Rng(0))
    for n in (4, 9):
        feats = Tensor(np.random.default_rng(n).normal(size=(n, 16)).astype(np.float32))
        assert conn(feats).shape == (3, 24)


def test_connector_width_mismatch():
    conn = MlpConnector(ConnectorConfig(d_v=16, d_m=24), Rng(0))
    with pytest.raises(DimensionError):
        conn(Tensor(np.zeros((4, 8), dtype=np.float32)))


# -- composition -----------------------------------------------------------------


def _toy_llm():
    return LanguageModel(LLMConfig(width=32, depth=1, heads=2, max_positions=64), Rng(7))


def test_compose_lengths():
    llm = _toy_llm()
    ids = np.arange(10, dtype=np.int32)
    labels = np.full(10, IGNORE_INDEX, dtype=np.int32)
    img = Tensor(np.zeros((4, 32), dtype=np.float32))
    embeds, labels2, positions = compose_multimodal(ids, labels, img, 3, llm)
    assert embeds.shape == (13, 32)
    assert len(labels2) == 13
    assert len(positions) == 13


def test_compose_without_image_is_plain_embedding():
    llm = _toy_llm()
    ids = np.array([5, 6, 7], dtype=np.int32)
    labels = np.array([IGNORE_INDEX, 6, 7], dtype=np.int32)
    embeds, labels2, _ = compose_multimodal(ids, labels, None, None, llm)
    np.testing.assert_array_equal(embeds.data, llm.tok_embed.data[[5, 6, 7]])
    np.testing.assert_array_equal(labels2, labels)


def test_compose_preserves_supervised_count():
    llm = _toy_llm()
    ids = np.arange(12, dtype=np.int32)
    labels = np.where(np.arange(12) % 3 == 0, np.arange(12, dtype=np.int32), IGNORE_INDEX)
    labels[4] = IGNORE_INDEX
    img = Tensor(np.zeros((5, 32), dtype=np.float32))
    # Put the placeholder on an ignored position, as tokenize guarantees.
    _, labels2, _ = compose_multimodal(ids, labels, img, 4, llm)
    assert (labels2 != IGNORE_INDEX).sum() == (labels != IGNORE_INDEX).sum()


def test_compose_rejects_mismatched_image_args():
    llm = _toy_llm()
    with pytest.raises(ValidationError):
        compose_multimodal(np.arange(4), None, None, 2, llm)


def test_llm_single_token_logits_shape():
    llm = _toy_llm()
    out = llm.forward_embeds(Tensor(np.zeros((1, 32), dtype=np.float32)))
    assert out.shape == (1, 260)


def test_llm_causality_perturbation():
    llm = _toy_llm()
    base_embeds = np.random.default_rng(0).normal(size=(6, 32)).astype(np.float32)
    with no_grad():
        base = llm.forward_embeds(Tensor(base_embeds)).data.copy()
        for j in range(6):
            pert = base_embeds.copy()
            pert[j] += 0.5
            out = llm.forward_embeds(Tensor(pert)).data
            np.testing.assert_allclose(out[:j], base[:j], atol=1e-6)
            assert not np.allclose(out[j], base[j], atol=1e-6)


def test_llm_sequence_too_long():
    llm = _toy_llm()
    with pytest.raises(ValidationError):
        llm.forward_embeds(Tensor(np.zeros((65, 32), dtype=np.float32)))


# -- full model grid ---------------------------------------------------------------


ALL_CONNECTORS = ("identity", "linear", "mlp", "resampler", "qformer")


def _sample_for(model, seed=0):
    from vlmkit.data import BUILTIN_TEMPLATES, ByteTokenizer, tokenize_and_label
    conv = Conversation(
        id="s", image_path="x.ppm",
        turns=[Turn("human", "<image>\nWhat color is the square?"), Turn("assistant", "red")])
    sm = tokenize_and_label(conv, BUILTIN_TEMPLATES["llava_v1"], ByteTokenizer())
    sm.image = random_image(side=model.image_size, seed=seed)
    return sm


@pytest.mark.parametrize("connector", ALL_CONNECTORS)
@pytest.mark.parametrize("mof", [False, True])
def test_shape_contract_full_grid(connector, mof):
    model = build_model(tiny_model_cfg(connector=connector, mof=mof), seed=SEED)
    sm = _sample_for(model)
    embeds, labels2, _ = compose_multimodal(
        sm.input_ids, sm.labels, model.encode_image(sm.image), sm.image_token_index, model.llm)
    logits = model.llm.forward_embeds(embeds)
    m = model.config["image_tokens"]
    assert logits.shape == (len(sm.input_ids) - 1 + m, 260)


def test_gradient_flow_reaches_every_parameter():
    model = build_model(tiny_model_cfg(connector="qformer"), seed=SEED)
    sm = _sample_for(model)
    loss, supervised = sequence_loss(model, sm)
    assert supervised > 0
    loss.backward()
    for path, p in model.named_parameters():
        assert p.grad is not None, f"no grad buffer on {path}"
        assert np.any(p.grad != 0.0), f"all-zero grad on {path}"


def test_loss_all_ignored_is_zero():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    sm.labels = np.full_like(sm.labels, IGNORE_INDEX)
    loss, supervised = sequence_loss(model, sm)
    assert supervised == 0
    assert loss.item() == 0.0


def test_missing_image_for_placeholder():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    sm.image = None
    with pytest.raises(ValidationError):
        sequence_loss(model, sm)


# -- generation -------------------------------------------------------------------


def _question_conv():
    return Conversation(
        id="g", image_path="x.ppm",
        turns=[Turn("human", "<image>\nWhat color is the square?")])


def test_generate_zero_budget_is_empty():
    model = build_model(tiny_model_cfg(), seed=SEED)
    assert generate(model, _question_conv(), random_image(), max_new_tokens=0) == ""


def test_generate_deterministic():
    model = build_model(tiny_model_cfg(), seed=SEED)
    img = random_image(seed=9)
    a = generate(model, _question_conv(), img, max_new_tokens=6)
    b = generate(model, _question_conv(), img, max_new_tokens=6)
    assert a == b


def test_generate_argmax_invariant_to_logit_scaling():
    model = build_model(tiny_model_cfg(), seed=SEED)
    img = random_image(seed=10)
    base = generate(model, _question_conv(), img, max_new_tokens=6)
    orig = model.llm.forward
    model.llm.forward = lambda e, cache=None: scale(orig(e, cache), 7.5)
    try:
        assert generate(model, _question_conv(), img, max_new_tokens=6) == base
    finally:
        del model.llm.forward


def test_generate_image_placeholder_consistency():
    model = build_model(tiny_model_cfg(), seed=SEED)
    with pytest.raises(ValidationError):
        generate(model, _question_conv(), None)
    plain = Conversation(id="p", turns=[Turn("human", "hello")])
    with pytest.raises(ValidationError):
        generate(model, plain, random_image())


def test_generate_prompt_too_long():
    model = build_model(tiny_model_cfg(), seed=SEED)
    conv = Conversation(id="long", turns=[Turn("human", "x" * 500)])
    tpl = registry.create("template", model.template_name)
    ids, image_idx = tokenize_prompt(conv, tpl, ByteTokenizer())
    assert image_idx is None
    with pytest.raises(ValidationError) as ei:
        generate(model, conv)
    assert f"needs {len(ids)} positions" in str(ei.value)


# -- KV-cached decoding against the uncached path -----------------------------------


def _uncached_decode(model, conv, image, budget):
    """Greedy decode with a full recompose and forward_embeds per new token.

    Returns the argmax of every step (a final EOS included) and the
    last-position logits each step read.
    """
    conv = Conversation(conv.id, conv.image_path, conv.turns + [Turn("assistant", "")])
    ids, image_idx = tokenize_prompt(conv, model.template(), ByteTokenizer())
    chosen, logits = [], []
    with no_grad():
        image_embeds = model.encode_image(image) if image is not None else None
        for _ in range(budget):
            work = np.concatenate([ids, np.asarray(chosen, dtype=ids.dtype)])
            embeds, _, _ = compose_multimodal(work, None, image_embeds, image_idx, model.llm)
            if embeds.shape[0] > model.llm.config.max_positions:
                break
            logits.append(model.llm.forward_embeds(embeds).data[-1].copy())
            chosen.append(int(np.argmax(logits[-1])))
            if chosen[-1] == EOS_ID:
                break
    return chosen, logits


def _spy_on_forward(model):
    """Record the last-position logits of every forward `generate` runs."""
    seen = []
    orig = model.llm.forward

    def forward(embeds, cache=None):
        out = orig(embeds, cache)
        seen.append(out.data[-1].copy())
        return out

    model.llm.forward = forward
    return seen


@pytest.mark.parametrize("connector", ALL_CONNECTORS)
@pytest.mark.parametrize("mof", [False, True])
def test_cached_generate_matches_uncached_decode_full_grid(connector, mof):
    model = build_model(tiny_model_cfg(connector=connector, mof=mof), seed=SEED)
    img = random_image(seed=11)
    want, want_logits = _uncached_decode(model, _question_conv(), img, budget=6)
    seen = _spy_on_forward(model)
    got = generate(model, _question_conv(), img, max_new_tokens=6)
    assert [int(np.argmax(row)) for row in seen] == want
    assert got == ByteTokenizer().decode(want)
    for row, want_row in zip(seen, want_logits):
        np.testing.assert_allclose(row, want_row, rtol=0, atol=1e-5)


def _deep_llm():
    return LanguageModel(LLMConfig(width=32, depth=2, heads=2, max_positions=64), Rng(8))


@pytest.mark.parametrize("chunks", [(20,), (12,) + (1,) * 8, (1,) * 20, (5, 7, 1, 4, 3)])
def test_cached_forward_matches_one_full_forward(chunks):
    llm = _deep_llm()
    embeds = Tensor(np.random.default_rng(2).normal(size=(20, 32)).astype(np.float32))
    with no_grad():
        full = llm.forward_embeds(embeds).data
        cache, rows, start = llm.new_cache(), [], 0
        for t in chunks:
            rows.append(llm.forward(narrow(embeds, 0, start, t), cache))
            start += t
            assert cache.length == start
        cached = concat(rows, axis=0).data
    np.testing.assert_allclose(cached, full, rtol=0, atol=1e-5)


def test_cached_forward_past_max_positions_names_the_count():
    llm = _deep_llm()
    cache = llm.new_cache()
    with no_grad():
        llm.forward(Tensor(np.zeros((60, 32), dtype=np.float32)), cache)
        with pytest.raises(ValidationError) as ei:
            llm.forward(Tensor(np.zeros((5, 32), dtype=np.float32)), cache)
    assert "65" in str(ei.value)
    assert cache.length == 60


@pytest.mark.parametrize("headroom", [0, 1, 2, 3])
def test_cached_decode_stops_at_max_positions_like_uncached(headroom):
    probe = build_model(tiny_model_cfg(), seed=SEED)
    conv = _question_conv()
    conv = Conversation(conv.id, conv.image_path, conv.turns + [Turn("assistant", "")])
    ids, _ = tokenize_prompt(conv, probe.template(), ByteTokenizer())
    need = len(ids) - 1 + probe.config["image_tokens"]
    cfg = tiny_model_cfg()
    cfg["llm"]["config"]["max_positions"] = need + headroom
    model = build_model(cfg, seed=SEED)
    img = random_image(seed=12)
    want, _ = _uncached_decode(model, _question_conv(), img, budget=8)
    assert EOS_ID not in want and len(want) == headroom + 1
    seen = _spy_on_forward(model)
    assert generate(model, _question_conv(), img, max_new_tokens=8) == ByteTokenizer().decode(want)
    assert [int(np.argmax(row)) for row in seen] == want


def test_generate_composes_once_and_runs_no_forward_past_the_budget(monkeypatch):
    model = build_model(tiny_model_cfg(), seed=SEED)
    calls = []
    compose = multimodal.compose_multimodal

    def counting(*args, **kwargs):
        calls.append(1)
        return compose(*args, **kwargs)

    monkeypatch.setattr(multimodal, "compose_multimodal", counting)
    seen = _spy_on_forward(model)
    generate(model, _question_conv(), random_image(seed=13), max_new_tokens=3)
    assert len(calls) == 1
    assert len(seen) == 3
    assert EOS_ID not in [int(np.argmax(row)) for row in seen]


# -- config resolution ---------------------------------------------------------


def test_resolve_rejects_unknown_component_keys():
    cfg = tiny_model_cfg()
    cfg["llm"]["config"]["bogus_knob"] = 3
    with pytest.raises(ValidationError) as ei:
        build_model(cfg, seed=0)
    assert "bogus_knob" in str(ei.value)


def test_resolve_rejects_connector_dim_mismatch():
    cfg = tiny_model_cfg(connector="linear")
    cfg["connector"]["config"] = {"d_v": 99}
    with pytest.raises(ValidationError):
        build_model(cfg, seed=0)


def test_build_model_deterministic_from_seed():
    a = build_model(tiny_model_cfg(), seed=42)
    b = build_model(tiny_model_cfg(), seed=42)
    for (pa, ta), (pb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert pa == pb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = build_model(tiny_model_cfg(), seed=43)
    diffs = sum(not np.array_equal(ta.data, tc.data)
                for (_, ta), (_, tc) in zip(a.named_parameters(), c.named_parameters()))
    assert diffs > 0
