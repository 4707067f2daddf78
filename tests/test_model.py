"""Registry, towers, connectors, LLM, composition, and generation."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from vlmkit.data import (BUILTIN_TEMPLATES, ByteTokenizer, Conversation, Turn, collate,
                         make_sample, preprocess_image, synth_vqa_generate, tokenize_and_label,
                         tokenize_prompt)
from vlmkit.data.tokenizer import EOS_ID, IMAGE_ID
from vlmkit.errors import DimensionError, RegistryError, ValidationError
from vlmkit.model import (
    ConnectorConfig,
    DualTower,
    IdentityConnector,
    LinearConnector,
    LLMConfig,
    LanguageModel,
    MlpConnector,
    MultiHeadAttention,
    QFormerConnector,
    QueryConfig,
    ResamplerConnector,
    VisionTower,
    VisionTowerConfig,
    build_model,
    compose_multimodal,
    generate,
    multimodal,
    resolve_model_config,
    sequence_loss,
)
from vlmkit.model import llm as llm_module
from vlmkit.model.layers import interleave_rows
from vlmkit.numerics import (AdamW, Rng, Tensor, backward, causal_mask, concat,
                             masked_cross_entropy, mul, narrow, no_grad, reshape, scale, tsum)
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


def test_registry_has_one_name_per_component():
    assert registry.names("vision") == ["clip_tiny", "dino_tiny"]
    assert registry.names("llm") == ["phi_tiny"]
    for cls in (IdentityConnector, LinearConnector, MlpConnector, ResamplerConnector,
                QFormerConnector):
        assert type(registry.create("connector", cls.kind, {}, Rng(0))) is cls


def test_registry_create_identity():
    conn = registry.create("connector", "identity", {"d_v": 32, "d_m": 32})
    assert isinstance(conn, IdentityConnector)


def test_registry_unknown_name_lists_candidates():
    with pytest.raises(RegistryError) as ei:
        registry.create("connector", "nope", {})
    msg = str(ei.value)
    for name in ("identity", "linear", "mlp", "qformer", "resampler"):
        assert name in msg


def test_registry_require_returns_the_factory_or_lists_candidates():
    assert registry.require("connector", "identity") is not None
    with pytest.raises(RegistryError) as ei:
        registry.require("template", "nope")
    assert "available: gemma_like, llava_v1, plain" in str(ei.value)
    with pytest.raises(RegistryError) as ei:
        build_model({"llm": {"name": "nope"}}, seed=0)
    assert "unknown llm component 'nope'; available: " in str(ei.value)


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


@pytest.mark.parametrize("kind, name, config_cls", [
    ("vision", "clip_tiny", VisionTowerConfig),
    ("llm", "phi_tiny", LLMConfig),
    ("connector", "mlp", ConnectorConfig),
])
@pytest.mark.parametrize("config", ["", 0])
def test_registry_factories_reject_a_falsy_non_object_config(kind, name, config_cls, config):
    with pytest.raises(ValidationError) as ei:
        registry.create(kind, name, config, Rng(0))
    assert f"{config_cls.__name__} config must be an object" in str(ei.value)


@pytest.mark.parametrize("name", ["plain", "llava_v1", "gemma_like"])
@pytest.mark.parametrize("config", ["", 0, {}, {"bogus": 1}])
def test_template_factories_reject_any_config(name, config):
    assert registry.create("template", name) is BUILTIN_TEMPLATES[name]
    with pytest.raises(ValidationError) as ei:
        registry.create("template", name, config)
    assert str(ei.value) == f"template '{name}' takes no config, got {config!r}"


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
    out = DualTower(a, b)(img)
    assert out.shape == (8, 32)
    solo_a, solo_b = a(img).data, b(img).data
    np.testing.assert_array_equal(out.data[0::2], solo_a)
    np.testing.assert_array_equal(out.data[1::2], solo_b)


def test_mof_same_tower_duplicates_rows():
    cfg = VisionTowerConfig(image_size=16, patch_size=8, width=32, depth=1, heads=2)
    a = VisionTower(cfg, Rng(1))
    out = DualTower(a, a)(random_image(seed=5)).data
    np.testing.assert_array_equal(out[0::2], out[1::2])


def test_interleave_rows_is_byte_equal_to_the_reshape_concat_reshape_form():
    rng = np.random.default_rng(6)
    a, b, g = (rng.standard_normal(shape).astype(np.float32) for shape in ((5, 4), (5, 4), (10, 4)))

    def run(interleave):
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = interleave(ta, tb)
        backward(tsum(mul(out, Tensor(g))))
        return out.data.tobytes(), ta.grad.tobytes(), tb.grad.tobytes()

    def three_reshapes(ta, tb):
        stacked = concat([reshape(ta, (5, 1, 4)), reshape(tb, (5, 1, 4))], axis=1)
        return reshape(stacked, (10, 4))

    assert run(interleave_rows) == run(three_reshapes)


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
    conn = ResamplerConnector(QueryConfig(d_v=16, d_m=24, queries=3, depth=1, heads=2), Rng(0))
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
    ids[3] = IMAGE_ID
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
    ids[4] = IMAGE_ID
    labels = np.where(np.arange(12) % 3 == 0, np.arange(12, dtype=np.int32), IGNORE_INDEX)
    labels[4] = IGNORE_INDEX
    img = Tensor(np.zeros((5, 32), dtype=np.float32))
    # Put the placeholder on an ignored position, as tokenize guarantees.
    _, labels2, _ = compose_multimodal(ids, labels, img, 4, llm)
    assert (labels2 != IGNORE_INDEX).sum() == (labels != IGNORE_INDEX).sum()


def test_compose_rejects_mismatched_image_args():
    llm = _toy_llm()
    with pytest.raises(ValidationError, match="^has an image placeholder but no image$"):
        compose_multimodal(np.arange(4), None, None, 2, llm)
    img = Tensor(np.zeros((5, 32), dtype=np.float32))
    with pytest.raises(ValidationError, match="^has an image but no image placeholder$"):
        compose_multimodal(np.arange(4), None, img, None, llm)


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


@pytest.mark.parametrize("connector", ALL_CONNECTORS)
@pytest.mark.parametrize("mof", [False, True])
def test_parameters_are_named_parameters_in_order(connector, mof):
    model = build_model(tiny_model_cfg(connector=connector, mof=mof), seed=SEED)
    params, named = model.parameters(), [p for _, p in model.named_parameters()]
    assert len(params) == len(named) and all(a is b for a, b in zip(params, named))


# One default-model training step records these nodes, per op. Each Linear's
# bias is added inside its matmul, and each attention's scale and mask inside
# its softmax.
DEFAULT_STEP_TAPE = {
    "add": 10, "matmul": 36, "transpose": 21, "reshape": 16, "layer_norm": 9, "gelu": 5,
    "softmax": 4, "embedding": 2, "narrow": 1, "concat": 1,
    "masked_cross_entropy": 1, "rms_norm": 1,
}


def test_default_training_step_tape_census():
    model = build_model({}, seed=SEED)
    loss, _ = sequence_loss(model, _sample_for(model))
    counts, seen, stack = {}, set(), [loss._node]
    while stack:
        node = stack.pop()
        if node is None or node.seq in seen:
            continue
        seen.add(node.seq)
        counts[node.op] = counts.get(node.op, 0) + 1
        stack.extend(t._node for t in node.inputs)
    assert counts == DEFAULT_STEP_TAPE


def test_default_training_step_graph_holds_under_4_mb():
    """The live bytes a default step's forward leaves behind, its graph, for a
    ~124-position llava_v1 sample: what backward will read, and not much more."""
    model = build_model({}, seed=SEED)
    sample = _sample_for(model)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, _ = sequence_loss(model, sample)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.item() > 0
    assert held < 4_000_000, f"the step's graph holds {held / 1e6:.2f} MB"


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


def _narrow_sequence_loss(model, sm):
    """The earlier form of `sequence_loss`: drop the last logits row, then shift."""
    embeds, labels2, _ = compose_multimodal(
        sm.input_ids, sm.labels, model.encode_image(sm.image), sm.image_token_index, model.llm)
    logits = model.llm.forward_embeds(embeds)
    return masked_cross_entropy(narrow(logits, 0, 0, logits.shape[0] - 1), labels2[1:])


@pytest.mark.parametrize("connector, mof", [("mlp", False), ("qformer", True)])
def test_sequence_loss_is_bit_identical_to_the_narrow_form(connector, mof):
    model = build_model(tiny_model_cfg(connector=connector, mof=mof), seed=SEED)
    sm = _sample_for(model)
    results = []
    for loss_fn in (lambda: sequence_loss(model, sm)[0], lambda: _narrow_sequence_loss(model, sm)):
        for p in model.parameters():
            p.grad = None
        loss = loss_fn()
        backward(loss)
        results.append((loss.data.tobytes(), [p.grad.tobytes() for p in model.parameters()]))
    assert results[0] == results[1]


def test_missing_image_for_placeholder():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    sm.image = None
    with pytest.raises(ValidationError) as ei:
        sequence_loss(model, sm)
    assert str(ei.value) == "sample 's': has an image placeholder but no image"


def test_sequence_loss_names_the_sample_of_an_image_without_placeholder():
    model = build_model(tiny_model_cfg(), seed=SEED)
    conv = Conversation(id="t", turns=[Turn("human", "Hi"), Turn("assistant", "ok")])
    sm = tokenize_and_label(conv, BUILTIN_TEMPLATES["llava_v1"], ByteTokenizer())
    sm.image = random_image()
    with pytest.raises(ValidationError) as ei:
        sequence_loss(model, sm)
    assert type(ei.value) is ValidationError
    assert str(ei.value) == "sample 't': has an image but no image placeholder"


def test_sequence_loss_names_the_sample_of_a_wrong_size_image():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    sm.image = random_image(side=8)
    with pytest.raises(DimensionError) as ei:
        sequence_loss(model, sm)
    assert type(ei.value) is DimensionError
    assert str(ei.value).startswith("sample 's': vision tower expects image [3, 16, 16]")


def test_sequence_loss_names_the_sample_of_unsigned_labels():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    sm.labels = np.zeros(len(sm.input_ids), dtype=np.uint64)
    with pytest.raises(ValidationError) as ei:
        sequence_loss(model, sm)
    assert str(ei.value) == "sample 's': labels must be signed integers, got dtype uint64"


def test_sequence_loss_names_the_sample_of_a_placeholder_index_off_the_image_token():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sm = _sample_for(model)
    idx = sm.image_token_index - 1
    sm.image_token_index = idx
    with pytest.raises(ValidationError) as ei:
        sequence_loss(model, sm)
    assert str(ei.value) == (f"sample 's': image token index {idx} holds token "
                             f"{sm.input_ids[idx]}, not the image token {IMAGE_ID}")


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
    with pytest.raises(ValidationError) as ei:
        generate(model, _question_conv(), None)
    assert str(ei.value) == "prompt 'g': has an image placeholder but no image"
    plain = Conversation(id="p", turns=[Turn("human", "hello")])
    with pytest.raises(ValidationError) as ei:
        generate(model, plain, random_image())
    assert str(ei.value) == "prompt 'p': has an image but no image placeholder"


def test_generate_names_the_prompt_with_unencodable_text():
    # No prompt that generate could take holds such text: the constructor
    # refuses it, naming the conversation.
    with pytest.raises(ValidationError) as ei:
        Conversation(id="u", turns=[Turn("human", "\ud800")])
    assert str(ei.value) == "conversation 'u': turn 0 holds '\\ud800', which UTF-8 cannot encode"


def test_generate_prompt_too_long():
    model = build_model(tiny_model_cfg(), seed=SEED)
    conv = Conversation(id="long", turns=[Turn("human", "x" * 500)])
    tpl = model.template()
    ids, image_idx = tokenize_prompt(conv, tpl, ByteTokenizer())
    assert image_idx is None
    with pytest.raises(ValidationError) as ei:
        generate(model, conv)
    assert str(ei.value).startswith(f"prompt 'long': needs {len(ids)} positions")


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


@pytest.mark.parametrize("rows, keys", [(1, 1), (1, 9), (6, 6), (3, 8)])
def test_attention_with_an_all_zero_mask_equals_no_mask_bytewise(rows, keys):
    attn = MultiHeadAttention(32, 4, Rng(5))
    q = Tensor(np.random.default_rng(3).normal(size=(rows, 32)).astype(np.float32))
    kv = Tensor(np.random.default_rng(4).normal(size=(keys, 32)).astype(np.float32))
    zero = Tensor(np.zeros((rows, keys), dtype=np.float32))
    assert attn(q, kv, zero).data.tobytes() == attn(q, kv).data.tobytes()


def test_one_row_decode_step_builds_no_mask(monkeypatch):
    llm = _deep_llm()
    built = []

    def recording_mask(t, start=0):
        built.append((t, start))
        return causal_mask(t, start)

    monkeypatch.setattr(llm_module, "causal_mask", recording_mask)
    embeds = Tensor(np.random.default_rng(6).normal(size=(7, 32)).astype(np.float32))
    cache = llm.new_cache()
    with no_grad():
        llm.forward(narrow(embeds, 0, 0, 5), cache)
        llm.forward(narrow(embeds, 0, 5, 1), cache)
        llm.forward(narrow(embeds, 0, 6, 1), cache)
    assert built == [(5, 0)]


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


# -- reuse of the prompt head's keys and values -------------------------------------


def _other_question_conv(prefix=""):
    return Conversation(
        id="h", image_path="x.ppm",
        turns=[Turn("human", prefix + "<image>\nHow many shapes are there?")])


def _head_len(model, conv):
    conv = Conversation(conv.id, conv.image_path, conv.turns + [Turn("assistant", "")])
    ids, image_idx = tokenize_prompt(conv, model.template(), ByteTokenizer())
    return 0 if image_idx is None else image_idx


def _decode_against_uncached(model, conv, img, budget=6):
    """Run `generate`, check it against the uncached decode step by step.

    Returns the answer and the cache length its first forward started from:
    the head's length on a hit, 0 on a miss.
    """
    want, want_logits = _uncached_decode(model, conv, img, budget)
    starts, seen = [], []
    orig = model.llm.forward

    def forward(embeds, cache=None):
        starts.append(cache.length)
        out = orig(embeds, cache)
        seen.append(out.data[-1].copy())
        return out

    model.llm.forward = forward
    try:
        got = generate(model, conv, img, max_new_tokens=budget)
    finally:
        del model.llm.forward
    assert [int(np.argmax(row)) for row in seen] == want
    assert got == ByteTokenizer().decode(want)
    for row, want_row in zip(seen, want_logits):
        np.testing.assert_allclose(row, want_row, rtol=0, atol=1e-5)
    return got, starts[0]


@pytest.mark.parametrize("connector", ALL_CONNECTORS)
@pytest.mark.parametrize("mof", [False, True])
def test_head_reuse_matches_uncached_decode_full_grid(connector, mof, monkeypatch):
    model = build_model(tiny_model_cfg(connector=connector, mof=mof), seed=SEED)
    _, start = _decode_against_uncached(model, _question_conv(), random_image(seed=14))
    assert start == 0
    _, start = _decode_against_uncached(model, _other_question_conv(), random_image(seed=15))
    assert start == _head_len(model, _other_question_conv()) > 0
    calls = []
    compose = multimodal.compose_multimodal
    monkeypatch.setattr(multimodal, "compose_multimodal",
                        lambda *a, **k: calls.append(1) or compose(*a, **k))
    generate(model, _question_conv(), random_image(seed=16), max_new_tokens=6)
    assert len(calls) == 1


def test_head_reuse_hit_gives_the_string_of_a_miss():
    warm = build_model(tiny_model_cfg(connector="qformer"), seed=SEED)
    generate(warm, _question_conv(), random_image(seed=16), max_new_tokens=6)
    for seed in (17, 18, 19):
        img = random_image(seed=seed)
        hit, start = _decode_against_uncached(warm, _other_question_conv(), img)
        assert start > 0
        cold = build_model(tiny_model_cfg(connector="qformer"), seed=SEED)
        miss, start = _decode_against_uncached(cold, _other_question_conv(), img)
        assert start == 0
        assert hit == miss


def test_generate_stops_at_eos_like_the_uncached_decode():
    model = build_model(tiny_model_cfg(), seed=SEED)
    sample = _sample_for(model, seed=30)        # answers "red", then EOS
    opt = AdamW(model.named_parameters(), lr=1e-2)
    for _ in range(30):
        opt.zero_grad()
        loss, _ = sequence_loss(model, sample)
        backward(loss)
        opt.step()
    want, _ = _uncached_decode(model, _question_conv(), sample.image, budget=8)
    assert want[-1] == EOS_ID and len(want) < 8
    for head in (0, _head_len(model, _question_conv())):      # a miss, then a hit
        got, start = _decode_against_uncached(model, _question_conv(), sample.image, budget=8)
        assert (got, start) == ("red", head)


def _bump_one_weight(model):
    # One row, not the whole matrix: the LayerNorm output feeding wv sums to
    # ~0 over features, so a uniform shift would leave stale values within 1e-5.
    model.llm.blocks[0].attn.wv.w.data[0] += 1e-3


def _one_adamw_step(model):
    opt = AdamW(model.named_parameters(), lr=1e-3)
    loss, _ = sequence_loss(model, _sample_for(model, seed=3))
    loss.backward()
    opt.step()


@pytest.mark.parametrize("change", [_bump_one_weight, _one_adamw_step])
def test_head_reuse_misses_after_an_in_place_weight_change(change):
    model = build_model(tiny_model_cfg(), seed=SEED)
    img = random_image(seed=20)
    _decode_against_uncached(model, _question_conv(), img)
    _, start = _decode_against_uncached(model, _question_conv(), img)
    assert start > 0
    change(model)
    fresh, start = _decode_against_uncached(model, _question_conv(), img)
    assert start == 0
    cold = build_model(tiny_model_cfg(), seed=SEED)
    change(cold)
    assert fresh == generate(cold, _question_conv(), img, max_new_tokens=6)


@pytest.mark.parametrize("other", ["template", "head"])
def test_head_reuse_misses_on_another_head(other):
    model = build_model(tiny_model_cfg(), seed=SEED)
    img = random_image(seed=21)
    generate(model, _other_question_conv(prefix="Look: "), img, max_new_tokens=6)
    if other == "template":
        model.config["template"] = "gemma_like"
        conv = _other_question_conv(prefix="Look: ")
    else:   # a head of the same length
        conv = _other_question_conv(prefix="Book: ")
    _, start = _decode_against_uncached(model, conv, img)
    assert start == 0
    _, start = _decode_against_uncached(model, conv, img)
    assert start == _head_len(model, conv)


def test_head_reuse_never_writes_the_stored_keys_and_values():
    model = build_model(tiny_model_cfg(), seed=SEED)
    generate(model, _question_conv(), random_image(seed=22), max_new_tokens=6)
    entry = model.llm._head
    before = [(k.data.tobytes(), v.data.tobytes()) for k, v in entry.kv]
    for seed in (23, 24):
        _, start = _decode_against_uncached(model, _other_question_conv(), random_image(seed=seed))
        assert start == len(entry.ids)
    assert model.llm._head is entry
    assert [(k.data.tobytes(), v.data.tobytes()) for k, v in entry.kv] == before


def test_head_reuse_text_only_prompts_neither_use_nor_replace_the_entry():
    model = build_model(tiny_model_cfg(), seed=SEED)
    _decode_against_uncached(model, _question_conv(), random_image(seed=27))
    entry = model.llm._head
    assert entry is not None
    text = Conversation(id="t", turns=[Turn("human", "What is a square?")])
    assert _head_len(model, text) == 0
    for _ in range(2):
        _, start = _decode_against_uncached(model, text, None)
        assert start == 0
        assert model.llm._head is entry
    _, start = _decode_against_uncached(model, _other_question_conv(), random_image(seed=28))
    assert start == len(entry.ids)


def test_head_reuse_image_first_plain_prompt_stores_nothing():
    cfg = tiny_model_cfg()
    cfg["template"] = "plain"
    model = build_model(cfg, seed=SEED)
    assert _head_len(model, _question_conv()) == 0
    for seed in (25, 26):
        _, start = _decode_against_uncached(model, _question_conv(), random_image(seed=seed))
        assert start == 0
        assert model.llm._head is None


# -- config resolution ---------------------------------------------------------


def test_resolve_rejects_unknown_component_keys():
    cfg = tiny_model_cfg()
    cfg["llm"]["config"]["bogus_knob"] = 3
    with pytest.raises(ValidationError) as ei:
        build_model(cfg, seed=0)
    assert "bogus_knob" in str(ei.value)


def test_model_reads_template_and_aspect_ratio_from_its_config():
    cfg = tiny_model_cfg()
    cfg.update(template="plain", image_aspect_ratio="pad")
    model = build_model(cfg, seed=0)
    assert model.config["template"] == "plain"
    assert model.template() is BUILTIN_TEMPLATES["plain"]
    assert model.image_aspect_ratio == model.config["image_aspect_ratio"] == "pad"


def test_each_cross_component_rule_gives_one_message_on_both_paths():
    small_cfg = VisionTowerConfig(image_size=16, patch_size=8, width=32, depth=1, heads=2)
    wide_cfg = VisionTowerConfig(image_size=16, patch_size=8, width=64, depth=1, heads=2)
    with pytest.raises(ValidationError) as direct:
        DualTower(VisionTower(small_cfg, Rng(1)), VisionTower(wide_cfg, Rng(2)))
    with pytest.raises(ValidationError) as resolved:
        build_model({"vision": {"config": vars(small_cfg)}, "mof": {"config": vars(wide_cfg)}},
                    seed=0)
    assert str(resolved.value) == f"mof: {direct.value}"

    with pytest.raises(ValidationError) as direct:
        IdentityConnector(ConnectorConfig(d_v=32, d_m=64))
    with pytest.raises(ValidationError) as resolved:
        build_model({"vision": {"config": vars(small_cfg)}, "connector": {"name": "identity"}},
                    seed=0)
    assert str(resolved.value) == f"connector: {direct.value}"


def _generate_with_budget(budget):
    model = build_model(tiny_model_cfg(), seed=0)
    return generate(model, _question_conv(), random_image(), max_new_tokens=budget)


def _collate_one(pad_to):
    sm = _sample_for(build_model(tiny_model_cfg(), seed=0))
    return collate([sm], pad_to)


BAD_ARGUMENTS = [
    pytest.param("seed", lambda tmp: Rng("abc"), id="Rng-str"),
    pytest.param("seed", lambda tmp: Rng(None), id="Rng-None"),
    pytest.param("seed", lambda tmp: Rng(1.5), id="Rng-float"),
    pytest.param("seed", lambda tmp: Rng(True), id="Rng-bool"),
    pytest.param("seed", lambda tmp: build_model({}, seed=1.5), id="build_model-float"),
    pytest.param("seed", lambda tmp: make_sample("abc", "train", 0), id="make_sample-str"),
    pytest.param("seed", lambda tmp: synth_vqa_generate(str(tmp), 2, 1.5, "train"),
                 id="synth-seed"),
    pytest.param("seed", lambda tmp: synth_vqa_generate(str(tmp), 2, "abc", "train"),
                 id="synth-seed-str"),
    pytest.param("n", lambda tmp: synth_vqa_generate(str(tmp), 0, 1, "train"), id="synth-n0"),
    pytest.param("n", lambda tmp: synth_vqa_generate(str(tmp), 2.0, 1, "train"), id="synth-nf"),
    pytest.param("split", lambda tmp: synth_vqa_generate(str(tmp), 2, 1, "dev"),
                 id="synth-split"),
    pytest.param("target", lambda tmp: preprocess_image(random_image(), 0), id="target-0"),
    pytest.param("target", lambda tmp: preprocess_image(random_image(), -2), id="target-neg"),
    pytest.param("target", lambda tmp: preprocess_image(random_image(), 4.5), id="target-f"),
    pytest.param("pad_to", lambda tmp: _collate_one(3.5), id="collate-float"),
    pytest.param("max_new_tokens", lambda tmp: _generate_with_budget(-1), id="generate-neg"),
    pytest.param("max_new_tokens", lambda tmp: _generate_with_budget(2.5), id="generate-f"),
]


@pytest.mark.parametrize("name, call", BAD_ARGUMENTS)
def test_entry_points_reject_a_bad_argument_by_name(name, call, tmp_path):
    with pytest.raises(ValidationError) as ei:
        call(tmp_path)
    assert str(ei.value).startswith(f"{name} must be "), str(ei.value)
    assert list(tmp_path.iterdir()) == []       # rejected before anything is written


def test_rng_takes_a_numpy_integer_seed_as_the_int():
    np.testing.assert_array_equal(Rng(np.int64(3)).normal(5), Rng(3).normal(5))


def test_resolve_rejects_connector_dim_mismatch():
    cfg = tiny_model_cfg(connector="linear")
    cfg["connector"]["config"] = {"d_v": 99}
    with pytest.raises(ValidationError):
        build_model(cfg, seed=0)


BAD_MODEL_CONFIGS = [
    ({"vision": {"config": {"patch_size": 0}}}, "vision: VisionTowerConfig.patch_size"),
    ({"vision": {"config": {"heads": 0}}}, "vision: VisionTowerConfig.heads"),
    ({"llm": {"config": {"heads": 0}}}, "llm: LLMConfig.heads"),
    ({"llm": {"config": {"width": "64"}}}, "llm: LLMConfig.width"),
    ({"llm": {"config": {"width": 64.0}}}, "llm: LLMConfig.width"),
    ({"vision": {"config": {"width": True}}}, "vision: VisionTowerConfig.width"),
    ({"llm": {"config": {"depth": -1}}}, "llm: LLMConfig.depth must be an integer >= 0"),
    ({"llm": {"config": {"max_positions": 0}}}, "llm: LLMConfig.max_positions"),
    ({"vision": {"config": {"image_size": 0}}}, "vision: VisionTowerConfig.image_size"),
    ({"connector": {"name": "qformer", "config": {"queries": 0}}},
     "connector: QueryConfig.queries"),
    ({"connector": {"name": "resampler", "config": {"depth": -2}}},
     "connector: QueryConfig.depth"),
    ({"connector": {"name": "qformer", "config": {"heads": 3}}},
     "connector: d_m=64 not divisible by heads 3"),
    ({"vision": "clip_tiny"}, "vision: spec must be an object, got str"),
    ({"mof": [1]}, "mof: spec must be an object, got list"),
    ({"connector": {"config": [1]}}, "connector: 'config' must be an object"),
    ({"llm": {"name": ["phi_tiny"]}}, "llm: unknown llm component"),
    ({"template": {}}, "template: unknown template component"),
    ({"llm": {"config": {1: 2}}}, "llm: unknown LLMConfig keys: 1"),
    ([1], "model config must be an object, got list"),
    ({"conector": {"name": "qformer"}}, "conector: unknown model config key"),
    ({"vison": {"config": {"width": 32}}}, "vison: unknown model config key"),
    ({"llm": {"name": "gemma_tiny"}},
     "llm: unknown llm component 'gemma_tiny'; available: phi_tiny"),
    ({"llm": {"name": "llama_tiny"}},
     "llm: unknown llm component 'llama_tiny'; available: phi_tiny"),
    ({"vision": {"name": "siglip_tiny"}},
     "vision: unknown vision component 'siglip_tiny'; available: clip_tiny, dino_tiny"),
    ({"connector": {"name": "mlp", "config": {"queries": 99, "depth": 7, "heads": 3}}},
     "connector: unknown ConnectorConfig keys: depth, heads, queries"),
    ({"connector": {"name": "identity", "config": {"heads": 2}}},
     "connector: unknown ConnectorConfig keys: heads"),
    ({"image_tokens": 999}, "image_tokens: 999 is not the 4 image tokens"),
    ({"connector": {"name": "qformer", "config": {"queries": 3}}, "image_tokens": 4},
     "image_tokens: 4 is not the 3 image tokens"),
    ({"image_tokens": "4"}, "image_tokens: image_tokens must be an integer, got '4'"),
    ({"image_tokens": 4.0}, "image_tokens: image_tokens must be an integer, got 4.0"),
    ({"image_tokens": True}, "image_tokens: image_tokens must be an integer, got True"),
]


@pytest.mark.parametrize("cfg, message", BAD_MODEL_CONFIGS)
def test_build_model_rejects_bad_config_naming_the_key(cfg, message):
    with pytest.raises(ValidationError) as ei:
        build_model(cfg, seed=0)
    assert message in str(ei.value)


@pytest.mark.parametrize("config_cls, field, value", [
    (VisionTowerConfig, "patch_size", 0),
    (VisionTowerConfig, "depth", -1),
    (LLMConfig, "heads", True),
    (LLMConfig, "max_positions", 0),
    (QueryConfig, "queries", 0),
    (ConnectorConfig, "d_v", "64"),
])
def test_config_construction_checks_fields(config_cls, field, value):
    with pytest.raises(ValidationError) as ei:
        config_cls(**{field: value})
    assert f"{config_cls.__name__}.{field} must be an integer" in str(ei.value)


def test_config_fields_take_a_numpy_integer_as_the_int():
    width = VisionTowerConfig(width=np.int64(32), heads=2).width
    assert type(width) is int and width == 32


@pytest.mark.parametrize("cfg, derived", [
    ({}, 4),
    ({"mof": {}}, 8),
    ({"connector": {"name": "qformer", "config": {"queries": 3}}}, 3),
])
def test_image_tokens_follow_from_the_components_and_may_be_restated(cfg, derived):
    assert resolve_model_config(cfg)["image_tokens"] == derived
    assert resolve_model_config({**cfg, "image_tokens": derived})["image_tokens"] == derived


@pytest.mark.parametrize("cls, config, want", [
    (MlpConnector, QueryConfig(), "mlp connector takes a ConnectorConfig, got QueryConfig"),
    (ResamplerConnector, ConnectorConfig(),
     "resampler connector takes a QueryConfig, got ConnectorConfig"),
    (QFormerConnector, ConnectorConfig(),
     "qformer connector takes a QueryConfig, got ConnectorConfig"),
])
def test_connector_refuses_a_config_of_another_class(cls, config, want):
    with pytest.raises(ValidationError, match=f"^{want}$"):
        cls(config, Rng(0))


# A small valid config per kind, and per field a second value that keeps it valid.
FIELD_VALUES = {
    "vision": ({"image_size": 16, "patch_size": 8, "width": 32, "depth": 1, "heads": 2},
               {"image_size": 24, "patch_size": 4, "width": 48, "depth": 2, "heads": 4}),
    "llm": ({"width": 32, "depth": 1, "heads": 2, "max_positions": 16},
            {"width": 48, "depth": 2, "heads": 4, "max_positions": 24}),
    "connector": ({"d_v": 32, "d_m": 32, "queries": 3, "depth": 1, "heads": 2},
                  {"d_v": 48, "d_m": 48, "queries": 5, "depth": 2, "heads": 4}),
}


def _built_signature(kind, name, cfg):
    """Parameter shapes, then the forward output's shape and bytes on a fixed input
    sized for `cfg`, of the component `name` built from `cfg`."""
    component = registry.create(kind, name, cfg, Rng(0))
    rng = np.random.default_rng(0)
    if kind == "vision":
        x = rng.uniform(-1, 1, (3, cfg["image_size"], cfg["image_size"])).astype(np.float32)
    else:
        x = Tensor(rng.normal(size=(5, cfg["width" if kind == "llm" else "d_v"]))
                   .astype(np.float32))
    out = component(x).data
    return [t.shape for t in component.parameters()], out.shape, out.tobytes()


@pytest.mark.parametrize("kind, name, field", [
    (kind, name, f.name) for kind in FIELD_VALUES for name in registry.names(kind)
    for f in fields(registry.require(kind, name).config_class)])
def test_every_config_field_changes_the_built_component(kind, name, field):
    base, other = FIELD_VALUES[kind]
    a = {f.name: base[f.name] for f in fields(registry.require(kind, name).config_class)}
    b = {**a, field: other[field]}
    if name == "identity":      # d_v == d_m, so the two change together
        b.update(d_v=other[field], d_m=other[field])
    assert _built_signature(kind, name, a) != _built_signature(kind, name, b)


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
