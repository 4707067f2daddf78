"""One bad input per error check, with the `VlmkitError` subclass it must raise.

The table holds the checks in `src/vlmkit` that no other test reaches, so
that together with those tests every `raise` in the package runs in tier-1.
"""

import numpy as np
import pytest

from vlmkit.data import (ByteTokenizer, ChatTemplate, collate, load_dataset, preprocess_image,
                         write_ppm)
from vlmkit.errors import DimensionError, RegistryError, ValidationError
from vlmkit.model import (LanguageModel, LLMConfig, MultiHeadAttention, VisionTowerConfig,
                          build_model, compose_multimodal)
from vlmkit.model.layers import interleave_rows
from vlmkit.numerics import (Rng, Tensor, backward, concat, embedding, grad_check, layer_norm,
                             masked_cross_entropy, matmul, narrow, reshape, scale, transpose,
                             tsum)
from vlmkit.registry import registry


def _t(*shape, grad=False):
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=grad)


def _non_array_dataset(tmp):
    path = tmp / "d.json"
    path.write_text("{}", encoding="utf-8")
    return load_dataset(str(path))


def _llm():
    return LanguageModel(LLMConfig(width=8, depth=0, heads=2, max_positions=8), Rng(0))


def _image_index_past_the_end(tmp):
    return compose_multimodal(np.array([1, 2]), None, _t(2, 8), 2, _llm())


ERRORS = [
    # data
    pytest.param(ValidationError, _non_array_dataset, id="load_dataset-not-array"),
    pytest.param(ValidationError, lambda tmp: write_ppm(str(tmp / "x.ppm"), np.zeros((2, 2))),
                 id="write_ppm-shape"),
    pytest.param(ValidationError, lambda tmp: preprocess_image(np.zeros((2, 4, 4)), 4),
                 id="preprocess-shape"),
    pytest.param(ValidationError, lambda tmp: preprocess_image(np.zeros((3, 4, 4)), 4, "crop"),
                 id="preprocess-aspect"),
    pytest.param(ValidationError, lambda tmp: collate([], 8), id="collate-empty"),
    pytest.param(ValidationError, lambda tmp: ByteTokenizer().decode([999]), id="decode-id"),
    pytest.param(ValidationError, lambda tmp: ChatTemplate("t", add_eos_after_assistant=False),
                 id="template-no-terminator"),
    # model configs and layers
    pytest.param(ValidationError, lambda tmp: LLMConfig(width=30, heads=4), id="llm-heads"),
    pytest.param(ValidationError, lambda tmp: VisionTowerConfig(image_size=15),
                 id="vision-patch"),
    pytest.param(ValidationError, lambda tmp: VisionTowerConfig(width=30, heads=4),
                 id="vision-heads"),
    pytest.param(DimensionError, lambda tmp: MultiHeadAttention(30, 4, Rng(0)), id="mha-heads"),
    pytest.param(DimensionError, lambda tmp: interleave_rows(_t(2, 4), _t(3, 4)),
                 id="interleave"),
    # composition
    pytest.param(ValidationError, _image_index_past_the_end, id="compose-index"),
    pytest.param(ValidationError,
                 lambda tmp: compose_multimodal(np.array([1, 2]), None, _t(2, 8), 0.5, _llm()),
                 id="compose-index-float"),
    pytest.param(ValidationError,
                 lambda tmp: compose_multimodal(np.array([1, 2]), None, _t(2, 8), 1, _llm()),
                 id="compose-index-not-image"),
    pytest.param(ValidationError,
                 lambda tmp: build_model({"connector": {"name": "linear", "config": {"d_m": 32}}},
                                         0),
                 id="resolve-d_m"),
    # registry
    pytest.param(RegistryError, lambda tmp: registry.names("nope"), id="registry-kind"),
    # numerics
    pytest.param(ValidationError, lambda tmp: grad_check(tsum, _t(2)), id="grad_check-frozen"),
    pytest.param(ValidationError, lambda tmp: grad_check(lambda x: x, _t(2, grad=True)),
                 id="grad_check-not-scalar"),
    pytest.param(ValidationError, lambda tmp: grad_check(lambda x: tsum(_t(2, grad=True)),
                                                         _t(2, grad=True)),
                 id="grad_check-unused"),
    pytest.param(ValidationError, lambda tmp: _t(2).item(), id="item"),
    pytest.param(ValidationError, lambda tmp: backward(_t(1)), id="backward-unrecorded"),
    pytest.param(DimensionError, lambda tmp: matmul(_t(3), _t(3, 3)), id="matmul-1d"),
    pytest.param(DimensionError, lambda tmp: layer_norm(_t(2, 3), _t(4), _t(4)),
                 id="layer_norm-gain"),
    pytest.param(DimensionError, lambda tmp: masked_cross_entropy(_t(3), [0, 0, 0]),
                 id="cross_entropy-1d"),
    pytest.param(DimensionError, lambda tmp: masked_cross_entropy(_t(3, 5), [0, 0]),
                 id="cross_entropy-labels"),
    pytest.param(ValidationError, lambda tmp: concat([]), id="concat-empty"),
    pytest.param(DimensionError, lambda tmp: concat([_t(2, 3), _t(2, 4)]), id="concat-shapes"),
    pytest.param(DimensionError, lambda tmp: concat([_t(2, 3)], axis=2), id="concat-axis"),
    pytest.param(DimensionError, lambda tmp: embedding(_t(4, 2), [[0]]), id="embedding-2d"),
    pytest.param(ValidationError, lambda tmp: embedding(_t(4, 2), [4]), id="embedding-range"),
    pytest.param(DimensionError, lambda tmp: narrow(_t(3, 2), 0, 1, -1), id="narrow-length"),
    pytest.param(DimensionError, lambda tmp: narrow(_t(3, 2), 5, 0, 1), id="narrow-axis"),
    pytest.param(DimensionError, lambda tmp: narrow(_t(3, 2), 0, -1, 1), id="narrow-start"),
    pytest.param(DimensionError, lambda tmp: reshape(_t(2, 3), (4,)), id="reshape-size"),
    pytest.param(DimensionError, lambda tmp: transpose(_t(2, 3), (0, 0)), id="transpose-axes"),
    pytest.param(ValidationError, lambda tmp: embedding(_t(4, 2), [1.7]), id="embedding-float"),
    pytest.param(ValidationError, lambda tmp: embedding(_t(4, 2), [True, False]),
                 id="embedding-bool"),
    pytest.param(ValidationError, lambda tmp: masked_cross_entropy(_t(3, 5), [0.0, 1.5, 2.0]),
                 id="cross_entropy-float-labels"),
    pytest.param(ValidationError, lambda tmp: narrow(_t(3, 2), 0.0, 0, 1), id="narrow-axis-float"),
    pytest.param(ValidationError, lambda tmp: narrow(_t(3, 2), 0, 0.5, 1),
                 id="narrow-start-float"),
    pytest.param(ValidationError, lambda tmp: narrow(_t(3, 2), 0, 0, True),
                 id="narrow-length-bool"),
    pytest.param(ValidationError, lambda tmp: scale(_t(2), "a"), id="scale-str"),
    pytest.param(ValidationError, lambda tmp: scale(_t(2), True), id="scale-bool"),
    pytest.param(ValidationError,
                 lambda tmp: compose_multimodal(np.array([1, 2]), np.array([0, 1], np.uint64),
                                                None, None, _llm()),
                 id="compose-labels-unsigned"),
]


@pytest.mark.parametrize("error, call", ERRORS)
def test_bad_input_raises_its_error(error, call, tmp_path):
    with pytest.raises(error) as ei:
        call(tmp_path)
    assert type(ei.value) is error, repr(ei.value)


@pytest.mark.parametrize("call, prefix", [
    pytest.param(lambda: embedding(_t(4, 2), [1.7]), "embedding ids must be integers",
                 id="embedding"),
    pytest.param(lambda: masked_cross_entropy(_t(3, 5), [0.0, 1.5, 2.0]),
                 "masked_cross_entropy labels must be integers", id="cross_entropy"),
    pytest.param(lambda: narrow(_t(3, 2), 0, 0.5, 1), "narrow start must be an integer",
                 id="narrow"),
    pytest.param(lambda: scale(_t(2), "a"), "scale factor must be a real number", id="scale"),
])
def test_index_and_factor_checks_name_the_op(call, prefix):
    with pytest.raises(ValidationError) as ei:
        call()
    assert str(ei.value).startswith(prefix), str(ei.value)


def test_integer_ops_keep_the_callers_integer_dtype():
    table = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
    for dtype in (np.int32, np.uint8):
        np.testing.assert_array_equal(embedding(table, np.array([3, 0], dtype=dtype)).data,
                                      table.data[[3, 0]])
    assert embedding(table, []).shape == (0, 2)
