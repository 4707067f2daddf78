"""One bad input per error check, with the `VlmkitError` subclass it must raise.

The table holds the checks in `src/vlmkit` that no other test reaches, so
that together with those tests every `raise` in the package runs in tier-1.
"""

import json

import numpy as np
import pytest

from vlmkit.data import (ByteTokenizer, ChatTemplate, Conversation, Turn, bilinear_resize,
                         collate, load_dataset, load_ppm, preprocess_image, resolve_image_path,
                         synth_vqa_generate, write_ppm)
from vlmkit.errors import DimensionError, RegistryError, ValidationError
from vlmkit.model import (LanguageModel, LLMConfig, MultiHeadAttention, VisionTowerConfig,
                          build_model, compose_multimodal)
from vlmkit.model.layers import interleave_rows
from vlmkit.numerics import (Rng, Tensor, backward, concat, embedding, grad_check, layer_norm,
                             masked_cross_entropy, matmul, narrow, reshape, scale, softmax,
                             transpose, tsum)
from vlmkit.registry import registry


def _t(*shape, grad=False):
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=grad)


def _non_array_dataset(tmp):
    path = tmp / "d.json"
    path.write_text("{}", encoding="utf-8")
    return load_dataset(str(path))


def _surrogate_image_dataset(tmp):
    path = tmp / "d.json"
    path.write_text(json.dumps([{"image": "x\ud800.ppm", "conversations": [
        {"from": "human", "value": "<image>q"}, {"from": "gpt", "value": "a"}]}]))
    return load_dataset(str(path))


def _nul_image_dataset(tmp):
    path = tmp / "d.json"
    path.write_text(json.dumps([{"image": "im\u0000g.ppm", "conversations": [
        {"from": "human", "value": "<image>q"}, {"from": "gpt", "value": "a"}]}]))
    return load_dataset(str(path))


def _llm():
    return LanguageModel(LLMConfig(width=8, depth=0, heads=2, max_positions=8), Rng(0))


def _image_index_past_the_end(tmp):
    return compose_multimodal(np.array([1, 2]), None, _t(2, 8), 2, _llm())


def _write_into_missing_dir(tmp):
    path = str(tmp / "missing" / "x.ppm")
    return lambda: write_ppm(path, np.zeros((2, 2, 3), np.uint8)), path


def _synth_under_a_file(tmp):
    (tmp / "file").write_text("x", encoding="utf-8")
    path = str(tmp / "file" / "work")
    return lambda: synth_vqa_generate(path, 1, 0, "train"), path


def _synth_json_onto_a_dir(tmp):
    (tmp / "train.json").mkdir()
    return lambda: synth_vqa_generate(str(tmp), 1, 0, "train"), str(tmp / "train.json")


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
    pytest.param(ValidationError, lambda tmp: ChatTemplate("t", system_message=None),
                 id="template-field-type"),
    pytest.param(ValidationError, lambda tmp: load_ppm(str(tmp / "x\ud800.ppm")),
                 id="load_ppm-surrogate-path"),
    pytest.param(ValidationError, _surrogate_image_dataset, id="load_dataset-surrogate-image"),
    pytest.param(ValidationError, lambda tmp: ChatTemplate("t", system_message="look: <image> "),
                 id="template-image"),
    pytest.param(ValidationError, lambda tmp: load_ppm(str(tmp / "x\0.ppm")),
                 id="load_ppm-nul-path"),
    pytest.param(ValidationError, lambda tmp: load_dataset(str(tmp / "d\0.json")),
                 id="load_dataset-nul-path"),
    pytest.param(ValidationError, lambda tmp: load_dataset(str(tmp / "d\ud800.json")),
                 id="load_dataset-surrogate-path"),
    pytest.param(ValidationError,
                 lambda tmp: write_ppm(str(tmp / "x\0.ppm"), np.zeros((2, 2, 3), np.uint8)),
                 id="write_ppm-nul-path"),
    pytest.param(ValidationError,
                 lambda tmp: write_ppm(str(tmp / "x\ud800.ppm"), np.zeros((2, 2, 3), np.uint8)),
                 id="write_ppm-surrogate-path"),
    pytest.param(ValidationError, lambda tmp: synth_vqa_generate(str(tmp / "w\0"), 1, 0, "train"),
                 id="synth-nul-workdir"),
    pytest.param(ValidationError, _nul_image_dataset, id="load_dataset-nul-image"),
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
    pytest.param(ValidationError, lambda tmp: softmax(_t(2, 3), True), id="softmax-factor-bool"),
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


@pytest.mark.parametrize("call, name, message", [
    pytest.param(load_ppm, "x\0.ppm", "cannot read (embedded null byte)", id="load_ppm"),
    pytest.param(load_dataset, "d\0.json", "cannot read (embedded null byte)", id="load_dataset"),
    pytest.param(lambda path: write_ppm(path, np.zeros((2, 2, 3), np.uint8)), "x\0.ppm",
                 "cannot write (embedded null byte)", id="write_ppm"),
    pytest.param(lambda path: synth_vqa_generate(path, 1, 0, "train"), "w\0",
                 "cannot write (embedded null byte)", id="synth_vqa_generate"),
    pytest.param(load_dataset, "d\ud800.json",
                 "cannot read, the path holds '\\ud800', which UTF-8 cannot encode",
                 id="load_dataset-surrogate"),
    pytest.param(lambda path: write_ppm(path, np.zeros((2, 2, 3), np.uint8)), "x\ud800.ppm",
                 "cannot write, the path holds '\\ud800', which UTF-8 cannot encode",
                 id="write_ppm-surrogate"),
])
def test_a_path_no_os_call_takes_is_named(tmp_path, call, name, message):
    path = str(tmp_path / name)
    with pytest.raises(ValidationError) as ei:
        call(path)
    assert str(ei.value) == f"{path!r}: {message}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setup, strerror", [
    pytest.param(_write_into_missing_dir, "No such file or directory", id="write_ppm-missing-dir"),
    pytest.param(_synth_under_a_file, "Not a directory", id="synth-workdir-under-file"),
    pytest.param(_synth_json_onto_a_dir, "Is a directory", id="synth-json-is-a-dir"),
])
def test_a_write_the_os_refuses_names_the_path(tmp_path, setup, strerror):
    call, path = setup(tmp_path)
    with pytest.raises(ValidationError) as ei:
        call()
    assert type(ei.value) is ValidationError
    assert str(ei.value) == f"{path}: cannot write ({strerror})"


def test_a_record_image_path_with_nul_is_refused_by_record(tmp_path):
    with pytest.raises(ValidationError) as ei:
        _nul_image_dataset(tmp_path)
    assert str(ei.value) == "record 0: 'image' holds '\\x00', which no file path can hold"


@pytest.mark.parametrize("img, out_h, out_w, name", [
    pytest.param(np.zeros((3, 4, 4)), 0, 2, "out_h", id="out_h-0"),
    pytest.param(np.zeros((3, 4, 4)), -1, 2, "out_h", id="out_h-neg"),
    pytest.param(np.zeros((3, 4, 4)), 2.5, 2, "out_h", id="out_h-float"),
    pytest.param(np.zeros((3, 4, 4)), True, 2, "out_h", id="out_h-bool"),
    pytest.param(np.zeros((3, 4, 4)), 2, 0, "out_w", id="out_w-0"),
    pytest.param(np.zeros((3, 4, 4)), 2, "2", "out_w", id="out_w-str"),
    pytest.param(np.zeros((4, 4)), 2, 2, "img", id="img-2d"),
    pytest.param([[[0.0]]], 2, 2, "img", id="img-list"),
    pytest.param(np.zeros((3, 0, 4)), 2, 2, "img", id="img-zero-height"),
    pytest.param(np.zeros((3, 4, 0)), 2, 2, "img", id="img-zero-width"),
])
def test_bilinear_resize_refuses_by_name(img, out_h, out_w, name):
    with pytest.raises(ValidationError) as ei:
        bilinear_resize(img, out_h, out_w)
    assert type(ei.value) is ValidationError and str(ei.value).startswith(name), str(ei.value)


@pytest.mark.parametrize("call, prefix", [
    pytest.param(lambda: embedding(_t(4, 2), [1.7]), "embedding ids must be integers",
                 id="embedding"),
    pytest.param(lambda: masked_cross_entropy(_t(3, 5), [0.0, 1.5, 2.0]),
                 "masked_cross_entropy labels must be integers", id="cross_entropy"),
    pytest.param(lambda: narrow(_t(3, 2), 0, 0.5, 1), "narrow start must be an integer",
                 id="narrow"),
    pytest.param(lambda: scale(_t(2), "a"), "scale factor must be a real number", id="scale"),
    pytest.param(lambda: softmax(_t(2), "a"), "softmax factor must be a real number",
                 id="softmax"),
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


# Each invalid conversation is built in the test body, since the constructor
# refuses it: a `Conversation` that exists is valid.
@pytest.mark.parametrize("fields, message", [
    pytest.param(("x", None, None),
                 "turns must be a list of Turn, got NoneType", id="turns-none"),
    pytest.param(("x", None, "q"), "turns must be a list of Turn, got str",
                 id="turns-str"),
    pytest.param(("x", None, [("human", "q")]), "turn 0 must be a Turn, got tuple",
                 id="turn-tuple"),
    pytest.param(("x", None, [Turn("human", None)]),
                 "turn 0 role and text must be strings, got str and NoneType", id="text-none"),
    pytest.param(("x", None, [Turn(None, "q")]),
                 "turn 0 role and text must be strings, got NoneType and str", id="role-none"),
    pytest.param(("x", None, (Turn("human", "q"), Turn("assistant", b"a"))),
                 "turn 1 role and text must be strings, got str and bytes", id="text-bytes"),
])
def test_a_conversation_field_of_the_wrong_type_is_named(fields, message):
    with pytest.raises(ValidationError) as ei:
        Conversation(*fields)
    assert type(ei.value) is ValidationError
    assert str(ei.value) == f"conversation 'x': {message}"


@pytest.mark.parametrize("fields, message", [
    pytest.param((["x"], None, []), "conversation id must be a string, got ['x']",
                 id="id-list"),
    pytest.param(("x", 5, [Turn("human", "<image>q"), Turn("assistant", "a")]),
                 "conversation 'x': image path must be a string, got int", id="image-path-int"),
])
def test_a_conversation_id_or_image_path_of_the_wrong_type_is_named(fields, message):
    with pytest.raises(ValidationError) as ei:
        Conversation(*fields)
    assert type(ei.value) is ValidationError
    assert str(ei.value) == message


@pytest.mark.parametrize("args, message", [
    pytest.param(("d.json", None), "image_rel must be a string, got None", id="image_rel-none"),
    pytest.param(("d.json", 5), "image_rel must be a string, got 5", id="image_rel-int"),
    pytest.param((None, "x.ppm"), "dataset_path must be a string, got None",
                 id="dataset_path-none"),
])
def test_resolve_image_path_names_an_argument_that_is_not_a_string(args, message):
    with pytest.raises(ValidationError) as ei:
        resolve_image_path(*args)
    assert type(ei.value) is ValidationError
    assert str(ei.value) == message


# Wrong JSON types that `tests/test_data.py`'s malformed-record table does not
# hold; the record parser refuses them before a Conversation exists.
@pytest.mark.parametrize("record, message", [
    pytest.param({"conversations": None}, "'conversations' must be an array, got NoneType",
                 id="conversations-null"),
    pytest.param({"conversations": [None]}, "turn 0 must be an object, got NoneType",
                 id="turn-null"),
    pytest.param({"conversations": [{"from": "human", "value": 5}]},
                 "turn 0 'value' must be a string, got int", id="value-int"),
    pytest.param({"conversations": [{"from": 5, "value": "q"}]},
                 "turn 0 has unknown 'from' value 5", id="from-int"),
])
def test_a_record_field_of_the_wrong_type_is_named_by_record(tmp_path, record, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps([{"id": "a"}, record]), encoding="utf-8")
    with pytest.raises(ValidationError) as ei:
        load_dataset(str(path))
    assert type(ei.value) is ValidationError
    assert str(ei.value) == f"record 1: {message}"
