"""Fuzzing the error contract of the data loaders and the tokenizers.

For any input, `load_dataset` and `load_ppm` either return a well-formed
result or raise a `VlmkitError` that names the record or the file;
`tokenize_and_label` and `tokenize_prompt` either raise a `VlmkitError` or
return ids and labels that agree with each other and with the template;
`collate` either batches its samples or raises a `VlmkitError` that names
the sample (or `pad_to`, when that is not an integer of at least 1); `resolve_model_config`
either resolves a config or raises a `VlmkitError` that starts with the key
it is about; `lr_schedule` either keeps its endpoints (exactly `peak_lr`
where warmup ends, exactly 0 at `total_steps`) or raises a `VlmkitError`
that names the argument.
"""

import json
import math
import re
from dataclasses import fields

import numpy as np
from hypothesis import example, given, strategies as st

from helpers import FUZZ
from vlmkit.data import (BUILTIN_TEMPLATES, IMAGE_ID, IMAGE_PLACEHOLDER, PAD_ID, ByteTokenizer,
                         Conversation, Turn, collate, load_dataset, load_ppm,
                         render_prompt, tokenize_and_label, tokenize_prompt)
from vlmkit.data.conversations import ROLE_ASSISTANT, ROLE_HUMAN
from vlmkit.errors import VlmkitError
from vlmkit.model import ConnectorConfig, LLMConfig, VisionTowerConfig, resolve_model_config
from vlmkit.numerics import lr_schedule
from vlmkit.numerics.ops import IGNORE_INDEX

# -- load_dataset ------------------------------------------------------------------

JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

TEXTS = st.sampled_from(["", "hi", "red", "<image>\nwhat is it?", "<image>", "café"])
TURNS = st.fixed_dictionaries(
    {"from": st.sampled_from(["human", "gpt"]) | JSON_VALUES},
    optional={"value": TEXTS | JSON_VALUES})
RECORDS = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["a", "b", "0", "1"]) | JSON_VALUES,
    "image": st.sampled_from(["x.ppm", "img/a.ppm", ""]) | JSON_VALUES,
    "conversations": st.lists(TURNS | JSON_VALUES, max_size=4) | JSON_VALUES,
}) | JSON_VALUES

QUESTION = [{"from": "human", "value": "<image>\nq"}, {"from": "gpt", "value": "a"}]


@FUZZ
@given(records=st.lists(RECORDS, max_size=4))
@example(records=[{"conversations": ["x"]}])
@example(records=[{"conversations": 5}])
@example(records=[{"id": "a", "image": 3, "conversations": QUESTION}])
@example(records=[{"id": "a", "image": "x.ppm", "conversations": QUESTION},
                  {"id": "a", "image": "y.ppm", "conversations": QUESTION}])
@example(records=[{"id": None}])
@example(records=[{"id": 1}, {"id": "1"}])
@example(records=[{"id": "1"}, {}])
def test_load_dataset_loads_or_names_the_record(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "fuzz_dataset.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    try:
        convs = load_dataset(str(path))
    except VlmkitError as exc:
        named = re.match(r"record (\d+): ", str(exc))
        assert named and int(named.group(1)) < len(records), str(exc)
        earlier = re.search(r"already used by record (\d+)", str(exc))
        assert earlier is None or int(earlier.group(1)) < int(named.group(1)), str(exc)
        return
    assert len(convs) == len(records)
    assert len({c.id for c in convs}) == len(convs)
    for i, (rec, conv) in enumerate(zip(records, convs)):
        assert conv.id == rec.get("id", str(i))
        assert conv.image_path is None or (isinstance(conv.image_path, str) and conv.image_path)
        for turn in conv.turns:
            assert turn.role in (ROLE_HUMAN, ROLE_ASSISTANT)
            assert isinstance(turn.text, str)


# -- load_ppm ------------------------------------------------------------------------

# A header field is either a decimal integer or arbitrary bytes.
FIELDS = st.integers(-3, 5) | st.binary(min_size=1, max_size=3)
DECIMAL = re.compile(rb"-?[0-9]+")


def _field(value):
    return str(value).encode() if isinstance(value, int) else value


@FUZZ
@given(magic=st.sampled_from([b"P6", b"P5", b"P3"]), width=FIELDS, height=FIELDS,
       maxval=st.sampled_from([255, 0, 65535]) | FIELDS,
       comment=st.booleans(), extra=st.integers(-2, 2))
@example(magic=b"P6", width=-2, height=2, maxval=255, comment=False, extra=0)
@example(magic=b"P6", width=0, height=0, maxval=255, comment=False, extra=0)
@example(magic=b"P6", width=b"1_0", height=1, maxval=255, comment=False, extra=18)
@example(magic=b"P6", width=b"+1", height=1, maxval=255, comment=False, extra=0)
@example(magic=b"P6", width=b"7", height=1, maxval=255, comment=False, extra=0)
def test_load_ppm_loads_or_names_the_field(tmp_path_factory, magic, width, height, maxval,
                                          comment, extra):
    fields = [_field(f) for f in (width, height, maxval)]
    header = magic + b"\n" + (b"# fuzz\n" if comment else b"") + b" ".join(fields) + b"\n"
    # A field counts as an integer only when it is written in decimal.
    width, height, maxval = (int(f) if DECIMAL.fullmatch(f) else None for f in fields)
    sized = width is not None and height is not None
    need = 3 * max(width, 0) * max(height, 0) if sized else 12
    path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
    path.write_bytes(header + bytes(range(256))[:max(need + extra, 0)])
    ints = sized and maxval is not None
    try:
        img = load_ppm(str(path))
    except VlmkitError as exc:
        assert str(path) in str(exc)
        if magic == b"P6" and ints and width <= 0:
            assert "width" in str(exc)
        elif magic == b"P6" and ints and height <= 0:
            assert "height" in str(exc)
        return
    assert ints and magic == b"P6" and maxval == 255
    assert img.shape == (3, height, width) and height >= 1 and width >= 1
    assert img.min() >= 0.0 and img.max() <= 1.0


# -- tokenize_and_label, tokenize_prompt -----------------------------------------------

TOK = ByteTokenizer()
# Any text, multi-byte UTF-8 included; some with image placeholders.
PLAIN_TEXTS = st.text(max_size=8)
TURN_TEXTS = PLAIN_TEXTS | st.lists(PLAIN_TEXTS, min_size=2, max_size=3).map("<image>".join)
ROLES = st.sampled_from([ROLE_HUMAN, ROLE_ASSISTANT, "gpt", ""])


@st.composite
def conversations(draw):
    """Often well-formed (alternating roles, one image in the first turn), often not."""
    n = draw(st.integers(0, 5))
    alternating = [ROLE_ASSISTANT if i % 2 else ROLE_HUMAN for i in range(n)]
    roles = draw(st.just(alternating) | st.lists(ROLES, min_size=n, max_size=n))
    texts = draw(st.lists(PLAIN_TEXTS, min_size=n, max_size=n)
                 | st.lists(TURN_TEXTS, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        at = draw(st.integers(0, len(texts[0])))
        texts[0] = texts[0][:at] + "<image>" + texts[0][at:]
    has_image = any("<image>" in t for t in texts)
    image_path = draw(st.just("x.ppm" if has_image else None) | st.sampled_from([None, "x.ppm"]))
    return Conversation("f", image_path, [Turn(r, t) for r, t in zip(roles, texts)])


@FUZZ
@given(conv=conversations(), tpl=st.sampled_from(list(BUILTIN_TEMPLATES.values())))
@example(conv=Conversation("split", None,
                          [Turn(ROLE_HUMAN, "q<ima"), Turn(ROLE_ASSISTANT, "ge>")]),
         tpl=BUILTIN_TEMPLATES["plain"])
def test_tokenize_labels_or_raises(conv, tpl):
    try:
        full = tokenize_and_label(conv, tpl, TOK, require_assistant=False)
    except VlmkitError:
        return
    ids, labels = full.input_ids, full.labels
    assert len(labels) == len(ids)
    sup = labels != IGNORE_INDEX
    assert (labels[sup] == ids[sup]).all()
    # Every placeholder a render shows is an IMAGE token.
    assert render_prompt(conv, tpl).count(IMAGE_PLACEHOLDER) == (ids == IMAGE_ID).sum()

    prompt, image_index = tokenize_prompt(conv, tpl, TOK)
    assert image_index == full.image_token_index
    rendered = render_prompt(conv, tpl, include_last_assistant=False)
    assert rendered.count(IMAGE_PLACEHOLDER) == (prompt == IMAGE_ID).sum()
    last = conv.turns[-1] if conv.turns else None
    if last is None:
        np.testing.assert_array_equal(prompt, ids)
    elif last.role == ROLE_ASSISTANT:
        # Cut at the start of the last answer span: its text, suffix and EOS.
        span = (len(TOK.encode(last.text)) + len(TOK.encode(tpl.assistant_suffix))
                + int(tpl.add_eos_after_assistant))
        np.testing.assert_array_equal(prompt, ids[:len(ids) - span])
        assert sup[len(ids) - span:].all()
    else:
        prefix = TOK.encode(tpl.assistant_prefix)
        np.testing.assert_array_equal(prompt, np.concatenate([ids, prefix]))


# -- collate ---------------------------------------------------------------------------


# Any UTF-8 text but "<", so that only the drawn placeholder makes an image token.
COLLATE_TEXTS = st.text(st.characters(codec="utf-8", exclude_characters="<"), max_size=8)
INT_DTYPES = st.sampled_from([np.int32, np.int16, np.int64])


@st.composite
def tokenized_samples(draw, index):
    """A labeled sample with multi-byte text, often with an image of one of two sizes."""
    question, answer = draw(COLLATE_TEXTS), draw(COLLATE_TEXTS)
    has_image = draw(st.booleans())
    if has_image:
        at = draw(st.integers(0, len(question)))
        question = question[:at] + "<image>" + question[at:]
    conv = Conversation(f"s{index}", "x.ppm" if has_image else None,
                        [Turn(ROLE_HUMAN, question), Turn(ROLE_ASSISTANT, answer)])
    sample = tokenize_and_label(conv, draw(st.sampled_from(list(BUILTIN_TEMPLATES.values()))),
                                TOK)
    if has_image:
        size = draw(st.sampled_from([2, 3]))
        sample.image = np.zeros((3, size, size), dtype=np.float32)
    # Other integer dtypes, so that collate's output dtype is the promoted one.
    sample.input_ids = sample.input_ids.astype(draw(INT_DTYPES))
    sample.labels = sample.labels.astype(draw(INT_DTYPES))
    return sample


COLLATE_CASES = st.integers(1, 4).flatmap(
    lambda b: st.tuples(st.tuples(*(tokenized_samples(i) for i in range(b))),
                        st.integers(-2, 48)))


def _collate_case(image_sizes, pad_to):
    """Samples "日日" + [image] + "é" + EOS under `plain` (ids: 6 text bytes,
    the image token at index 6 when there is one, then 3 more), one per
    entry of `image_sizes` (None: text only)."""
    samples = []
    for i, size in enumerate(image_sizes):
        conv = Conversation(f"s{i}", None if size is None else "x.ppm",
                            [Turn(ROLE_HUMAN, "日日" + ("" if size is None else "<image>")),
                             Turn(ROLE_ASSISTANT, "é")])
        sm = tokenize_and_label(conv, BUILTIN_TEMPLATES["plain"], TOK)
        if size is not None:
            sm.image = np.zeros((3, size, size), dtype=np.float32)
        samples.append(sm)
    return tuple(samples), pad_to


def _stacked_collate(samples, pad_to):
    """`collate` by concatenate-and-stack, the reference for its preallocated
    fill: each row cut, padded by concatenation, then stacked. Compared on ids,
    labels (values and dtype), lengths, indices, truncated and images."""
    ids, labels, lengths = [], [], []
    for sm in samples:
        cut = min(len(sm), pad_to)
        while cut < len(sm) and cut > 0 and 0x80 <= int(sm.input_ids[cut]) <= 0xBF:
            cut -= 1
        lengths.append(cut)
        ids.append(np.concatenate(
            [sm.input_ids[:cut], np.full(pad_to - cut, PAD_ID, dtype=np.int32)]))
        labels.append(np.concatenate(
            [sm.labels[:cut], np.full(pad_to - cut, IGNORE_INDEX, dtype=np.int32)]))
    with_image = [sm.image is not None for sm in samples]
    images = None
    if all(with_image):
        images = np.stack([sm.image for sm in samples])
    elif any(with_image):
        images = [sm.image for sm in samples]
    return (np.stack(ids), np.stack(labels), lengths,
            [sm.image_token_index for sm in samples], sum(len(sm) > pad_to for sm in samples),
            images)


@FUZZ
@given(case=COLLATE_CASES)
@example(case=_collate_case([None], 0))
@example(case=_collate_case([None], -1))       # a negative cut would keep ids[:-1]
@example(case=_collate_case([None], 4))        # cut inside the second character
@example(case=_collate_case([2, None], 6))     # cut right at the placeholder
@example(case=_collate_case([2, None], 7))     # cut right after it
@example(case=_collate_case([2, None], 10))    # mixed batch, nothing cut
@example(case=_collate_case([2, 3], 10))       # images of two sizes
@example(case=_collate_case([None], 3.5))      # a float would index the ids
def test_collate_batches_or_names_the_sample(case):
    samples, pad_to = case
    try:
        batch = collate(list(samples), pad_to)
    except VlmkitError as exc:
        if not isinstance(pad_to, int) or pad_to < 1:
            assert "pad_to" in str(exc), str(exc)
        else:
            assert any(f"'{sm.conv_id}'" in str(exc) for sm in samples), str(exc)
        return
    assert isinstance(pad_to, int) and pad_to >= 1
    assert batch.ids.shape == batch.labels.shape == (len(samples), pad_to)
    assert batch.truncated == sum(len(sm) > pad_to for sm in samples)
    for row, sm in enumerate(samples):
        kept = batch.lengths[row]
        assert kept == len(sm) if len(sm) <= pad_to else pad_to - 3 <= kept <= pad_to
        np.testing.assert_array_equal(batch.ids[row, :kept], sm.input_ids[:kept])
        np.testing.assert_array_equal(batch.labels[row, :kept], sm.labels[:kept])
        assert (batch.ids[row, kept:] == PAD_ID).all()
        assert (batch.labels[row, kept:] == IGNORE_INDEX).all()
        # No cut splits a character: the kept bytes decode strictly.
        bytes(int(i) for i in batch.ids[row, :kept] if i < 256).decode("utf-8")
        index = batch.image_token_indices[row]
        assert index == sm.image_token_index
        assert index is None or batch.ids[row, index] == IMAGE_ID
    with_image = [sm.image is not None for sm in samples]
    if all(with_image):
        assert batch.images.shape == (len(samples),) + samples[0].image.shape
    elif any(with_image):
        assert [img is not None for img in batch.images] == with_image
    else:
        assert batch.images is None

    ids, labels, lengths, indices, truncated, images = _stacked_collate(samples, pad_to)
    for got, want in ((batch.ids, ids), (batch.labels, labels)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert batch.lengths == lengths and batch.image_token_indices == indices
    assert batch.truncated == truncated
    if isinstance(images, np.ndarray):
        assert batch.images.dtype == images.dtype
        np.testing.assert_array_equal(batch.images, images)
    elif images is not None:
        assert all(got is want for got, want in zip(batch.images, images))


# -- resolve_model_config --------------------------------------------------------------

FIELD_NAMES = sorted({f.name for cls in (VisionTowerConfig, LLMConfig, ConnectorConfig)
                      for f in fields(cls)} | {"bogus"})
FIELD_VALUES = st.integers(-2, 65) | st.sampled_from([8, 16, 32, 64]) | JSON_VALUES
CONFIGS = st.dictionaries(st.sampled_from(FIELD_NAMES), FIELD_VALUES, max_size=3)
SPECS = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(["clip_tiny", "dino_tiny", "phi_tiny", "mlp", "qformer",
                             "identity", "nope"]) | JSON_VALUES,
    "config": CONFIGS | JSON_VALUES,
}) | JSON_VALUES
MODEL_CONFIGS = st.fixed_dictionaries({}, optional={
    "vision": SPECS, "mof": SPECS, "llm": SPECS, "connector": SPECS,
    "template": st.sampled_from(["plain", "llava_v1", "nope"]) | JSON_VALUES,
    "image_aspect_ratio": st.sampled_from(["square", "pad"]) | JSON_VALUES,
}) | JSON_VALUES


@FUZZ
@given(cfg=MODEL_CONFIGS)
@example(cfg={"vision": "clip_tiny"})
@example(cfg=[1])
@example(cfg={"vision": {"config": {"patch_size": 0}}})
@example(cfg={"llm": {"config": {"width": True}}})
@example(cfg={"connector": {"name": "qformer", "config": {"queries": 0}}})
@example(cfg={"conector": {"name": "qformer"}})
@example(cfg={"": None})
def test_resolve_model_config_resolves_or_names_the_key(cfg):
    try:
        out = resolve_model_config(cfg)
    except VlmkitError as exc:
        if isinstance(cfg, dict):
            # Compared with each key, not matched as a word: an unknown key
            # such as "" or "a b" is named as it is.
            assert any(str(exc).startswith(f"{key}: ") for key in cfg), str(exc)
        else:
            assert str(exc).startswith("model config must be an object"), str(exc)
        return
    assert resolve_model_config(out) == out


# -- lr_schedule ---------------------------------------------------------------------

FLOATS = st.floats() | st.sampled_from([0.0, 0.03, 0.5, 0.95, 1.0, 2.0, -0.1])
STEPS = st.integers(-2, 1000) | st.sampled_from([2 ** 53, 10 ** 400, "3", None, 2.5, True])


@FUZZ
@given(step=STEPS, total=STEPS, peak=FLOATS, ratio=FLOATS)
@example(step=10, total=10, peak=1.0, ratio=1.0)
@example(step=10, total=10, peak=1.0, ratio=0.95)
@example(step=10, total=10, peak=1.0, ratio=2.0)
@example(step=5, total=10, peak=1.0, ratio=math.nan)
@example(step=0, total=10, peak=1.0, ratio=-0.1)
@example(step=0, total=0, peak=1.0, ratio=0.0)
@example(step="3", total=10, peak=1.0, ratio=0.0)
@example(step=None, total=10, peak=1.0, ratio=0.0)
@example(step=2.5, total=10, peak=1.0, ratio=0.0)
@example(step=True, total=10, peak=1.0, ratio=0.0)
@example(step=0, total=10.5, peak=1.0, ratio=0.0)
def test_lr_schedule_keeps_its_endpoints_or_names_the_argument(step, total, peak, ratio):
    try:
        value = lr_schedule(step, total, peak, warmup_ratio=ratio)
    except VlmkitError as exc:
        assert re.match(r"(step|total_steps|peak_lr|warmup_ratio) ", str(exc)), str(exc)
        return
    warmup = math.ceil(ratio * total)
    assert lr_schedule(warmup, total, peak, warmup_ratio=ratio) == peak
    assert lr_schedule(total, total, peak, warmup_ratio=ratio) == 0.0
    assert 0.0 <= value <= peak
