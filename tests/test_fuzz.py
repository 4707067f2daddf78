"""Fuzzing the error contract of the data loaders and the tokenizers.

For any input, `load_dataset` and `load_ppm` either return a well-formed
result or raise a `VlmkitError` that names the record or the file; the
`Conversation` constructor either refuses drawn fields with a
`ValidationError` that names the conversation, or builds one that
`tokenize_and_label` and `tokenize_prompt` refuse only when it has no answer
to label or its text splits a placeholder across template pieces;
`tokenize_and_label` and `tokenize_prompt` either raise a `VlmkitError` or
return ids and labels that agree with each other and with the template, and
byte for byte with the reference list walk, and refuse a placeholder split
across template pieces exactly when the reference's joined-text rule does;
`bilinear_resize` either matches the reference resize bit for bit or raises
a `VlmkitError` that starts with the bad argument; `collate` either batches
its samples or raises a `VlmkitError` that names the sample (or `pad_to`,
when that is not an integer of at least 1); `resolve_model_config`
either resolves a config or raises a `VlmkitError` that starts with the key
it is about; `lr_schedule` either keeps its endpoints (exactly `peak_lr`
where warmup ends, exactly 0 at `total_steps`) or raises a `VlmkitError`
that names the argument; the fused `matmul` (bias) and `softmax` (scale and
mask) give the bytes, output and gradients, of the ops they fold in.
"""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import FUZZ, decode_with_eos, reference_bilinear_resize, reference_tokenize
from vlmkit.data import (BUILTIN_TEMPLATES, IMAGE_ID, IMAGE_PLACEHOLDER, PAD_ID, ByteTokenizer,
                         ChatTemplate, Conversation, Turn, bilinear_resize, collate, load_dataset,
                         load_ppm, tokenize_and_label, tokenize_prompt)
from vlmkit.data.conversations import ROLE_ASSISTANT, ROLE_HUMAN
from vlmkit.data.templates import template_segments
from vlmkit.errors import ValidationError, VlmkitError
from vlmkit.model import LLMConfig, QueryConfig, VisionTowerConfig, resolve_model_config
from vlmkit.numerics import Tensor, add, lr_schedule, matmul, mul, scale, softmax
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
@example(records=[{"id": "a", "conversations": [{"from": "human", "value": "q\ud800"},
                                                {"from": "gpt", "value": "a"}]}])
@example(records=[{"id": "a", "image": "x\ud800.ppm", "conversations": QUESTION}])
@example(records=[{"id": "a", "image": "im\x00g.ppm", "conversations": QUESTION}])
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
        if conv.image_path is not None:
            conv.image_path.encode("utf-8")     # a path UTF-8 can encode
            assert "\0" not in conv.image_path  # and an OS call takes
        for turn in conv.turns:
            assert turn.role in (ROLE_HUMAN, ROLE_ASSISTANT)
            assert isinstance(turn.text, str)
            turn.text.encode("utf-8")       # the tokenizer can take it


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


# -- bilinear_resize -------------------------------------------------------------------

SIDES = st.integers(0, 12)
OUT_SIDES = st.integers(-1, 12) | st.sampled_from([2.5, True, "4", None])


@FUZZ
@given(channels=st.sampled_from([1, 3, 4]), h=SIDES, w=SIDES, out_h=OUT_SIDES, out_w=OUT_SIDES,
       transposed=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(channels=3, h=32, w=32, out_h=16, out_w=16, transposed=True, seed=0)
@example(channels=1, h=1, w=1, out_h=4, out_w=4, transposed=False, seed=0)
@example(channels=3, h=0, w=4, out_h=2, out_w=2, transposed=False, seed=0)
def test_bilinear_resize_matches_the_reference_or_names_the_argument(channels, h, w, out_h,
                                                                     out_w, transposed, seed):
    pixels = np.random.default_rng(seed).uniform(0, 1, size=(h, w, channels)).astype(np.float32)
    img = pixels.transpose(2, 0, 1)
    if not transposed:
        img = np.ascontiguousarray(img)
    try:
        out = bilinear_resize(img, out_h, out_w)
    except VlmkitError as exc:
        bad = [name for name, v in (("out_h", out_h), ("out_w", out_w))
               if isinstance(v, bool) or not isinstance(v, int) or v < 1]
        if h == 0 or w == 0:
            bad.append("img")
        assert bad and str(exc).startswith(bad[0]), str(exc)
        return
    assert out.tobytes() == reference_bilinear_resize(img, out_h, out_w).tobytes()
    assert out.shape == (channels, out_h, out_w) and out.dtype == np.float32


# -- tokenize_and_label, tokenize_prompt -----------------------------------------------

TOK = ByteTokenizer()
# Any text, multi-byte UTF-8 included; some with image placeholders.
PLAIN_TEXTS = st.text(max_size=8)
TURN_TEXTS = PLAIN_TEXTS | st.lists(PLAIN_TEXTS, min_size=2, max_size=3).map("<image>".join)
ROLES = st.sampled_from([ROLE_HUMAN, ROLE_ASSISTANT, "gpt", ""])


@st.composite
def conversations(draw):
    """The fields of a conversation, (id, image path, [(role, text), ...]), not a
    built one: often well-formed (alternating roles, one image in the first
    turn), often not, so that the constructor refuses some."""
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
    return "f", image_path, list(zip(roles, texts))


def build(fields):
    """The Conversation of drawn fields; the constructor may refuse them."""
    conv_id, image_path, turns = fields
    return Conversation(conv_id, image_path, [Turn(role, text) for role, text in turns])


SPLIT = ("split", None, [(ROLE_HUMAN, "q<ima"), (ROLE_ASSISTANT, "ge>")])
SURROGATE = ("surrogate", None, [(ROLE_HUMAN, "q"), (ROLE_ASSISTANT, "\ud800")])
LATE = ("late", "x.ppm", [(ROLE_HUMAN, "q"), (ROLE_ASSISTANT, "<image>")])
EMPTY = ("empty", None, [])
ASKED = ("asked", "x.ppm", [(ROLE_HUMAN, "<image>q")])


@FUZZ
@given(fields=conversations(), tpl=st.sampled_from(list(BUILTIN_TEMPLATES.values())))
@example(fields=SPLIT, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=SURROGATE, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=LATE, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=EMPTY, tpl=BUILTIN_TEMPLATES["llava_v1"])
@example(fields=ASKED, tpl=BUILTIN_TEMPLATES["gemma_like"])
@example(fields=(5, None, []), tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=("t", None, [(None, "q")]), tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=("t", None, [(ROLE_HUMAN, b"q")]), tpl=BUILTIN_TEMPLATES["plain"])
def test_a_conversation_that_builds_tokenizes(fields, tpl):
    # The constructor is the one check: a conversation it refuses is named,
    # and one it builds tokenizes, unless it has nothing to label or its
    # text and the template's join into a placeholder that is not one.
    try:
        conv = build(fields)
    except VlmkitError as exc:
        assert type(exc) is ValidationError
        conv_id = fields[0]
        named = (f"conversation '{conv_id}': " if isinstance(conv_id, str)
                 else f"conversation id must be a string, got {conv_id!r}")
        assert str(exc).startswith(named), str(exc)
        return
    split = f"conversation '{conv.id}': text split across template pieces joins into"
    for call in (tokenize_and_label, tokenize_prompt):
        try:
            call(conv, tpl, TOK)
        except VlmkitError as exc:
            assert (str(exc).startswith(split) or call is tokenize_and_label
                    and str(exc) == f"conversation '{conv.id}' has no assistant turn"), str(exc)


@FUZZ
@given(fields=conversations(), tpl=st.sampled_from(list(BUILTIN_TEMPLATES.values())))
@example(fields=SPLIT, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=SURROGATE, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=LATE, tpl=BUILTIN_TEMPLATES["plain"])
@example(fields=EMPTY, tpl=BUILTIN_TEMPLATES["llava_v1"])
@example(fields=ASKED, tpl=BUILTIN_TEMPLATES["gemma_like"])
def test_tokenize_labels_or_raises(fields, tpl):
    try:
        conv = build(fields)
        full = tokenize_and_label(conv, tpl, TOK)
        ids, labels, image_token_index = full.input_ids, full.labels, full.image_token_index
    except VlmkitError as exc:
        assert str(exc).startswith(f"conversation '{fields[0]}'"), str(exc)
        if not str(exc).endswith("has no assistant turn"):
            return
        # Nothing to label, so the ids to check the prompt against are the
        # encoded walk (no EOS: only an answer ends with one).
        assert ROLE_ASSISTANT not in [turn.role for turn in conv.turns]
        ids = TOK.encode_pieces([piece for piece, _ in template_segments(conv, tpl)])[0]
        labels = np.full(len(ids), IGNORE_INDEX)
        image_token_index = int(np.argmax(ids == IMAGE_ID)) if IMAGE_ID in ids else None
    assert len(labels) == len(ids)
    sup = labels != IGNORE_INDEX
    assert (labels[sup] == ids[sup]).all()
    assert not sup[ids == IMAGE_ID].any()
    # Every placeholder the decoded ids show, EOS shown too, is an IMAGE token.
    assert decode_with_eos(ids).count(IMAGE_PLACEHOLDER) == (ids == IMAGE_ID).sum()

    prompt, image_index = tokenize_prompt(conv, tpl, TOK)
    assert image_index == image_token_index
    assert decode_with_eos(prompt).count(IMAGE_PLACEHOLDER) == (prompt == IMAGE_ID).sum()
    last = conv.turns[-1] if conv.turns else None
    if last is None:
        np.testing.assert_array_equal(prompt, ids)
    elif last.role == ROLE_ASSISTANT:
        # Cut at the start of the last answer span: its text, suffix and EOS.
        span = (len(TOK.encode(last.text)) + len(TOK.encode(tpl.assistant_suffix))
                + int(not tpl.assistant_suffix))
        np.testing.assert_array_equal(prompt, ids[:len(ids) - span])
        assert sup[len(ids) - span:].all()
    else:
        prefix = TOK.encode(tpl.assistant_prefix)
        np.testing.assert_array_equal(prompt, np.concatenate([ids, prefix]))


@FUZZ
@given(fields=conversations(), tpl=st.sampled_from(list(BUILTIN_TEMPLATES.values())),
       prompt=st.booleans())
@example(fields=("nul", None, [(ROLE_HUMAN, "\0q\0"), (ROLE_ASSISTANT, "\0")]),
         tpl=BUILTIN_TEMPLATES["gemma_like"], prompt=False)
@example(fields=("empty", "x.ppm", [(ROLE_HUMAN, "<image>"), (ROLE_ASSISTANT, "")]),
         tpl=BUILTIN_TEMPLATES["plain"], prompt=False)
def test_tokenize_matches_the_reference_walk(fields, tpl, prompt):
    try:
        conv = build(fields)
    except VlmkitError:
        return      # refused by name (test_a_conversation_that_builds_tokenizes)
    try:
        ids, labels, image_index = reference_tokenize(conv, tpl, prompt)
    except VlmkitError as exc:
        call = tokenize_prompt if prompt else tokenize_and_label
        with pytest.raises(VlmkitError) as ei:
            call(conv, tpl, TOK)
        assert str(ei.value) == str(exc)
        return
    if prompt:
        got, got_index = tokenize_prompt(conv, tpl, TOK)
        pairs = [(got, ids)]
    elif (labels == IGNORE_INDEX).all():
        with pytest.raises(VlmkitError, match="has no assistant turn$"):
            tokenize_and_label(conv, tpl, TOK)
        return
    else:
        sm = tokenize_and_label(conv, tpl, TOK)
        got_index, pairs = sm.image_token_index, [(sm.input_ids, ids), (sm.labels, labels)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_index == image_index


# Pieces of "<image>" that can join across turns and template fields.
FRAGMENTS = st.sampled_from(["<", "<i", "<im", "<ima", "<imag", "<image", "image>", "mage>", "age>",
                             "ge>", "e>", ">", "<image>", "\0", "é"])
TEMPLATE_FIELDS = ("system_message", "user_prefix", "user_suffix", "assistant_prefix",
                   "assistant_suffix")


def fragment_texts(max_parts):
    return st.lists(FRAGMENTS, min_size=1, max_size=max_parts).map("".join)


@st.composite
def fragment_cases(draw):
    """A template and the fields of a conversation whose texts are joined
    "<image>" fragments; the conversation has an image path exactly when a
    turn holds "<image>"."""
    fields = {name: draw(st.just("") | fragment_texts(2).filter(
        lambda t: IMAGE_PLACEHOLDER not in t)) for name in TEMPLATE_FIELDS}
    tpl = ChatTemplate("frag", add_bos=draw(st.booleans()), **fields)
    texts = draw(st.lists(fragment_texts(3), min_size=1, max_size=4))
    turns = [(ROLE_ASSISTANT if i % 2 else ROLE_HUMAN, t) for i, t in enumerate(texts)]
    has_image = any(IMAGE_PLACEHOLDER in t for t in texts)
    return ("frag", "x.ppm" if has_image else None, turns), tpl


@FUZZ
@given(case=fragment_cases(), prompt=st.booleans())
@example(case=(("frag", None, [(ROLE_HUMAN, "q<ima"), (ROLE_ASSISTANT, "ge>")]),
               BUILTIN_TEMPLATES["plain"]), prompt=False)
@example(case=(("frag", None, [(ROLE_HUMAN, "a <im")]),
               ChatTemplate("frag", user_suffix="age>")), prompt=True)
@example(case=(("frag", None, [(ROLE_HUMAN, "<ima")]),
               ChatTemplate("frag", assistant_prefix="ge>")), prompt=True)
@example(case=(("frag", "x.ppm", [(ROLE_HUMAN, "<ima<image>ge>"), (ROLE_ASSISTANT, "a")]),
               BUILTIN_TEMPLATES["plain"]), prompt=False)
@example(case=(("frag", None, [(ROLE_HUMAN, "q"), (ROLE_ASSISTANT, "<ima"), (ROLE_HUMAN, "ge>")]),
               BUILTIN_TEMPLATES["plain"]), prompt=True)
def test_split_placeholder_is_refused_exactly_when_the_joined_text_shows_one(case, prompt):
    # The reference refuses by joining the pieces' text, the library by the
    # bytes its encoder joins; the two must fire together, with one message.
    fields, tpl = case
    try:
        conv = build(fields)
    except VlmkitError as exc:
        # More than one "<image>", or one past the first turn.
        assert str(exc).startswith("conversation 'frag': '<image>' "), str(exc)
        return
    try:
        reference_tokenize(conv, tpl, prompt)
        want = None
    except VlmkitError as exc:
        want = str(exc)
    try:
        (tokenize_prompt if prompt else tokenize_and_label)(conv, tpl, TOK)
        got = None
    except VlmkitError as exc:
        got = str(exc)
    if want is None and got is not None:
        assert not prompt and got.endswith("has no assistant turn"), got
    else:
        assert got == want


# -- collate ---------------------------------------------------------------------------


# Text UTF-8 can encode, since these draws must build samples (refusing a lone
# surrogate is fuzzed with load_dataset and tokenize_and_label), and no "<", so
# that only the drawn placeholder makes an image token.
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

FIELD_NAMES = sorted({f.name for cls in (VisionTowerConfig, LLMConfig, QueryConfig)
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
    "image_tokens": st.sampled_from([4, 8, 999]) | JSON_VALUES,
}) | JSON_VALUES


@FUZZ
@given(cfg=MODEL_CONFIGS)
@example(cfg={"vision": "clip_tiny"})
@example(cfg=[1])
@example(cfg={"vision": {"config": {"patch_size": 0}}})
@example(cfg={"llm": {"config": {"width": True}}})
@example(cfg={"connector": {"name": "qformer", "config": {"queries": 0}}})
@example(cfg={"conector": {"name": "qformer"}})
@example(cfg={"connector": {"name": "mlp", "config": {"queries": 99, "depth": 7, "heads": 3}}})
@example(cfg={"image_tokens": 999})
@example(cfg={"mof": {}, "image_tokens": 8})
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


# -- fused matmul and softmax ------------------------------------------------------

# Signed zeros, a subnormal, and magnitudes whose products overflow float32.
VALUES = st.floats(-1e4, 1e4, width=32) | st.sampled_from(
    [0.0, -0.0, 1e-40, 1e30, -1e30, 3e38, -3e38])
LEADS = st.sampled_from([(), (2,), (3, 1)])


def _broadcasting_to(shape):
    """Shapes that broadcast to `shape` without growing it: a suffix of its
    axes, each kept or set to 1."""
    return st.integers(0, len(shape)).flatmap(
        lambda k: st.tuples(*[st.sampled_from([1, n]) for n in shape[len(shape) - k:]]))


def _out_and_grads(op, values, g):
    """op's output and the gradient of sum(op(...) * g) for each input, as bytes."""
    leaves = [Tensor(v, requires_grad=True) for v in values]
    with np.errstate(all="ignore"):
        out = op(*leaves)
        mul(out, Tensor(g)).sum().backward()
    return [(a.shape, a.tobytes()) for a in [out.data] + [t.grad for t in leaves]]


@FUZZ
@given(data=st.data(), lead=LEADS, m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 5))
def test_matmul_with_bias_is_add_of_matmul_bitwise(data, lead, m, k, n):
    b_shape = data.draw(st.sampled_from([(k, n), lead + (k, n)]))
    out_shape = lead + (m, n)
    values = [data.draw(arrays(np.float32, shape, elements=VALUES))
              for shape in (lead + (m, k), b_shape, data.draw(_broadcasting_to(out_shape)))]
    g = data.draw(arrays(np.float32, out_shape, elements=VALUES))
    assert (_out_and_grads(matmul, values, g)
            == _out_and_grads(lambda a, b, bias: add(matmul(a, b), bias), values, g))


@FUZZ
@given(data=st.data(), lead=LEADS, t=st.integers(1, 5), keys=st.integers(1, 7),
       s=st.floats(width=32) | st.sampled_from([1.0, 0.125, -0.5, 0.0]))
def test_softmax_with_scale_and_mask_is_softmax_of_the_composition_bitwise(data, lead, t, keys, s):
    shape = lead + (t, keys)
    x = data.draw(arrays(np.float32, shape, elements=VALUES))
    mask_values = VALUES | st.sampled_from([-1e9, -math.inf])
    mask = data.draw(st.none() | _broadcasting_to(shape).flatmap(
        lambda m: arrays(np.float32, m, elements=mask_values)))
    mask = None if mask is None else Tensor(mask)
    g = data.draw(arrays(np.float32, shape, elements=VALUES))

    def composed(x):
        x = scale(x, s)
        return softmax(x if mask is None else add(x, mask))

    assert (_out_and_grads(lambda x: softmax(x, s, mask), [x], g)
            == _out_and_grads(composed, [x], g))
