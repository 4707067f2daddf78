"""Dataset loading, templating, tokenization/masking, images, synthesis."""

import hashlib
import json
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from helpers import (EOS_MARK, decode_with_eos, random_conversation, reference_bilinear_resize,
                     reference_tokenize)
from vlmkit.data import (
    ANSWER_VOCABULARY,
    BOS_ID,
    BUILTIN_TEMPLATES,
    ByteTokenizer,
    ChatTemplate,
    Conversation,
    EOS_ID,
    IMAGE_ID,
    PAD_ID,
    Turn,
    bilinear_resize,
    collate,
    load_dataset,
    load_ppm,
    make_sample,
    preprocess_image,
    synth_vqa_generate,
    tokenize_and_label,
    tokenize_prompt,
    write_ppm,
)
from vlmkit.data.synth import _existence_ordinal
from vlmkit.data.templates import template_segments
from vlmkit.errors import ValidationError
from vlmkit.numerics.ops import IGNORE_INDEX

TOK = ByteTokenizer()


# -- tokenizer ---------------------------------------------------------------


def test_tokenizer_round_trip():
    for s in ["hello", "café δοκιμή 日本語", "", "line\nbreak\ttab", "emoji🙂!"]:
        assert TOK.decode(TOK.encode(s)) == s


def test_tokenizer_image_placeholder_is_single_token():
    ids = TOK.encode("a<image>b")
    assert ids == [ord("a"), IMAGE_ID, ord("b")]
    assert TOK.decode(ids) == "a<image>b"


def test_tokenizer_specials_skipped_in_decode():
    assert TOK.decode([BOS_ID, ord("h"), ord("i"), EOS_ID, PAD_ID]) == "hi"


def test_decode_takes_numpy_and_python_integers():
    want = "hi<image>"
    for ids in ([104, 105, IMAGE_ID], np.array([104, 105, IMAGE_ID], np.int64),
                [np.uint8(104), np.int32(105), np.int16(IMAGE_ID)]):
        assert TOK.decode(ids) == want


@pytest.mark.parametrize("ids, at, problem", [
    ([1.5], 0, "must be an integer, got 1.5"),
    ([104, 105.0], 1, "must be an integer, got 105.0"),
    (["a"], 0, "must be an integer, got 'a'"),
    ([104, True], 1, "must be an integer, got True"),
    (np.array([104.0]), 0, "must be an integer, got np.float64(104.0)"),
    ([None], 0, "must be an integer, got None"),
    ([104, 105, 999], 2, "is 999, outside the vocabulary [0, 260)"),
    (np.array([-1]), 0, "is -1, outside the vocabulary [0, 260)"),
], ids=["float", "integral-float", "str", "bool", "numpy-float", "none", "past-vocab", "negative"])
def test_decode_rejects_ids_by_position(ids, at, problem):
    # Rejected, not truncated: decode([1.5]) was '\x01'.
    with pytest.raises(ValidationError) as ei:
        TOK.decode(ids)
    assert type(ei.value) is ValidationError
    assert str(ei.value) == f"token id at position {at} {problem}"


@pytest.mark.parametrize("piece", [5, PAD_ID, IMAGE_ID, True, 1.5, None, b"a", np.int64(BOS_ID)],
                         ids=["5", "pad", "image", "true", "float", "none", "bytes", "np-bos"])
def test_encode_takes_only_text_and_encode_pieces_only_text_bos_and_eos(piece):
    with pytest.raises(ValidationError) as ei:
        TOK.encode(piece)
    assert str(ei.value) == f"encode takes text, got {piece!r}"
    with pytest.raises(ValidationError) as ei:
        TOK.encode_pieces(["a", piece])
    assert str(ei.value) == f"piece 1 is {piece!r}, not text, BOS_ID or EOS_ID"


# -- dataset loading -----------------------------------------------------------


def test_load_dataset_empty(tmp_path):
    p = tmp_path / "d.json"
    p.write_text("[]")
    assert load_dataset(str(p)) == []


def test_load_dataset_maps_fields(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps([{
        "id": "s0",
        "image": "images/s0.ppm",
        "conversations": [
            {"from": "human", "value": "<image>\nWhat color is the square?"},
            {"from": "gpt", "value": "red"},
        ],
    }]))
    convs = load_dataset(str(p))
    assert len(convs) == 1
    assert convs[0].image_path == "images/s0.ppm"
    assert convs[0].turns[0].role == "human"
    assert convs[0].turns[1].role == "assistant"


def test_load_dataset_rejects_placeholder_in_later_turn(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps([{
        "id": "bad",
        "image": "x.ppm",
        "conversations": [
            {"from": "human", "value": "hi"},
            {"from": "gpt", "value": "hello"},
            {"from": "human", "value": "<image>\nnow?"},
            {"from": "gpt", "value": "no"},
        ],
    }]))
    with pytest.raises(ValidationError) as ei:
        load_dataset(str(p))
    assert "record 0" in str(ei.value)


def test_load_dataset_rejects_role_violation(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps([{
        "id": "bad",
        "conversations": [{"from": "gpt", "value": "hello"}],
    }]))
    with pytest.raises(ValidationError):
        load_dataset(str(p))


_QA = [{"from": "human", "value": "<image>\nq"}, {"from": "gpt", "value": "a"}]


@pytest.mark.parametrize("records, named", [
    ([{"conversations": ["x"]}], "record 0: turn 0 must be an object"),
    ([{"conversations": 5}], "record 0: 'conversations' must be an array"),
    ([{"conversations": [{"from": ["human"], "value": "hi"}]}], "record 0: turn 0 has unknown"),
    ([{"conversations": [{"from": "human", "value": None}]}], "record 0: turn 0 'value'"),
    ([{"id": "a", "image": "x.ppm", "conversations": _QA},
      {"id": "b", "image": 3, "conversations": _QA}], "record 1: 'image'"),
    ([{"id": "a", "image": "x.ppm", "conversations": _QA},
      {"id": "a", "image": "y.ppm", "conversations": _QA}],
     "record 1: id 'a' already used by record 0"),
    ([{"id": "1", "image": "x.ppm", "conversations": _QA},
      {"image": "y.ppm", "conversations": _QA}],
     "record 1: id '1' already used by record 0 (record 1 has no id and takes its index)"),
    ([{"image": "x.ppm", "conversations": _QA},
      {"id": "0", "image": "y.ppm", "conversations": _QA}],
     "record 1: id '0' already used by record 0 (record 0 has no id and takes its index)"),
    ([{"id": "1", "image": "x.ppm", "conversations": _QA},
      {"id": 1, "image": "y.ppm", "conversations": _QA}], "record 1: 'id' must be a string"),
    ([{"id": None, "conversations": _QA[1:]}], "record 0: 'id' must be a string, got None"),
    ([{"id": "s", "conversations": [{"from": "human", "value": "q"},
                                    {"from": "gpt", "value": "a\ud800"}]}],
     "record 0: conversation 's': turn 1 holds '\\ud800', which UTF-8 cannot encode"),
    ([{"id": "late", "image": "x.ppm", "conversations": [{"from": "human", "value": "q"},
                                                         {"from": "gpt", "value": "<image>"}]}],
     "record 0: conversation 'late': '<image>' must appear in the first human turn, "
     "found in turn 1"),
    ([{"id": "a", "image": "x.ppm", "conversations": _QA},
      {"id": "b", "image": "y\ud800.ppm", "conversations": _QA}],
     "record 1: 'image' holds '\\ud800', which UTF-8 cannot encode"),
])
def test_load_dataset_rejects_malformed_records(tmp_path, records, named):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(records))
    with pytest.raises(ValidationError) as ei:
        load_dataset(str(p))
    assert named in str(ei.value)


@pytest.mark.parametrize("loader", [load_dataset, load_ppm])
def test_loaders_name_a_missing_path(tmp_path, loader):
    missing = str(tmp_path / "missing.file")
    with pytest.raises(ValidationError) as ei:
        loader(missing)
    assert missing in str(ei.value)


def test_load_ppm_names_a_path_utf8_cannot_encode(tmp_path):
    path = str(tmp_path / "x\ud800.ppm")
    with pytest.raises(ValidationError) as ei:
        load_ppm(path)
    assert str(ei.value) == (f"{path!r}: cannot read, the path holds '\\ud800', "
                             "which UTF-8 cannot encode")


def test_load_dataset_malformed_json(tmp_path):
    p = tmp_path / "d.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_dataset(str(p))


# -- templates -------------------------------------------------------------------


def _square_conv():
    return Conversation(
        id="q",
        image_path="images/q.ppm",
        turns=[
            Turn("human", "<image>\nWhat color is the square?"),
            Turn("assistant", "red"),
        ],
    )


def test_a_built_turn_or_conversation_takes_no_assignment():
    conv = _square_conv()
    for obj in (conv, conv.turns[0]):
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))


def test_render_zero_turns_is_system_message():
    conv = Conversation(id="e")
    tpl = BUILTIN_TEMPLATES["llava_v1"]
    ids, _ = tokenize_prompt(conv, tpl, TOK)
    assert decode_with_eos(ids) == tpl.system_message


def test_render_llava_v1_golden():
    out = decode_with_eos(tokenize_and_label(_square_conv(), BUILTIN_TEMPLATES["llava_v1"],
                                             TOK).input_ids)
    assert out == ("A chat between a curious user and an artificial intelligence "
                   "assistant. USER: <image>\nWhat color is the square? ASSISTANT: red</s>")


def test_render_plain_golden():
    out = decode_with_eos(tokenize_and_label(_square_conv(), BUILTIN_TEMPLATES["plain"],
                                             TOK).input_ids)
    assert out == "<image>\nWhat color is the square?red</s>"


def test_render_generation_prompt_keeps_prefix():
    out = decode_with_eos(tokenize_prompt(_square_conv(), BUILTIN_TEMPLATES["llava_v1"], TOK)[0])
    assert out.endswith("ASSISTANT: ")
    assert "red" not in out


def test_render_pure_and_templates_distinct():
    conv = _square_conv()
    rendered = {}
    for name, tpl in BUILTIN_TEMPLATES.items():
        a = tokenize_and_label(conv, tpl, TOK).input_ids
        b = tokenize_and_label(conv, tpl, TOK).input_ids
        assert a.tobytes() == b.tobytes()
        rendered[name] = decode_with_eos(a)
    assert len(set(rendered.values())) == len(rendered)


def test_render_agrees_with_tokenized_prompts():
    # A generation prompt ends on the assistant prefix whether the last turn
    # is an assistant or a human one. Decoded, it is the sample's text cut
    # before the last answer, or the sample's text plus the prefix after a
    # last question; a lone question has no sample and is checked piece by
    # piece.
    rng = np.random.default_rng(5)
    for k in range(60):
        conv = random_conversation(rng, conv_id=f"c{k}")
        if k % 3 == 0:
            conv = Conversation(conv.id, conv.image_path, conv.turns[:-1])
        last = conv.turns[-1]
        for tpl in BUILTIN_TEMPLATES.values():
            ids, _ = tokenize_prompt(conv, tpl, TOK)
            prompt = decode_with_eos(ids)
            assert prompt.endswith(tpl.assistant_prefix)
            if len(conv.turns) == 1:
                assert prompt == (tpl.system_message + tpl.user_prefix + last.text
                                  + tpl.user_suffix + tpl.assistant_prefix)
                continue
            full = decode_with_eos(tokenize_and_label(conv, tpl, TOK).input_ids)
            if last.role == "assistant":
                assert full == prompt + last.text + (tpl.assistant_suffix or EOS_MARK)
            else:
                assert prompt == full + tpl.assistant_prefix


def test_render_generation_prompt_after_human_turn_adds_prefix():
    conv = _square_conv()
    conv = Conversation(conv.id, conv.image_path, conv.turns[:-1])
    tpl = BUILTIN_TEMPLATES["llava_v1"]
    out = decode_with_eos(tokenize_prompt(conv, tpl, TOK)[0])
    assert out.endswith("What color is the square? ASSISTANT: ")
    full, _, _ = TOK.encode_pieces([piece for piece, _ in template_segments(conv, tpl)])
    assert decode_with_eos(full).endswith("square? ")


@pytest.mark.parametrize("tpl, turns", [
    (BUILTIN_TEMPLATES["plain"], [Turn("human", "q<ima"), Turn("assistant", "ge>")]),
    (ChatTemplate(name="split", user_suffix="age>"),
     [Turn("human", "a <im"), Turn("assistant", "b")]),
])
def test_placeholder_split_across_pieces_is_rejected(tpl, turns):
    conv = Conversation(id="split", turns=turns)
    with pytest.raises(ValidationError, match="^conversation 'split': text split across"):
        tokenize_and_label(conv, tpl, TOK)
    # The encoder refuses the walk's pieces on its own, naming no conversation.
    pieces = [piece for piece, _ in template_segments(conv, tpl)]
    with pytest.raises(ValidationError, match="^text split across template pieces joins into"):
        TOK.encode_pieces(pieces)


@pytest.mark.parametrize("field", ["system_message", "user_prefix", "user_suffix",
                                   "assistant_prefix", "assistant_suffix"])
@pytest.mark.parametrize("text, problem", [("look: <image> ", "holds '<image>'"),
                                           ("a\ud800", "holds '\\ud800'")],
                         ids=["placeholder", "surrogate"])
def test_template_text_refuses_placeholder_and_unencodable_text(field, text, problem):
    # A template's "<image>" would tokenize to a second image token.
    with pytest.raises(ValidationError, match=f"^template 'x': {field} {re.escape(problem)}"):
        ChatTemplate("x", **{field: text})


@pytest.mark.parametrize("name, field, value, want", [
    ("x", "system_message", None, "str"),
    ("x", "user_prefix", 1, "str"),
    ("x", "assistant_suffix", b"</s>", "str"),
    ("x", "add_bos", "yes", "bool"),
    ("x", "add_bos", 1, "bool"),
    (None, "name", None, "str"),
    (7, "name", 7, "str"),
])
def test_template_refuses_a_field_of_the_wrong_type(name, field, value, want):
    fields = {} if field == "name" else {field: value}
    with pytest.raises(ValidationError) as ei:
        ChatTemplate(name, **fields)
    assert str(ei.value) == f"template '{name}': {field} must be a {want}, got {value!r}"


def test_template_answer_ends_in_eos_exactly_when_the_suffix_is_empty():
    conv = Conversation(id="t", turns=[Turn("human", "q"), Turn("assistant", "a")])
    for suffix, end in (("", [EOS_ID]), ("|", [ord("|")])):
        sm = tokenize_and_label(conv, ChatTemplate("x", assistant_suffix=suffix), TOK)
        assert sm.input_ids.tolist()[-2:] == [ord("a")] + end
        assert EOS_ID not in sm.input_ids.tolist()[:-1]


# -- tokenize and label ------------------------------------------------------------


def test_tokenize_plain_hand_traced():
    conv = Conversation(id="t", image_path="x.ppm",
                        turns=[Turn("human", "<image>"), Turn("assistant", "hi")])
    sm = tokenize_and_label(conv, BUILTIN_TEMPLATES["plain"], TOK)
    assert sm.input_ids.tolist() == [IMAGE_ID, ord("h"), ord("i"), EOS_ID]
    assert sm.labels.tolist() == [IGNORE_INDEX, ord("h"), ord("i"), EOS_ID]
    assert sm.image_token_index == 0


def test_tokenize_without_assistant_turn_is_rejected():
    for turns in ([], [Turn("human", "hello")]):
        conv = Conversation(id="t", turns=turns)
        with pytest.raises(ValidationError, match="^conversation 't' has no assistant turn$"):
            tokenize_and_label(conv, BUILTIN_TEMPLATES["plain"], TOK)


def test_label_alignment_invariants():
    rng = np.random.default_rng(0)
    for k in range(20):
        conv = random_conversation(rng, conv_id=f"c{k}")
        for tpl in BUILTIN_TEMPLATES.values():
            sm = tokenize_and_label(conv, tpl, TOK)
            assert len(sm.labels) == len(sm.input_ids)
            sup = sm.labels != IGNORE_INDEX
            assert (sm.labels[sup] == sm.input_ids[sup]).all()
            if conv.image_path:
                assert sm.labels[sm.image_token_index] == IGNORE_INDEX


def _expected_supervised_count(conv, tpl):
    # Independent counting oracle: byte lengths only, no tokenizer involved.
    total = 0
    for turn in conv.turns:
        if turn.role != "assistant":
            continue
        total += len(turn.text.encode("utf-8"))
        total += len(tpl.assistant_suffix.encode("utf-8"))
        if not tpl.assistant_suffix:
            total += 1
    return total


def test_supervised_count_matches_counting_oracle_over_corpus():
    rng = np.random.default_rng(1)
    for k in range(50):
        conv = random_conversation(rng, conv_id=f"c{k}")
        for tpl in BUILTIN_TEMPLATES.values():
            sm = tokenize_and_label(conv, tpl, TOK)
            got = int((sm.labels != IGNORE_INDEX).sum())
            assert got == _expected_supervised_count(conv, tpl)


def _oracle_supervised_spans(conv, tpl):
    """Independent span oracle: positions computed from byte arithmetic."""
    def tok_len(text):
        n_img = text.count("<image>")
        return len(text.replace("<image>", "").encode("utf-8")) + n_img

    pos = 1 if tpl.add_bos else 0
    pos += tok_len(tpl.system_message)
    spans = []
    for turn in conv.turns:
        if turn.role == "human":
            pos += tok_len(tpl.user_prefix) + tok_len(turn.text) + tok_len(tpl.user_suffix)
        else:
            pos += tok_len(tpl.assistant_prefix)
            ln = tok_len(turn.text) + tok_len(tpl.assistant_suffix)
            if not tpl.assistant_suffix:
                ln += 1
            spans.append((pos, pos + ln))
            pos += ln
    return spans


def test_masking_exclusivity_against_span_oracle():
    rng = np.random.default_rng(2)
    for k in range(200):
        conv = random_conversation(rng, conv_id=f"c{k}")
        tpl = list(BUILTIN_TEMPLATES.values())[k % 3]
        sm = tokenize_and_label(conv, tpl, TOK)
        expected = np.zeros(len(sm.input_ids), dtype=bool)
        for a, b in _oracle_supervised_spans(conv, tpl):
            expected[a:b] = True
        np.testing.assert_array_equal(sm.labels != IGNORE_INDEX, expected)


def test_round_trip_decoded_spans_reproduce_answers():
    rng = np.random.default_rng(3)
    for k in range(60):
        conv = random_conversation(rng, conv_id=f"c{k}")
        tpl = list(BUILTIN_TEMPLATES.values())[k % 3]
        sm = tokenize_and_label(conv, tpl, TOK)
        sup = sm.labels != IGNORE_INDEX
        # Split supervised positions into contiguous runs.
        runs, start = [], None
        for i, s in enumerate(sup):
            if s and start is None:
                start = i
            elif not s and start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, len(sup)))
        answers = [t.text for t in conv.turns if t.role == "assistant"]
        assert len(runs) == len(answers)
        for (a, b), text in zip(runs, answers):
            decoded = TOK.decode(sm.labels[a:b].tolist())
            assert decoded == text + tpl.assistant_suffix


def test_tokenize_prompt_matches_labeled_prefix():
    # The generation prompt is exactly the labeled sequence cut at the start
    # of the final answer span.
    rng = np.random.default_rng(4)
    for k in range(20):
        conv = random_conversation(rng, conv_id=f"c{k}")
        tpl = list(BUILTIN_TEMPLATES.values())[k % 3]
        full = tokenize_and_label(conv, tpl, TOK)
        ids, img_idx = tokenize_prompt(conv, tpl, TOK)
        sup = full.labels != IGNORE_INDEX
        run_starts = [i for i in range(len(sup)) if sup[i] and (i == 0 or not sup[i - 1])]
        assert len(ids) == run_starts[-1]
        np.testing.assert_array_equal(ids, full.input_ids[:len(ids)])
        assert img_idx == full.image_token_index


def _same_tokens(conv, tpl):
    """tokenize_and_label (when the conversation has an answer) and
    tokenize_prompt give the reference walk's bytes, dtypes and image index."""
    ids, labels, image_index = reference_tokenize(conv, tpl, prompt=False)
    if (labels != IGNORE_INDEX).any():
        sm = tokenize_and_label(conv, tpl, TOK)
        for got, want in ((sm.input_ids, ids), (sm.labels, labels)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert sm.image_token_index == image_index
    ids, _, image_index = reference_tokenize(conv, tpl, prompt=True)
    got, got_index = tokenize_prompt(conv, tpl, TOK)
    assert got.dtype == ids.dtype and got.tobytes() == ids.tobytes()
    assert got_index == image_index


@pytest.mark.parametrize("tpl", BUILTIN_TEMPLATES.values(), ids=BUILTIN_TEMPLATES.keys())
@pytest.mark.parametrize("with_image", [False, True])
def test_tokenize_matches_the_reference_walk(tpl, with_image):
    rng = np.random.default_rng(12)
    for k in range(12):
        _same_tokens(random_conversation(rng, conv_id=f"c{k}", with_image=with_image), tpl)


@pytest.mark.parametrize("tpl", BUILTIN_TEMPLATES.values(), ids=BUILTIN_TEMPLATES.keys())
@pytest.mark.parametrize("turns", [
    ["a\0b", "\0"],                             # NUL in both turns
    ["<image>\0", "x\0\0<end_of_turn>"],         # NUL next to the image and a marker
    ["", ""],                                   # empty turns
    ["<image>", "", "q", ""],                   # empty answers, several turns
    ["q"],                                      # no answer: a prompt only
], ids=["nul", "nul-image", "empty", "empty-answers", "question"])
def test_tokenize_matches_the_reference_walk_on_nul_and_empty_turns(tpl, turns):
    roles = ["human", "assistant"] * len(turns)
    conv = Conversation(id="z", image_path="x.ppm" if "<image>" in turns[0] else None,
                        turns=[Turn(r, t) for r, t in zip(roles, turns)])
    _same_tokens(conv, tpl)
    if "\0" in turns[0]:
        # A NUL in the text is byte 0, never a special id.
        ids, _ = tokenize_prompt(conv, tpl, TOK)
        assert (ids == 0).sum() == turns[0].count("\0")


def test_encode_is_the_one_piece_walk():
    text = "日本<image>\0a<image>"
    ids, ends, image_index = TOK.encode_pieces([text])
    assert TOK.encode(text) == ids.tolist() == (
        list("日本".encode()) + [IMAGE_ID, 0, ord("a"), IMAGE_ID])
    assert ends == [len(ids)] and image_index == 6
    ids, ends, image_index = TOK.encode_pieces([BOS_ID, "", "a\0", EOS_ID])
    assert ids.dtype == np.int32 and ids.tolist() == [BOS_ID, ord("a"), 0, EOS_ID]
    assert ends == [1, 1, 3, 4] and image_index is None
    assert TOK.encode("") == [] and TOK.encode_pieces([])[0].dtype == np.int32


# -- collate -----------------------------------------------------------------------


def _sample(ids, image_token_index=None):
    from vlmkit.data import TokenizedSample
    arr = np.asarray(ids, dtype=np.int32)
    return TokenizedSample(input_ids=arr, labels=arr.copy(),
                           image_token_index=image_token_index)


def test_collate_exact_length_unchanged():
    sm = _sample([1, 2, 3, 4, 5])
    batch = collate([sm], pad_to=5)
    np.testing.assert_array_equal(batch.ids[0], [1, 2, 3, 4, 5])
    np.testing.assert_array_equal(batch.labels[0], [1, 2, 3, 4, 5])
    assert batch.lengths == [5]
    assert batch.truncated == 0


def test_collate_pads_right():
    batch = collate([_sample([1, 2, 3]), _sample([1, 2, 3, 4, 5])], pad_to=5)
    np.testing.assert_array_equal(batch.ids[0], [1, 2, 3, PAD_ID, PAD_ID])
    np.testing.assert_array_equal(batch.labels[0], [1, 2, 3, IGNORE_INDEX, IGNORE_INDEX])
    assert batch.lengths == [3, 5]


def test_collate_truncates_without_splitting_multibyte():
    text = "ab日本"  # 2 + 3 + 3 bytes
    ids = TOK.encode(text)
    assert len(ids) == 8
    sm = _sample(ids)
    batch = collate([sm], pad_to=6)  # cut lands inside the second kanji
    assert batch.truncated == 1
    kept = batch.ids[0][:batch.lengths[0]].tolist()
    assert TOK.decode(kept) == "ab日"


def test_collate_refuses_to_drop_image_placeholder():
    ids = [IMAGE_ID] + TOK.encode("question")
    sm = _sample(list(reversed(ids)), image_token_index=len(ids) - 1)
    with pytest.raises(ValidationError):
        collate([sm], pad_to=3)


@pytest.mark.parametrize("labels", [2, 6])
def test_collate_names_a_sample_whose_labels_and_ids_differ_in_length(labels):
    sm = _sample([1, 2, 3, 4])
    sm.conv_id, sm.labels = "odd", np.zeros(labels, dtype=np.int32)
    with pytest.raises(ValidationError) as ei:
        collate([_sample([5]), sm], pad_to=8)
    assert str(ei.value) == f"sample 'odd': 4 ids but {labels} labels"


# -- images -----------------------------------------------------------------------


def test_load_ppm_single_white_pixel(tmp_path):
    p = tmp_path / "w.ppm"
    write_ppm(str(p), np.full((1, 1, 3), 255, dtype=np.uint8))
    img = load_ppm(str(p))
    np.testing.assert_array_equal(img, np.ones((3, 1, 1), dtype=np.float32))


def test_load_ppm_black(tmp_path):
    p = tmp_path / "b.ppm"
    write_ppm(str(p), np.zeros((2, 2, 3), dtype=np.uint8))
    np.testing.assert_array_equal(load_ppm(str(p)), np.zeros((3, 2, 2)))


def test_ppm_round_trip_is_exact(tmp_path):
    grad = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
    p = tmp_path / "g.ppm"
    write_ppm(str(p), grad)
    loaded = load_ppm(str(p))
    np.testing.assert_array_equal((loaded * 255).round().astype(np.uint8),
                                  grad.transpose(2, 0, 1))


def test_load_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValidationError):
        load_ppm(str(p))


def test_load_ppm_rejects_truncated(tmp_path):
    p = tmp_path / "trunc.ppm"
    p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(ValidationError):
        load_ppm(str(p))


@pytest.mark.parametrize("size, field", [("-2 2", "width"), ("0 0", "width"), ("3 0", "height")])
def test_load_ppm_rejects_non_positive_size(tmp_path, size, field):
    p = tmp_path / "empty.ppm"
    p.write_bytes(b"P6\n" + size.encode() + b"\n255\n")
    with pytest.raises(ValidationError) as ei:
        load_ppm(str(p))
    assert str(p) in str(ei.value) and f"PPM {field} must be positive" in str(ei.value)


@pytest.mark.parametrize("blob", [
    pytest.param(b"P6\n1_0 1 255\n" + bytes(30), id="underscore"),   # int() takes it
    pytest.param(b"P6\n+1 1 255\n" + bytes(3), id="plus"),
    pytest.param(b"P61 1 255\n" + bytes(3), id="no-gap-after-magic"),
    pytest.param(b"P6\n1 1 255x" + bytes(3), id="maxval-then-byte"),
    pytest.param(b"P6\n1 1 255", id="maxval-then-end"),
])
def test_load_ppm_rejects_malformed_header(tmp_path, blob):
    p = tmp_path / "h.ppm"
    p.write_bytes(blob)
    with pytest.raises(ValidationError) as ei:
        load_ppm(str(p))
    assert str(p) in str(ei.value)


@pytest.mark.parametrize("header", [
    pytest.param(b"P6# c\n2 2 255\n", id="comment-after-magic"),
    pytest.param(b"P6\n2 # c\n# d\n2\n255\n", id="comments-between-fields"),
    pytest.param(b"P6\n2# c\n2 255\n", id="comment-right-after-field"),
    pytest.param(b"P6\t2\t2\t255\t", id="tabs"),
    pytest.param(b"P6\r2\r2\r255\r", id="carriage-returns"),
])
def test_load_ppm_header_gaps_do_not_change_the_image(tmp_path, header):
    pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    plain, p = tmp_path / "plain.ppm", tmp_path / "h.ppm"
    write_ppm(str(plain), pixels)
    p.write_bytes(header + pixels.tobytes())
    np.testing.assert_array_equal(load_ppm(str(p)), load_ppm(str(plain)))


def test_preprocess_constant_images():
    zeros = np.zeros((3, 8, 8), dtype=np.float32)
    out = preprocess_image(zeros, target=8)
    np.testing.assert_allclose(out, -np.ones((3, 8, 8)), atol=1e-6)
    ones = np.ones((3, 8, 8), dtype=np.float32)
    np.testing.assert_allclose(preprocess_image(ones, target=8), np.ones((3, 8, 8)), atol=1e-6)


def test_preprocess_pad_constant_matches_canvas_oracle():
    img = np.full((3, 2, 4), 0.25, dtype=np.float32)
    out = preprocess_image(img, target=4, aspect_mode="pad")
    # Direct canvas oracle: constant image padded with its own mean stays
    # constant, so the output is ((0.25 - 0.5) / 0.5) everywhere.
    np.testing.assert_allclose(out, np.full((3, 4, 4), -0.5), atol=1e-6)


def test_preprocess_output_shape_and_finite():
    rng = np.random.default_rng(5)
    img = rng.uniform(0, 1, size=(3, 5, 9)).astype(np.float32)
    for mode in ("square", "pad"):
        out = preprocess_image(img, target=16, aspect_mode=mode)
        assert out.shape == (3, 16, 16)
        assert np.isfinite(out).all()


def test_preprocess_rejects_zero_size():
    with pytest.raises(ValidationError):
        preprocess_image(np.zeros((3, 0, 4), dtype=np.float32), target=8)


def test_bilinear_same_size_is_identity():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 1, size=(3, 7, 7)).astype(np.float32)
    np.testing.assert_array_equal(bilinear_resize(img, 7, 7), img)


def _image(channels, h, w, layout, seed=8):
    """Random float32 pixels, C-contiguous or laid out as a transposed [H, W, C]
    buffer, the layout of an HWC array viewed channel first."""
    pixels = np.random.default_rng(seed).uniform(0, 1, size=(h, w, channels)).astype(np.float32)
    img = pixels.transpose(2, 0, 1)
    return np.ascontiguousarray(img) if layout == "contiguous" else img


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("channels", [1, 3, 4])
@pytest.mark.parametrize("h, w, out_h, out_w", [
    (32, 32, 16, 16),       # down, the ingest shape
    (8, 8, 24, 24),         # up
    (7, 7, 7, 7),           # identity
    (1, 1, 4, 4),           # one pixel up
    (6, 6, 1, 1),           # to one pixel
    (5, 9, 3, 11),          # non-square, down one axis and up the other
    (12, 5, 12, 8),         # one axis kept
])
def test_bilinear_resize_matches_the_reference_bit_for_bit(layout, channels, h, w, out_h, out_w):
    img = _image(channels, h, w, layout)
    out = bilinear_resize(img, out_h, out_w)
    want = reference_bilinear_resize(img, out_h, out_w)
    assert out.dtype == np.float32 and out.shape == (channels, out_h, out_w)
    assert out.tobytes() == want.tobytes()


def test_bilinear_resize_taps_are_read_only_and_cached_per_axis():
    from vlmkit.data.images import _taps
    _taps.cache_clear()
    bilinear_resize(_image(3, 32, 24, "contiguous"), 16, 16)
    bilinear_resize(_image(3, 24, 32, "contiguous"), 16, 16)
    info = _taps.cache_info()
    assert (info.currsize, info.hits, info.misses) == (2, 2, 2)
    for tap in _taps(32, 16):
        assert not tap.flags.writeable
        with pytest.raises(ValueError):
            tap[0] = 0


def test_bilinear_resize_output_is_the_callers_own():
    img = _image(3, 32, 32, "transposed")
    first = bilinear_resize(img, 16, 16)
    want = first.copy()
    first[...] = 7.0
    assert bilinear_resize(img, 16, 16).tobytes() == want.tobytes()
    same = bilinear_resize(img, 32, 32)
    same[...] = 7.0
    assert bilinear_resize(img, 32, 32).tobytes() == img.tobytes()


def test_bilinear_resize_caches_the_weight_complement_read_only():
    from vlmkit.data.images import _taps
    index, weight = _taps(32, 16)
    assert index.shape == weight.shape == (32,)
    assert weight[:16].tobytes() == (1 - weight[16:]).tobytes()
    assert not weight.flags.writeable
    with pytest.raises(ValueError):
        weight[:16] += 1


@pytest.mark.parametrize("h, w, tail", [(640, 600, b""), (4, 5, b"trailing bytes\n"),
                                        (700, 512, b"\0" * 4096)],
                         ids=["over-1MiB", "trailing", "over-1MiB-trailing"])
def test_load_ppm_reads_the_whole_file(tmp_path, h, w, tail):
    pixels = np.random.default_rng(h).integers(0, 256, (h, w, 3), dtype=np.uint8)
    p = tmp_path / "big.ppm"
    p.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes() + tail)
    img = load_ppm(str(p))
    want = (pixels.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)
    assert img.shape == (3, h, w) and img.flags.c_contiguous
    assert img.tobytes() == np.ascontiguousarray(want).tobytes()


def test_load_ppm_names_a_directory(tmp_path):
    with pytest.raises(ValidationError) as ei:
        load_ppm(str(tmp_path))
    assert str(ei.value) == f"{tmp_path}: cannot read (Is a directory)"


def test_load_ppm_is_channel_first_contiguous_bytes_over_255(tmp_path):
    pixels = np.arange(256 * 3, dtype=np.uint32).astype(np.uint8).reshape(16, 16, 3)
    p = tmp_path / "all.ppm"
    write_ppm(str(p), pixels)
    img = load_ppm(str(p))
    want = (pixels.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)
    assert img.dtype == np.float32 and img.flags.c_contiguous
    assert img.tobytes() == np.ascontiguousarray(want).tobytes()


# -- synthetic VQA ------------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    pa = synth_vqa_generate(str(a), n=4, seed=7, split="train")
    pb = synth_vqa_generate(str(b), n=4, seed=7, split="train")
    assert Path(pa).read_bytes() == Path(pb).read_bytes()
    for i in range(4):
        name = f"images/train_{i:05d}.ppm"
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("split, digest", [
    ("train", "e363ce6ff69bb547953db70bd44ad0d2e76ea467153e88a9cb9ccf6ca6031838"),
    ("heldout", "2147256d454aa566f6b0b26aaf37a9efdc5b0ffe075f385cdd9e331a3652b2fd"),
])
def test_synth_split_bytes_are_pinned(tmp_path, split, digest):
    # Seed 1's first 8 samples of each split draw all three shapes; the digest
    # covers the JSON and then every image in index order.
    path = synth_vqa_generate(str(tmp_path), n=8, seed=1, split=split)
    h = hashlib.sha256(Path(path).read_bytes())
    for i in range(8):
        h.update((tmp_path / "images" / f"{split}_{i:05d}.ppm").read_bytes())
    assert h.hexdigest() == digest


def test_synth_answers_in_closed_vocabulary():
    for i in range(40):
        _, record = make_sample(seed=1, split="train", index=i)
        assert record["gold"] in ANSWER_VOCABULARY
        assert record["conversations"][1]["value"] == record["gold"]


def test_synth_yes_no_balance_at_n1000():
    yes = no = 0
    for i in range(1000):
        _, record = make_sample(seed=3, split="heldout", index=i)
        if record["category"] == "existence":
            if record["gold"] == "yes":
                yes += 1
            else:
                no += 1
    total = yes + no
    assert total == 500
    assert abs(yes / total - 0.5) <= 0.05


def test_synth_splits_disjoint_ids(tmp_path):
    pa = synth_vqa_generate(str(tmp_path), n=6, seed=9, split="train")
    pb = synth_vqa_generate(str(tmp_path), n=6, seed=9, split="heldout")
    ids_a = {r["id"] for r in json.loads(Path(pa).read_bytes())}
    ids_b = {r["id"] for r in json.loads(Path(pb).read_bytes())}
    assert not ids_a & ids_b


def test_synth_images_differ_across_splits():
    img_a, _ = make_sample(seed=9, split="train", index=0)
    img_b, _ = make_sample(seed=9, split="heldout", index=0)
    assert not np.array_equal(img_a, img_b)


def test_synth_records_load_as_dataset(tmp_path):
    p = synth_vqa_generate(str(tmp_path), n=8, seed=11, split="train")
    convs = load_dataset(p)
    assert len(convs) == 8
    assert all(c.image_path for c in convs)


def test_existence_ordinal_cycle():
    kinds = [make_sample(0, "train", i)[1]["category"] for i in range(8)]
    assert kinds == ["color", "shape", "existence", "existence"] * 2
    assert _existence_ordinal(2) == 0 and _existence_ordinal(3) == 1
    assert _existence_ordinal(6) == 2 and _existence_ordinal(7) == 3
