"""Fuzzing the error contract of the data loaders.

For any input, `load_dataset` and `load_ppm` either return a well-formed
result or raise a `VlmkitError` that names the record or the file.
"""

import json
import re

from hypothesis import example, given, strategies as st

from helpers import FUZZ
from vlmkit.data import load_dataset, load_ppm
from vlmkit.data.conversations import ROLE_ASSISTANT, ROLE_HUMAN
from vlmkit.errors import VlmkitError

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


def _field(value):
    return str(value).encode() if isinstance(value, int) else value


@FUZZ
@given(magic=st.sampled_from([b"P6", b"P5", b"P3"]), width=FIELDS, height=FIELDS,
       maxval=st.sampled_from([255, 0, 65535]) | FIELDS,
       comment=st.booleans(), extra=st.integers(-2, 2))
@example(magic=b"P6", width=-2, height=2, maxval=255, comment=False, extra=0)
@example(magic=b"P6", width=0, height=0, maxval=255, comment=False, extra=0)
def test_load_ppm_loads_or_names_the_field(tmp_path_factory, magic, width, height, maxval,
                                          comment, extra):
    header = magic + b"\n" + (b"# fuzz\n" if comment else b"")
    header += b" ".join(_field(f) for f in (width, height, maxval)) + b"\n"
    sized = isinstance(width, int) and isinstance(height, int)
    need = 3 * max(width, 0) * max(height, 0) if sized else 12
    path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
    path.write_bytes(header + bytes(range(256))[:max(need + extra, 0)])
    ints = all(isinstance(f, int) for f in (width, height, maxval))
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
