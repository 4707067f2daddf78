"""Multimodal conversations and the on-disk dataset format.

A dataset file is a JSON array of records:

    {"id": str, "image": relative path (optional),
     "conversations": [{"from": "human"|"gpt", "value": str}, ...]}

The "<image>" literal marks where image features are spliced into the
token sequence; it may appear once, and only in the first human turn.
Turn text must be encodable as UTF-8, which the tokenizer emits.

A `Conversation` checks these rules when it is built, so one that exists
is valid and nothing downstream checks it again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ValidationError, naming, path_error
from .tokenizer import IMAGE_PLACEHOLDER, require_utf8

ROLE_HUMAN = "human"
ROLE_ASSISTANT = "assistant"

_FROM_TO_ROLE = {"human": ROLE_HUMAN, "gpt": ROLE_ASSISTANT}


@dataclass(frozen=True)
class Turn:
    role: str
    text: str


@dataclass(frozen=True)
class Conversation:
    """A valid conversation: the constructor refuses any other by name.

    Frozen, but `turns` is kept as passed, not copied, so it must not be
    edited in place after construction; build a new `Conversation` instead."""
    id: str
    image_path: Optional[str] = None
    turns: Sequence[Turn] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValidationError(f"conversation id must be a string, got {self.id!r}")
        if not (self.image_path is None or isinstance(self.image_path, str)):
            raise ValidationError(f"conversation '{self.id}': image path must be a string, "
                                  f"got {type(self.image_path).__name__}")
        if not isinstance(self.turns, (list, tuple)):
            raise ValidationError(f"conversation '{self.id}': turns must be a list of Turn, "
                                  f"got {type(self.turns).__name__}")
        placeholders: List[int] = []      # the turn of each "<image>", in order
        for i, turn in enumerate(self.turns):
            if not isinstance(turn, Turn):
                raise ValidationError(f"conversation '{self.id}': turn {i} must be a Turn, "
                                      f"got {type(turn).__name__}")
            if not (isinstance(turn.role, str) and isinstance(turn.text, str)):
                raise ValidationError(
                    f"conversation '{self.id}': turn {i} role and text must be strings, got "
                    f"{type(turn.role).__name__} and {type(turn.text).__name__}")
            expected = ROLE_HUMAN if i % 2 == 0 else ROLE_ASSISTANT
            if turn.role != expected:
                raise ValidationError(
                    f"conversation '{self.id}': turn {i} has role '{turn.role}', "
                    f"expected '{expected}' (roles must alternate starting with human)")
            require_utf8(turn.text, f"conversation '{self.id}': turn {i}")
            placeholders += [i] * turn.text.count(IMAGE_PLACEHOLDER)
        if len(placeholders) > 1:
            raise ValidationError(
                f"conversation '{self.id}': '{IMAGE_PLACEHOLDER}' appears {len(placeholders)} "
                "times, at most one is allowed")
        if placeholders and placeholders[0]:
            raise ValidationError(
                f"conversation '{self.id}': '{IMAGE_PLACEHOLDER}' must appear in the "
                f"first human turn, found in turn {placeholders[0]}")
        if (self.image_path is not None) != bool(placeholders):
            raise ValidationError(
                f"conversation '{self.id}': image path and '{IMAGE_PLACEHOLDER}' placeholder "
                "must be present together")


def conversation_from_record(record: dict, index: int) -> Conversation:
    if not isinstance(record, dict):
        raise ValidationError(f"record {index}: expected an object, got {type(record).__name__}")
    messages = record.get("conversations", [])
    if not isinstance(messages, list):
        raise ValidationError(
            f"record {index}: 'conversations' must be an array, got {type(messages).__name__}")
    turns = []
    for j, msg in enumerate(messages):
        if not isinstance(msg, dict):
            raise ValidationError(
                f"record {index}: turn {j} must be an object, got {type(msg).__name__}")
        src = msg.get("from")
        if not isinstance(src, str) or src not in _FROM_TO_ROLE:
            raise ValidationError(f"record {index}: turn {j} has unknown 'from' value {src!r}")
        text = msg.get("value", "")
        if not isinstance(text, str):
            raise ValidationError(
                f"record {index}: turn {j} 'value' must be a string, got {type(text).__name__}")
        turns.append(Turn(_FROM_TO_ROLE[src], text))
    image = record.get("image")
    if image is not None and not (isinstance(image, str) and image):
        raise ValidationError(f"record {index}: 'image' must be a non-empty path string, "
                              f"got {image!r}")
    if image is not None:
        require_utf8(image, f"record {index}: 'image'")
        if "\0" in image:
            raise ValidationError(f"record {index}: 'image' holds '\\x00', "
                                  "which no file path can hold")
    conv_id = record.get("id", str(index))
    if not isinstance(conv_id, str):
        raise ValidationError(f"record {index}: 'id' must be a string, got {conv_id!r}")
    with naming(f"record {index}"):
        return Conversation(id=conv_id, image_path=image, turns=turns)


def load_dataset(path: str) -> List[Conversation]:
    """Parse a dataset file, preserving record order; rejects bad records.

    Record ids are strings and must be unique; a record without an id takes
    its index as its id.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    except (OSError, ValueError) as exc:
        raise path_error(path, "read", exc) from None
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: top level must be a JSON array")
    convs, first_index = [], {}
    for i, rec in enumerate(raw):
        conv = conversation_from_record(rec, i)
        first = first_index.setdefault(conv.id, i)
        if first != i:
            implicit = [k for k in (first, i) if "id" not in raw[k]]
            note = f" (record {implicit[0]} has no id and takes its index)" if implicit else ""
            raise ValidationError(
                f"record {i}: id '{conv.id}' already used by record {first}{note}")
        convs.append(conv)
    return convs


def resolve_image_path(dataset_path: str, image_rel: str) -> str:
    """Image paths in records are relative to the dataset file's directory.
    Either argument that is not a string is a ValidationError naming it."""
    for name, value in (("dataset_path", dataset_path), ("image_rel", image_rel)):
        if not isinstance(value, str):
            raise ValidationError(f"{name} must be a string, got {value!r}")
    return os.path.join(os.path.dirname(os.path.abspath(dataset_path)), image_rel)
