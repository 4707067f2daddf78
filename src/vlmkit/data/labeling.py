"""Tokenization with ground-truth label masking, and batch collation.

The segments come from `templates.template_segments`, which alone defines
their order. Each segment (system message, role markers, turn texts,
specials) is tokenized independently and concatenated, so token boundaries
never straddle segments, and `template_segments` rejects an "<image>" split
across them. Labels
carry the token id inside assistant answer text plus its terminator (EOS or
the assistant suffix) and IGNORE_INDEX (-100) everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..numerics.ops import IGNORE_INDEX
from .conversations import Conversation
from .templates import ChatTemplate, template_segments
from .tokenizer import IMAGE_ID, PAD_ID, ByteTokenizer


@dataclass
class TokenizedSample:
    input_ids: np.ndarray            # int32 [T]
    labels: np.ndarray               # int32 [T], IGNORE_INDEX where unsupervised
    image_token_index: Optional[int] = None
    image: Optional[np.ndarray] = None   # preprocessed [3, S, S], filled by loaders
    conv_id: str = ""

    def __len__(self):
        return int(self.input_ids.shape[0])


def _encode(piece, tok: ByteTokenizer) -> List[int]:
    return [piece] if isinstance(piece, int) else tok.encode(piece)


def _image_index(ids: np.ndarray) -> Optional[int]:
    pos = np.where(ids == IMAGE_ID)[0]
    return int(pos[0]) if pos.size else None


def tokenize_and_label(conv: Conversation, tpl: ChatTemplate, tok: ByteTokenizer,
                       require_assistant: bool = True) -> TokenizedSample:
    """Tokenize a conversation and mask everything but the answers.

    With require_assistant=False (pretraining mode) a conversation without
    any assistant turn is allowed and yields all-ignored labels.
    """
    ids: List[int] = []
    labels: List[int] = []
    answered = False      # every assistant turn yields supervised segments
    for piece, supervised in template_segments(conv, tpl):
        seg = _encode(piece, tok)
        ids.extend(seg)
        labels.extend(seg if supervised else [IGNORE_INDEX] * len(seg))
        answered |= supervised
    if require_assistant and not answered:
        raise ValidationError(f"conversation '{conv.id}' has no assistant turn")

    arr_ids = np.asarray(ids, dtype=np.int32)
    arr_labels = np.asarray(labels, dtype=np.int32)
    arr_labels[arr_ids == IMAGE_ID] = IGNORE_INDEX
    return TokenizedSample(
        input_ids=arr_ids,
        labels=arr_labels,
        image_token_index=_image_index(arr_ids),
        conv_id=conv.id,
    )


def tokenize_prompt(conv: Conversation, tpl: ChatTemplate,
                    tok: ByteTokenizer) -> Tuple[np.ndarray, Optional[int]]:
    """Token ids for a generation prompt, and the image placeholder's index.

    The ids are those of tokenize_and_label cut right after the final
    assistant prefix; a conversation ending on a human turn gets the prefix
    appended.
    """
    ids: List[int] = []
    for piece, _ in template_segments(conv, tpl, prompt=True):
        ids.extend(_encode(piece, tok))
    arr = np.asarray(ids, dtype=np.int32)
    return arr, _image_index(arr)


@dataclass
class Batch:
    ids: np.ndarray                     # int32 [B, T]
    labels: np.ndarray                  # int32 [B, T]
    lengths: List[int]                  # kept length per row, before padding
    images: Optional[np.ndarray]        # [B, 3, S, S] when every sample has one
    image_token_indices: List[Optional[int]] = field(default_factory=list)
    truncated: int = 0


def _truncation_cut(ids: np.ndarray, limit: int) -> int:
    """Rightmost cut <= limit that does not split a multi-byte character."""
    cut = limit
    if cut < len(ids) and 0x80 <= int(ids[cut]) <= 0xBF:
        while cut > 0 and 0x80 <= int(ids[cut]) <= 0xBF:
            cut -= 1
        # ids[cut] now leads the split character; drop it as well.
    return cut


def collate(samples: Sequence[TokenizedSample], pad_to: int,
            pad_id: int = PAD_ID) -> Batch:
    """Right-pad samples into one batch of `pad_to` (>= 1) columns; labels
    pad with IGNORE_INDEX. Images, when every sample has one, share a shape.

    Over-long samples are truncated from the right (never splitting a
    multi-byte character, never dropping the image placeholder) and counted
    in Batch.truncated.
    """
    if not samples:
        raise ValidationError("collate needs at least one sample")
    if pad_to < 1:
        raise ValidationError(f"collate: pad_to must be at least 1, got {pad_to}")
    rows_ids, rows_labels, lengths, indices = [], [], [], []
    truncated = 0
    for sm in samples:
        ids, labels = sm.input_ids, sm.labels
        if len(ids) > pad_to:
            cut = _truncation_cut(ids, pad_to)
            if sm.image_token_index is not None and sm.image_token_index >= cut:
                raise ValidationError(
                    f"sample '{sm.conv_id}': truncation to {pad_to} would drop the image "
                    "placeholder")
            ids, labels = ids[:cut], labels[:cut]
            truncated += 1
        lengths.append(len(ids))
        indices.append(sm.image_token_index)
        rows_ids.append(np.concatenate(
            [ids, np.full(pad_to - len(ids), pad_id, dtype=np.int32)]))
        rows_labels.append(np.concatenate(
            [labels, np.full(pad_to - len(labels), IGNORE_INDEX, dtype=np.int32)]))

    images = None
    if all(sm.image is not None for sm in samples):
        for sm in samples:
            if sm.image.shape != samples[0].image.shape:
                raise ValidationError(
                    f"sample '{sm.conv_id}': image shape {sm.image.shape} differs from "
                    f"the batch's {samples[0].image.shape}")
        images = np.stack([sm.image for sm in samples])
    elif any(sm.image is not None for sm in samples):
        images = [sm.image for sm in samples]

    return Batch(
        ids=np.stack(rows_ids),
        labels=np.stack(rows_labels),
        lengths=lengths,
        images=images,
        image_token_indices=indices,
        truncated=truncated,
    )
