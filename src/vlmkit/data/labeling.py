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

from ..errors import ValidationError, require_int
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


def _kept_length(sm: TokenizedSample, pad_to: int) -> int:
    """Length of `sm` cut to at most `pad_to`: the rightmost cut that does not
    split a multi-byte character or drop the image placeholder. Ids and labels
    must be equally long."""
    ids, cut = sm.input_ids, pad_to
    if len(sm.labels) != len(ids):
        raise ValidationError(f"sample '{sm.conv_id}': {len(ids)} ids but {len(sm.labels)} labels")
    if len(ids) <= cut:
        return len(ids)
    while cut > 0 and 0x80 <= int(ids[cut]) <= 0xBF:
        cut -= 1
    # ids[cut] now leads any split character; ids[:cut] drops it as well.
    if sm.image_token_index is not None and sm.image_token_index >= cut:
        raise ValidationError(
            f"sample '{sm.conv_id}': truncation to {pad_to} would drop the image placeholder")
    return cut


def collate(samples: Sequence[TokenizedSample], pad_to: int) -> Batch:
    """Right-pad samples into one batch of `pad_to` (>= 1) columns: ids pad
    with PAD_ID, labels with IGNORE_INDEX. Images, when every sample has one,
    share a shape.

    Over-long samples are truncated from the right (never splitting a
    multi-byte character, never dropping the image placeholder) and counted
    in Batch.truncated.
    """
    if not samples:
        raise ValidationError("collate needs at least one sample")
    require_int("pad_to", pad_to, 1)
    lengths = [_kept_length(sm, pad_to) for sm in samples]
    shape = (len(samples), pad_to)
    ids = np.full(shape, PAD_ID, np.result_type(np.int32, *(sm.input_ids for sm in samples)))
    labels = np.full(shape, IGNORE_INDEX, np.result_type(np.int32, *(sm.labels for sm in samples)))
    for row, (sm, kept) in enumerate(zip(samples, lengths)):
        ids[row, :kept] = sm.input_ids[:kept]
        labels[row, :kept] = sm.labels[:kept]

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
        ids=ids,
        labels=labels,
        lengths=lengths,
        images=images,
        image_token_indices=[sm.image_token_index for sm in samples],
        truncated=sum(len(sm.input_ids) > pad_to for sm in samples),
    )
