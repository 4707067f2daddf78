"""Tokenization with ground-truth label masking, and batch collation.

A conversation becomes tokens in one walk: `templates.template_segments`
yields its segments (system message, role markers, turn texts, specials)
in the one order it defines, and `ByteTokenizer.encode_pieces` encodes
them in one pass. The walk checks nothing, since a `Conversation` is
checked when it is built. The encoder encodes each text to UTF-8, joins
the bytes, refuses an "<image>" split across segments, converts them to
int32 ids in one step and writes BOS, EOS and IMAGE into the slots it
recorded on the way, never by searching the bytes, since turn text may
hold NUL. Each segment is encoded on its own, so token boundaries
never straddle segments. The encoder returns where each segment ends, so
the supervised ones become (start, end) spans. Any error from the encoder
names the conversation.

Labels carry the token id inside assistant answer text plus its terminator
(EOS or the assistant suffix) and IGNORE_INDEX (-100) everywhere else: one
fill with IGNORE_INDEX, then one slice copy per supervised span. The one
image token is never supervised: templates may not hold "<image>", so it
comes from the first turn, which is a human one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError, naming, require_int
from ..numerics.ops import IGNORE_INDEX
from .conversations import Conversation
from .templates import ChatTemplate, template_segments
from .tokenizer import PAD_ID, ByteTokenizer


@dataclass
class TokenizedSample:
    input_ids: np.ndarray            # int32 [T]
    labels: np.ndarray               # int32 [T], IGNORE_INDEX where unsupervised
    image_token_index: Optional[int] = None
    image: Optional[np.ndarray] = None   # preprocessed [3, S, S], filled by loaders
    conv_id: str = ""

    def __len__(self):
        return int(self.input_ids.shape[0])


def _tokenize(conv: Conversation, tpl: ChatTemplate, tok: ByteTokenizer,
              prompt: bool) -> Tuple[np.ndarray, List[Tuple[int, int]], Optional[int]]:
    """The ids of `conv`'s template segments (see `template_segments` for
    `prompt`), the (start, end) span of each supervised segment, and the
    index of the image placeholder, if any."""
    segments = list(template_segments(conv, tpl, prompt))
    with naming(f"conversation '{conv.id}'"):
        ids, ends, image_index = tok.encode_pieces([piece for piece, _ in segments])
    # Segment k holds ids[ends[k - 1]:ends[k]].
    spans = [(start, end) for (_, supervised), start, end in zip(segments, [0] + ends, ends)
             if supervised]
    return ids, spans, image_index


def tokenize_and_label(conv: Conversation, tpl: ChatTemplate,
                       tok: ByteTokenizer) -> TokenizedSample:
    """Tokenize a conversation and mask everything but the answers.

    A conversation without an assistant turn would train nothing and is
    refused: every assistant turn supervises at least its terminator.
    """
    ids, spans, image_index = _tokenize(conv, tpl, tok, prompt=False)
    if not spans:
        raise ValidationError(f"conversation '{conv.id}' has no assistant turn")
    labels = np.full(len(ids), IGNORE_INDEX, dtype=np.int32)
    for start, end in spans:
        labels[start:end] = ids[start:end]
    return TokenizedSample(ids, labels, image_index, conv_id=conv.id)


def tokenize_prompt(conv: Conversation, tpl: ChatTemplate,
                    tok: ByteTokenizer) -> Tuple[np.ndarray, Optional[int]]:
    """Token ids for a generation prompt, and the image placeholder's index.

    The ids are those of tokenize_and_label cut right after the final
    assistant prefix; a conversation ending on a human turn gets the prefix
    appended.
    """
    ids, _, image_index = _tokenize(conv, tpl, tok, prompt=True)
    return ids, image_index


@dataclass
class Batch:
    ids: np.ndarray                     # int32 [B, T]
    labels: np.ndarray                  # int32 [B, T]
    lengths: List[int]                  # kept length per row, before padding
    # [B, 3, S, S] when every sample has one; when only some do, a list with
    # each sample's image or None; None when no sample has one.
    images: Union[np.ndarray, List[Optional[np.ndarray]], None]
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
