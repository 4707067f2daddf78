"""Byte-level tokenizer: 256 byte tokens plus four specials.

Text maps to its UTF-8 bytes one token per byte, except the literal
"<image>" which always becomes the single IMAGE token. Special ids are
fixed: BOS=256, EOS=257, PAD=258, IMAGE=259, vocab size 260.

`ByteTokenizer.encode_pieces` is the one encoder: it joins the UTF-8 bytes
of a run of pieces and converts them to ids in one step, then writes each
special id (BOS, EOS, IMAGE) into the slot it recorded while walking.
Specials are never found by searching the bytes, so text may hold any
character, NUL included. `encode` is its one-piece case.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError

BOS_ID = 256
EOS_ID = 257
PAD_ID = 258
IMAGE_ID = 259
VOCAB_SIZE = 260

IMAGE_PLACEHOLDER = "<image>"


def require_utf8(text: str, where: str) -> None:
    """Raise ValidationError, naming `where`, when UTF-8 cannot encode `text`
    (it holds a lone surrogate, as JSON's "\\ud800" decodes to)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{where} holds {text[exc.start]!r}, which UTF-8 cannot encode") from None


class ByteTokenizer:
    def encode(self, text: str) -> List[int]:
        return self.encode_pieces([text])[0].tolist()

    def encode_pieces(self, pieces: Sequence[Union[str, int]]
                      ) -> Tuple[np.ndarray, List[int], Optional[int]]:
        """The int32 ids of `pieces` laid end to end, where a piece is text or
        one special id; the offset where each piece ends; and the index of the
        first IMAGE token, if any."""
        blobs: List[bytes] = []
        slots: List[Tuple[int, int]] = []       # (index, special id)
        ends: List[int] = []
        n = 0
        for piece in pieces:
            if isinstance(piece, int):
                slots.append((n, piece))
                blobs.append(b"\0")
                n += 1
            else:
                for i, part in enumerate(piece.split(IMAGE_PLACEHOLDER)):
                    if i:
                        slots.append((n, IMAGE_ID))
                        blobs.append(b"\0")
                        n += 1
                    blob = part.encode("utf-8")
                    blobs.append(blob)
                    n += len(blob)
            ends.append(n)
        ids = np.frombuffer(b"".join(blobs), dtype=np.uint8).astype(np.int32)
        image_index = None
        for at, special in slots:
            ids[at] = special
            if special == IMAGE_ID and image_index is None:
                image_index = at
        return ids, ends, image_index

    def decode(self, ids: Iterable[int]) -> str:
        pieces: List[str] = []
        buf = bytearray()

        def flush():
            if buf:
                pieces.append(buf.decode("utf-8", errors="replace"))
                buf.clear()

        for tid in ids:
            tid = int(tid)
            if 0 <= tid < 256:
                buf.append(tid)
            elif tid == IMAGE_ID:
                flush()
                pieces.append(IMAGE_PLACEHOLDER)
            elif tid in (BOS_ID, EOS_ID, PAD_ID):
                flush()
            else:
                raise ValidationError(f"token id {tid} outside vocabulary [0, {VOCAB_SIZE})")
        flush()
        return "".join(pieces)
