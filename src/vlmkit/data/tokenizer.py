"""Byte-level tokenizer: 256 byte tokens plus four specials.

Text maps to its UTF-8 bytes one token per byte, except the literal
"<image>" which always becomes the single IMAGE token. Special ids are
fixed: BOS=256, EOS=257, PAD=258, IMAGE=259, vocab size 260.

`ByteTokenizer.encode_pieces` is the one encoder: it joins the UTF-8 bytes
of a run of pieces, each text or BOS or EOS, and converts them to ids in
one step, then writes each special id (BOS, EOS, IMAGE) into the slot it
recorded while walking. Specials are never found by searching the bytes, so
text may hold any character, NUL included. `encode` is its one-text case.

Every special is a NUL in the joined bytes, the "<image>" inside a piece
included, so an "<image>" left in them spans two pieces: it would read as a
placeholder in the text yet be no IMAGE token, and the encoder refuses it.

`decode` is the text view of ids: bytes as UTF-8, IMAGE as "<image>", the
other specials as nothing.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError, require_int

BOS_ID = 256
EOS_ID = 257
PAD_ID = 258
IMAGE_ID = 259
VOCAB_SIZE = 260

IMAGE_PLACEHOLDER = "<image>"
_PLACEHOLDER_BYTES = IMAGE_PLACEHOLDER.encode("utf-8")


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
        if not isinstance(text, str):
            raise ValidationError(f"encode takes text, got {text!r}")
        return self.encode_pieces([text])[0].tolist()

    def encode_pieces(self, pieces: Sequence[Union[str, int]]
                      ) -> Tuple[np.ndarray, List[int], Optional[int]]:
        """The int32 ids of `pieces` laid end to end, where a piece is text,
        BOS_ID or EOS_ID; the offset where each piece ends; and the index of
        the first IMAGE token, if any.

        Raises ValidationError when text split across pieces joins into
        "<image>", and for a piece of any other kind, naming it.
        """
        blobs: List[bytes] = []
        slots: List[Tuple[int, int]] = []       # (index, special id)
        ends: List[int] = []
        n = 0
        for piece in pieces:
            if isinstance(piece, str):
                for i, part in enumerate(piece.split(IMAGE_PLACEHOLDER)):
                    if i:
                        slots.append((n, IMAGE_ID))
                        blobs.append(b"\0")
                        n += 1
                    blob = part.encode("utf-8")
                    blobs.append(blob)
                    n += len(blob)
            elif isinstance(piece, int) and piece in (BOS_ID, EOS_ID):
                slots.append((n, piece))
                blobs.append(b"\0")
                n += 1
            else:
                raise ValidationError(
                    f"piece {len(ends)} is {piece!r}, not text, BOS_ID or EOS_ID")
            ends.append(n)
        joined = b"".join(blobs)
        if _PLACEHOLDER_BYTES in joined:
            raise ValidationError(
                f"text split across template pieces joins into '{IMAGE_PLACEHOLDER}', "
                "which would render as a placeholder that is not one")
        ids = np.frombuffer(joined, dtype=np.uint8).astype(np.int32)
        image_index = None
        for at, special in slots:
            ids[at] = special
            if special == IMAGE_ID and image_index is None:
                image_index = at
        return ids, ends, image_index

    def decode(self, ids: Iterable[int]) -> str:
        """The text of `ids`; each must be an integer (numpy's too, a bool
        never) in the vocabulary."""
        pieces: List[str] = []
        buf = bytearray()

        def flush():
            if buf:
                pieces.append(buf.decode("utf-8", errors="replace"))
                buf.clear()

        for at, tid in enumerate(ids):
            tid = require_int(f"token id at position {at}", tid)
            if 0 <= tid < 256:
                buf.append(tid)
            elif tid == IMAGE_ID:
                flush()
                pieces.append(IMAGE_PLACEHOLDER)
            elif tid in (BOS_ID, EOS_ID, PAD_ID):
                flush()
            else:
                raise ValidationError(f"token id at position {at} is {tid}, outside the "
                                      f"vocabulary [0, {VOCAB_SIZE})")
        flush()
        return "".join(pieces)
