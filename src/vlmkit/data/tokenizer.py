"""Byte-level tokenizer: 256 byte tokens plus four specials.

Text maps to its UTF-8 bytes one token per byte, except the literal
"<image>" which always becomes the single IMAGE token. Special ids are
fixed: BOS=256, EOS=257, PAD=258, IMAGE=259, vocab size 260.
"""

from __future__ import annotations

from typing import Iterable, List

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
        ids: List[int] = []
        parts = text.split(IMAGE_PLACEHOLDER)
        for i, part in enumerate(parts):
            if i:
                ids.append(IMAGE_ID)
            ids.extend(part.encode("utf-8"))
        return ids

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
