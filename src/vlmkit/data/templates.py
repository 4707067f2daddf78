"""Chat templates: the string scaffolding wrapped around conversation turns.

Three templates ship built in:

  plain       empty markers; used for the caption-alignment pretraining
              stage
  llava_v1    "USER: ... ASSISTANT: ..." with a system message
  gemma_like  start/end-of-turn delimiters, answer terminated by the
              end-of-turn marker instead of EOS

An answer ends with the template's assistant suffix when it has one, and
with EOS when it does not, so every answer has a terminator to learn.

The order of a conversation's pieces under a template is defined in one
place, `template_segments`, the one walk: it yields BOS, the system
message, and per turn the user prefix/text/suffix or the assistant
prefix/text and suffix or EOS. It checks nothing, since a `Conversation`
is checked when it is built.
`labeling` encodes those pieces in one pass; the token ids are the only
rendering, and `ByteTokenizer.decode` of them is the text view.

Pieces are encoded one by one, so "<image>" split across two of them (human
"q<ima", assistant "ge>") gives no IMAGE token, yet would read as one in the
decoded text. The encoder refuses such pieces (see `tokenizer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from ..errors import ValidationError
from ..registry import registry
from .conversations import Conversation, ROLE_HUMAN
from .tokenizer import BOS_ID, EOS_ID, IMAGE_PLACEHOLDER, require_utf8


@dataclass(frozen=True)
class ChatTemplate:
    name: str
    system_message: str = ""
    user_prefix: str = ""
    user_suffix: str = ""
    assistant_prefix: str = ""
    assistant_suffix: str = ""
    add_bos: bool = False

    def __post_init__(self):
        for attr, value in vars(self).items():
            want = bool if attr == "add_bos" else str
            where = f"template '{self.name}': {attr}"
            if not isinstance(value, want):
                raise ValidationError(f"{where} must be a {want.__name__}, got {value!r}")
            if want is str and attr != "name":
                require_utf8(value, where)
                if IMAGE_PLACEHOLDER in value:
                    raise ValidationError(f"{where} holds '{IMAGE_PLACEHOLDER}'")


def template_segments(conv: Conversation, tpl: ChatTemplate,
                      prompt: bool = False) -> Iterator[Tuple[Union[str, int], bool]]:
    """The (piece, supervised) segments of a conversation, in order. A
    `Conversation` is checked when it is built, so the walk checks nothing.

    A piece is text or a special id (BOS_ID, EOS_ID); supervised marks answer
    text and its terminator, which training labels.

    With prompt=True the walk stops right after the final assistant prefix:
    a trailing assistant turn contributes its prefix only, and a conversation
    ending on a human turn gets the prefix appended (a generation prompt).
    """
    if tpl.add_bos:
        yield BOS_ID, False
    yield tpl.system_message, False
    last = len(conv.turns) - 1
    for i, turn in enumerate(conv.turns):
        if turn.role == ROLE_HUMAN:
            yield tpl.user_prefix, False
            yield turn.text, False
            yield tpl.user_suffix, False
            if prompt and i == last:
                yield tpl.assistant_prefix, False
        else:
            yield tpl.assistant_prefix, False
            if prompt and i == last:
                return
            yield turn.text, True
            yield tpl.assistant_suffix or EOS_ID, True


PLAIN = ChatTemplate(name="plain")

LLAVA_V1 = ChatTemplate(
    name="llava_v1",
    system_message=("A chat between a curious user and an artificial intelligence "
                    "assistant. "),
    user_prefix="USER: ",
    user_suffix=" ",
    assistant_prefix="ASSISTANT: ",
    add_bos=True,
)

GEMMA_LIKE = ChatTemplate(
    name="gemma_like",
    user_prefix="<start_of_turn>user\n",
    user_suffix="<end_of_turn>\n",
    assistant_prefix="<start_of_turn>model\n",
    assistant_suffix="<end_of_turn>\n",
    add_bos=True,
)

BUILTIN_TEMPLATES = {t.name: t for t in (PLAIN, LLAVA_V1, GEMMA_LIKE)}


def _factory(tpl: ChatTemplate):
    """A built-in template has no settings, so its factory takes no config."""
    def create(config=None):
        if config is not None:
            raise ValidationError(f"template '{tpl.name}' takes no config, got {config!r}")
        return tpl
    return create


for _tpl in BUILTIN_TEMPLATES.values():
    registry.register("template", _tpl.name, _factory(_tpl))
