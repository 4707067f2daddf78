"""Chat templates: the string scaffolding wrapped around conversation turns.

Rendering is a pure function of (template, conversation). Three templates
ship built in:

  plain       empty markers, answers terminated by EOS; used for the
              caption-alignment pretraining stage
  llava_v1    "USER: ... ASSISTANT: ..." with a system message
  gemma_like  start/end-of-turn delimiters, answer terminated by the
              end-of-turn marker instead of EOS

The order of a conversation's pieces under a template is defined in one
place, `template_segments`: BOS, system message, then per turn the user
prefix/text/suffix or the assistant prefix/text/suffix and EOS. Rendering
here and tokenizing in `labeling` only consume its segments.

Segments are tokenized one by one, so "<image>" split across two of them
(human "q<ima", assistant "ge>") gives no IMAGE token, yet would render as
one. `template_segments` rejects such a conversation, which keeps every
rendered placeholder an IMAGE token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

from ..errors import ValidationError
from ..registry import registry
from .conversations import Conversation, ROLE_HUMAN
from .tokenizer import BOS_ID, EOS_ID, IMAGE_PLACEHOLDER

# String rendering of the EOS token in prompts (the tokenizer emits the
# EOS id directly; this literal only appears in rendered text).
EOS_TEXT = "</s>"


@dataclass(frozen=True)
class ChatTemplate:
    name: str
    system_message: str = ""
    user_prefix: str = ""
    user_suffix: str = ""
    assistant_prefix: str = ""
    assistant_suffix: str = ""
    add_bos: bool = False
    add_eos_after_assistant: bool = True

    def __post_init__(self):
        if not self.add_eos_after_assistant and not self.assistant_suffix:
            raise ValidationError(
                f"template '{self.name}': answers need a terminator; set "
                "add_eos_after_assistant or a non-empty assistant_suffix")


_SPECIAL_TEXT = {BOS_ID: "", EOS_ID: EOS_TEXT}


def template_segments(conv: Conversation, tpl: ChatTemplate,
                      prompt: bool = False) -> List[Tuple[Union[str, int], bool]]:
    """The (piece, supervised) segments of a validated conversation, in order.

    A piece is text or a special id (BOS_ID, EOS_ID); supervised marks answer
    text and its terminator, which training labels.

    With prompt=True the walk stops right after the final assistant prefix:
    a trailing assistant turn contributes its prefix only, and a conversation
    ending on a human turn gets the prefix appended (a generation prompt).

    Raises ValidationError, naming the conversation, when the rendered
    pieces join into an "<image>" that no single piece holds.
    """
    conv.validate()
    segments = list(_walk(conv, tpl, prompt))
    texts = [_SPECIAL_TEXT.get(piece, piece) for piece, _ in segments]
    # A NUL between pieces breaks every placeholder that spans two of them.
    if "".join(texts).count(IMAGE_PLACEHOLDER) != "\0".join(texts).count(IMAGE_PLACEHOLDER):
        raise ValidationError(
            f"conversation '{conv.id}': text split across template pieces joins into "
            f"'{IMAGE_PLACEHOLDER}', which would render as a placeholder that is not one")
    return segments


def _walk(conv: Conversation, tpl: ChatTemplate,
          prompt: bool) -> Iterator[Tuple[Union[str, int], bool]]:
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
            yield tpl.assistant_suffix, True
            if tpl.add_eos_after_assistant:
                yield EOS_ID, True


def render_prompt(conv: Conversation, tpl: ChatTemplate,
                  include_last_assistant: bool = True) -> str:
    """Render a conversation to a flat string.

    With include_last_assistant=False the result is the generation prompt:
    it ends on the final assistant prefix (see `template_segments`).
    """
    segments = template_segments(conv, tpl, prompt=not include_last_assistant)
    return "".join(_SPECIAL_TEXT.get(piece, piece) for piece, _ in segments)


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
    add_eos_after_assistant=False,
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
