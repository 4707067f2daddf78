"""Dataset ingestion, chat templating, tokenization, images, synthetic VQA."""

from .conversations import (
    Conversation,
    ROLE_ASSISTANT,
    ROLE_HUMAN,
    Turn,
    load_dataset,
    resolve_image_path,
)
from .images import bilinear_resize, load_ppm, preprocess_image, write_ppm
from .labeling import Batch, TokenizedSample, collate, tokenize_and_label, tokenize_prompt
from .synth import ANSWER_VOCABULARY, make_sample, synth_vqa_generate
from .templates import BUILTIN_TEMPLATES, ChatTemplate
from .tokenizer import (
    BOS_ID,
    EOS_ID,
    IMAGE_ID,
    IMAGE_PLACEHOLDER,
    PAD_ID,
    VOCAB_SIZE,
    ByteTokenizer,
)

__all__ = [
    "ANSWER_VOCABULARY",
    "BOS_ID",
    "BUILTIN_TEMPLATES",
    "Batch",
    "ByteTokenizer",
    "ChatTemplate",
    "Conversation",
    "EOS_ID",
    "IMAGE_ID",
    "IMAGE_PLACEHOLDER",
    "PAD_ID",
    "ROLE_ASSISTANT",
    "ROLE_HUMAN",
    "TokenizedSample",
    "Turn",
    "VOCAB_SIZE",
    "bilinear_resize",
    "collate",
    "load_dataset",
    "load_ppm",
    "make_sample",
    "preprocess_image",
    "resolve_image_path",
    "synth_vqa_generate",
    "tokenize_and_label",
    "tokenize_prompt",
    "write_ppm",
]
