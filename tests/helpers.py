"""Shared test helpers: random multilingual conversations, the fuzz profile."""

import numpy as np
from hypothesis import settings

from vlmkit.data import Conversation, Turn

# Fuzz tests see the same examples on every run, with no per-example time
# limit, so a slow or loaded machine cannot make them flake.
settings.register_profile("fuzz", derandomize=True, deadline=None, max_examples=200,
                          database=None)
FUZZ = settings.get_profile("fuzz")

# Mixed-script words exercise multi-byte UTF-8 through the byte tokenizer.
WORDS = [
    "red", "square", "grid", "shape", "tiny", "alignment", "café",
    "naïve", "δοκιμή", "проба", "日本語", "emoji🙂", "answer",
]


def random_text(rng: np.random.Generator, lo=1, hi=5) -> str:
    k = int(rng.integers(lo, hi + 1))
    return " ".join(WORDS[int(rng.integers(0, len(WORDS)))] for _ in range(k))


def random_conversation(rng: np.random.Generator, conv_id="c", with_image=None) -> Conversation:
    if with_image is None:
        with_image = bool(rng.integers(0, 2))
    n_pairs = int(rng.integers(1, 4))
    turns = []
    for i in range(n_pairs):
        human = random_text(rng)
        if i == 0 and with_image:
            human = "<image>\n" + human
        turns.append(Turn("human", human))
        turns.append(Turn("assistant", random_text(rng)))
    return Conversation(
        id=conv_id,
        image_path="images/x.ppm" if with_image else None,
        turns=turns,
    )
