"""Named SHA-256 digests of what the package computes, to show that a change
keeps the same bytes.

Usage:
    python3 tools/fingerprint.py [--tree DIR]
    python3 tools/fingerprint.py --parent DIR --change DIR

With `--tree` (by default the repository this file sits in) it imports
`vlmkit` from DIR/src and the benchmark's workloads from DIR/bench in a fresh
process, with BLAS pinned to one thread, and prints one JSON object that maps
each key to a SHA-256 digest:
  - tokenize.<template>: ids, labels and image index from `tokenize_and_label`
    for every sample of the seed-1..3 train splits, under every registered
    template;
  - prompt.<template>: ids and image index from `tokenize_prompt` for the same
    conversations;
  - collate.<template>: `collate` of those samples, with their 16 px images,
    in batches of 8 cut to 96 columns, so that long samples are truncated;
  - load_ppm: every image of the three splits; preprocess_image.<size>.<aspect>:
    the seed-1 images, and their crops with 5 rows cut off the top, at the
    towers' sizes (16, 32) under `square` and `pad`;
  - <workload>.params, .grads and .losses: parameters, `.grad` and losses after
    STEPS steps of the `train_text` and `train_align` workloads at seed 1;
  - generate.fit_losses and generate.answers: the `generate` workload's fitted
    model and its answers to the 32 seed-1 heldout prompts;
  - errors.messages: for each of CASES random templates and conversations
    built from "<image>" fragments, NUL, "</s>" and a lone surrogate, the
    prompt ids, the sample ids and labels, or the type and message of the
    first error, from building both and tokenizing the conversation as a
    prompt and as a sample, all inside one `try`.

With `--parent` and `--change` it fingerprints both trees, one after the
other, and prints only the keys whose digests differ or that one tree lacks,
then how many differ. It exits 1 when any key differs, else 0.

This one script runs against both trees, so the digests compare across a
change to the package. Each corpus case constructs and tokenizes inside one
`try`, so a check moved from tokenization to construction, with its message
kept, gives the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (1, 2, 3)           # train splits tokenized and collated
SPLIT = 64                  # samples per split, as in the benchmark
BATCH, PAD_TO = 8, 96       # collate: batch size and columns
SIZES, ASPECTS = (16, 32), ("square", "pad")
STEPS = 40                  # training steps per workload before its digests
WORKLOAD_SEED = 1           # seed of the training and generate workloads
CASES = 20000               # error corpus size
CORPUS_SEED = 0
# Pieces of "<image>" that can join across turns and template fields.
FRAGMENTS = ("<", "<i", "<im", "<ima", "<imag", "<image", "image>", "mage>", "age>", "ge>",
             "e>", ">", "\0", "</s>", "é", "q")
TEMPLATE_FIELDS = ("system_message", "user_prefix", "user_suffix", "assistant_prefix",
                   "assistant_suffix")


class Digests:
    """One SHA-256 per key, fed arrays, scalars and strings in order."""

    def __init__(self):
        self._hashes = {}

    def add(self, key: str, *values):
        h = self._hashes.setdefault(key, hashlib.sha256())
        for v in values:
            if hasattr(v, "tobytes"):       # a numpy array: its type and shape count too
                h.update(f"{v.dtype}{v.shape}".encode())
                h.update(v.tobytes())
            else:
                h.update(repr(v).encode("utf-8", "backslashreplace"))
            h.update(b"\n")

    def hexdigests(self) -> Dict[str, str]:
        return {key: h.hexdigest() for key, h in sorted(self._hashes.items())}


def _data(out: Digests, work: str):
    from vlmkit.data import (ByteTokenizer, collate, load_dataset, load_ppm, preprocess_image,
                             resolve_image_path, synth_vqa_generate, tokenize_and_label,
                             tokenize_prompt)
    from vlmkit.registry import registry

    tok = ByteTokenizer()
    templates = {name: registry.create("template", name) for name in registry.names("template")}
    for seed in SEEDS:
        path = synth_vqa_generate(os.path.join(work, f"split{seed}"), SPLIT, seed, "train")
        convs = load_dataset(path)
        pixels = [load_ppm(resolve_image_path(path, conv.image_path)) for conv in convs]
        for img in pixels:
            out.add("load_ppm", img)
        if seed == SEEDS[0]:
            for size in SIZES:
                for aspect in ASPECTS:
                    for img in pixels:      # and a crop, which `pad` pads
                        out.add(f"preprocess_image.{size}.{aspect}",
                                preprocess_image(img, size, aspect),
                                preprocess_image(img[:, 5:], size, aspect))
        for name, tpl in templates.items():
            samples = []
            for conv, img in zip(convs, pixels):
                sm = tokenize_and_label(conv, tpl, tok)
                out.add(f"tokenize.{name}", sm.input_ids, sm.labels, sm.image_token_index)
                out.add(f"prompt.{name}", *tokenize_prompt(conv, tpl, tok))
                sm.image = preprocess_image(img, SIZES[0])
                samples.append(sm)
            for start in range(0, len(samples), BATCH):
                b = collate(samples[start:start + BATCH], PAD_TO)
                out.add(f"collate.{name}", b.ids, b.labels, b.lengths, b.images,
                        b.image_token_indices, b.truncated)


def _training(out: Digests, work: str):
    import numpy as np
    from vlmkit.model import multimodal
    from workloads import DECODE_BUDGET, WORKLOADS

    for name in ("train_text", "train_align"):
        workload = WORKLOADS[name]
        state = workload.setup(WORKLOAD_SEED, os.path.join(work, name))
        for _ in range(STEPS):
            workload.op(state)
        for pname, p in state.model.named_parameters():
            out.add(f"{name}.params", pname, p.data)
            out.add(f"{name}.grads", pname, p.grad)
        out.add(f"{name}.losses", np.asarray(state.losses, dtype=np.float64))
    state = WORKLOADS["generate"].setup(WORKLOAD_SEED, os.path.join(work, "generate"))
    out.add("generate.fit_losses", np.asarray(state.fit_losses, dtype=np.float64))
    for p in state.prompts:
        out.add("generate.answers", p.conv.id,
                multimodal.generate(state.model, p.conv, p.image, DECODE_BUDGET))


def _text(rng: random.Random, fragments, most: int) -> str:
    """1..`most` of `fragments`, joined; now and then with a bad tail: "<image>",
    which no template may hold, or a lone surrogate, which UTF-8 cannot encode."""
    text = "".join(rng.choice(fragments) for _ in range(rng.randint(1, most)))
    return text + rng.choice(("<image>", "\ud800")) if rng.random() < 0.03 else text


def _errors(out: Digests):
    from vlmkit.data import (ByteTokenizer, ChatTemplate, Conversation, Turn, tokenize_and_label,
                             tokenize_prompt)

    tok, rng = ByteTokenizer(), random.Random(CORPUS_SEED)
    for _ in range(CASES):
        fields = {f: "" if rng.random() < 0.5 else _text(rng, FRAGMENTS, 2)
                  for f in TEMPLATE_FIELDS}
        add_bos = rng.random() < 0.5
        n = rng.randint(0, 4)
        alternate = rng.random() < 0.8
        roles = [("assistant" if i % 2 else "human") if alternate
                 else rng.choice(("human", "assistant", "gpt")) for i in range(n)]
        texts = [_text(rng, FRAGMENTS + ("<image>",), 3) if rng.random() < 0.97 else None
                 for _ in range(n)]
        has_image = any("<image>" in t for t in texts if t is not None)
        image = ("x.ppm" if has_image else None) if rng.random() < 0.8 else rng.choice(
            (None, "x.ppm", 5))
        conv_id = "c" if rng.random() < 0.97 else rng.choice((5, None))
        try:
            tpl = ChatTemplate("frag", add_bos=add_bos, **fields)
            conv = Conversation(conv_id, image, [Turn(r, t) for r, t in zip(roles, texts)])
            out.add("errors.messages", "prompt", *tokenize_prompt(conv, tpl, tok))
            sample = tokenize_and_label(conv, tpl, tok)
            out.add("errors.messages", "sample", sample.input_ids, sample.labels)
        except Exception as exc:    # every outcome counts, a contract escape too
            out.add("errors.messages", type(exc).__name__, str(exc))


def emit(tree: str):
    """Print the digests of `tree`, imported in this process (see `fingerprint`)."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "bench")]
    import vlmkit

    if os.path.dirname(os.path.abspath(vlmkit.__file__)) != os.path.join(src, "vlmkit"):
        sys.exit(f"imported vlmkit from {vlmkit.__file__}, not {src}")
    out = Digests()
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        _data(out, work)
        _training(out, work)
    _errors(out)
    print(json.dumps(out.hexdigests(), sort_keys=True))


def fingerprint(tree: str) -> Dict[str, str]:
    """The digests of `tree`, computed in a fresh process with one BLAS thread."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    code = "import sys, fingerprint; fingerprint.emit(sys.argv[1])"
    done = subprocess.run([sys.executable, "-c", code, tree], cwd=HERE, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{tree}: fingerprint exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def differing(parent: Dict[str, str], change: Dict[str, str]) -> List[str]:
    """The keys whose digests differ, or that only one side has, sorted."""
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=os.path.dirname(HERE))
    ap.add_argument("--parent")
    ap.add_argument("--change")
    args = ap.parse_args(argv)
    if (args.parent is None) != (args.change is None):
        ap.error("--parent and --change go together")
    if args.parent is None:
        print(json.dumps(fingerprint(args.tree), indent=2, sort_keys=True))
        return 0
    parent, change = fingerprint(args.parent), fingerprint(args.change)
    keys = differing(parent, change)
    for key in keys:
        print(f"{key:<32} parent {parent.get(key, '-')[:16]}  change {change.get(key, '-')[:16]}")
    print(f"{len(keys)} of {len(parent.keys() | change.keys())} keys differ")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main())
