"""The benchmark's four workloads: data ingest, two training shapes, generation.

Every workload is a closed loop with one caller and one sample per step
(B=1), because nothing in ``vlmkit.model`` batches yet. Inputs come from
``synth_vqa_generate`` with the benchmark's seed, which also seeds model
initialization. Each workload exists to stress different layers:

- ingest: the data path alone. It costs ~0.2 ms per sample against a
  ~13 ms training step, so a data-layer change shows only here, and a
  model or numerics change should leave it flat.
- train_text: the default model (clip_tiny 16 px / patch 8, mlp, phi_tiny
  64x2) on llava_v1 text (~124 tokens). The LLM, the tape and the optimizer
  do nearly all the work.
- train_align: stage-1 alignment shape. The plain template gives ~33 text
  tokens, while two 32 px / patch 4 towers (MoF) feed a 4-query qformer.
  The towers and connector dominate, so vision and connector gains show
  here and not in train_text.
- generate: greedy decoding on heldout prompts with the train_text model,
  fitted during set-up from a fixed seed. No tape, backward or optimizer; every new token
  recomposes the sequence and runs a full LLM forward over the prefix.

Functions of the package are called through their modules, so that the
traced run can wrap them by name (see tracing.py).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from vlmkit.data import conversations, images, labeling, synth
from vlmkit.data.conversations import ROLE_ASSISTANT, Conversation, Turn
from vlmkit.data.labeling import TokenizedSample
from vlmkit.data.templates import BUILTIN_TEMPLATES
from vlmkit.data.tokenizer import EOS_ID, ByteTokenizer
from vlmkit.model import multimodal
from vlmkit.model.multimodal import MultimodalModel, build_model
from vlmkit.numerics import AdamW, no_grad, tensor

SPLIT = 64            # samples per generated split (one cycle of train ops)
HELDOUT = 32          # generate: heldout prompts (one cycle of requests)
BATCH = 8             # ingest: collate batch size
PAD_TO = 160          # ingest: collate length; llava_v1 samples are ~120-130 tokens
INGEST_IMAGE = 16     # ingest: preprocessed side, that of the default vision tower
PROBE_STEPS = 3       # train: steps compared bit for bit across set-up repeats
FIXED_STEPS = 200     # train: steps from init after which the loss is read
LAST_STEPS = 20       # train: train_loss_last averages the steps before FIXED_STEPS
TRAIN_LR = 1e-3
FIT_SEED = 0          # generate: seed of the fitted model and its training split
FIT_STEPS = 300       # generate: training steps in set-up
FIT_LR = 3e-3
DECODE_BUDGET = 16    # generate: max new tokens; answers are at most 8 bytes

TOKENIZER = ByteTokenizer()

ALIGN_CONFIG = {
    "vision": {"name": "clip_tiny", "config": {"image_size": 32, "patch_size": 4}},
    "mof": {"name": "dino_tiny", "config": {"image_size": 32, "patch_size": 4}},
    "connector": {"name": "qformer", "config": {"queries": 4}},
    "template": "plain",
}


class CheckFailed(Exception):
    """An output check failed: the program's result is wrong, not slow."""


def load_samples(path: str, template, image_size: int,
                 aspect: str = "square") -> List[TokenizedSample]:
    """The data path: load_dataset -> load_ppm -> preprocess_image -> tokenize_and_label."""
    out = []
    for conv in conversations.load_dataset(path):
        img = images.load_ppm(conversations.resolve_image_path(path, conv.image_path))
        image = images.preprocess_image(img, image_size, aspect)
        sample = labeling.tokenize_and_label(conv, template, TOKENIZER)
        sample.image = image
        out.append(sample)
    return out


def model_samples(path: str, model: MultimodalModel) -> List[TokenizedSample]:
    return load_samples(path, model.template(), model.image_size, model.image_aspect_ratio)


def llm_positions(sample: TokenizedSample, model: MultimodalModel) -> int:
    """Positions the LLM sees for a sample: text tokens with the image spliced in."""
    return len(sample) - 1 + model.config["image_tokens"]


def train_step(model: MultimodalModel, opt: AdamW, sample: TokenizedSample,
               tracer=None) -> float:
    """sequence_loss -> backward -> AdamW.step; returns the loss."""
    opt.zero_grad()
    loss, _ = multimodal.sequence_loss(model, sample)
    value = loss.item()
    if not math.isfinite(value):
        raise CheckFailed(f"sample '{sample.conv_id}': non-finite loss {value}")
    if tracer is not None:
        tracer.census(loss)
    tensor.backward(loss)
    opt.step()
    return value


def reference_decode(model: MultimodalModel, conv: Conversation, image: np.ndarray,
                     budget: int) -> Tuple[List[int], bool]:
    """Greedy decode built from compose_multimodal and llm.forward_embeds.

    The slow path: one full forward over the whole prefix per new token.
    Returns the generated ids (EOS excluded) and whether EOS ended them.
    """
    conv = Conversation(conv.id, conv.image_path, conv.turns + [Turn(ROLE_ASSISTANT, "")])
    ids, image_index = labeling.tokenize_prompt(conv, model.template(), TOKENIZER)
    out: List[int] = []
    with no_grad():
        image_embeds = model.encode_image(image)
        for _ in range(budget):
            work = np.concatenate([ids, np.asarray(out, dtype=np.int32)])
            embeds, _, _ = multimodal.compose_multimodal(
                work, None, image_embeds, image_index, model.llm)
            next_id = int(np.argmax(model.llm.forward_embeds(embeds).data[-1]))
            if next_id == EOS_ID:
                return out, True
            out.append(next_id)
    return out, False


class Workload:
    name = ""
    units_per_op = 1        # samples, steps or requests one operation attempts
    min_ops = 0             # operations the checks need in the measured loop
    latency_per_token = False   # report latency per token instead of per operation
    display_names: Dict[str, str] = {}  # printed names of generic figures, e.g. step_ms_p50

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def fingerprint(self, state):
        """A value that must repeat bit for bit across set-up repeats."""
        return None

    def verify(self, state):
        """Output checks run once, after the last set-up."""

    def cycle(self, state) -> int:
        """Operations after which every input has been used equally often."""
        return 1

    def op(self, state, tracer=None) -> int:
        """Run one operation; returns the tokens it processed."""
        raise NotImplementedError

    def model(self, state) -> Optional[MultimodalModel]:
        return None

    def check(self, state) -> Dict[str, Tuple[float, str]]:
        """Final output checks; returns quality metrics as (value, unit)."""
        return {}


class Ingest(Workload):
    name = "ingest"
    units_per_op = SPLIT
    display_names = {"latency_ms_p50": "pass_ms_p50", "latency_ms_p90": "pass_ms_p90",
                     "samples_per_s": "ingest_samples_per_s"}

    def setup(self, seed, workdir):
        return SimpleNamespace(path=synth.synth_vqa_generate(workdir, SPLIT, seed, "train"))

    def fingerprint(self, state):
        with open(state.path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def op(self, state, tracer=None):
        """One pass over the split, collated in batches of BATCH."""
        samples = load_samples(state.path, BUILTIN_TEMPLATES["llava_v1"], INGEST_IMAGE)
        if len(samples) != SPLIT:
            raise CheckFailed(f"load_dataset returned {len(samples)} records, expected {SPLIT}")
        for start in range(0, SPLIT, BATCH):
            _check_batch(labeling.collate(samples[start:start + BATCH], PAD_TO),
                         samples[start:start + BATCH])
        return sum(len(s) for s in samples)


def _check_batch(batch, samples):
    n = len(samples)
    want = {"ids": (n, PAD_TO), "labels": (n, PAD_TO),
            "images": (n, 3, INGEST_IMAGE, INGEST_IMAGE)}
    for name, shape in want.items():
        got = getattr(batch, name)
        if not isinstance(got, np.ndarray) or got.shape != shape:
            raise CheckFailed(f"collate: {name} has shape "
                              f"{getattr(got, 'shape', type(got))}, expected {shape}")
    if batch.truncated or batch.lengths != [len(s) for s in samples]:
        raise CheckFailed(f"collate: lengths {batch.lengths} truncated={batch.truncated} "
                          f"for samples of length {[len(s) for s in samples]}")


@dataclass
class _TrainState:
    model: MultimodalModel
    opt: AdamW
    samples: List[TokenizedSample]
    positions: List[int]
    losses: List[float]
    cursor: int = 0


class Train(Workload):
    min_ops = FIXED_STEPS
    display_names = {"latency_ms_p50": "step_ms_p50", "latency_ms_p90": "step_ms_p90",
                     "tokens_per_s": "train_tokens_per_s"}

    def __init__(self, name: str, model_cfg: dict):
        self.name = name
        self.model_cfg = model_cfg

    def setup(self, seed, workdir):
        path = synth.synth_vqa_generate(workdir, SPLIT, seed, "train")
        model = build_model(self.model_cfg, seed)
        samples = model_samples(path, model)
        opt = AdamW(model.named_parameters(), lr=TRAIN_LR)
        return _TrainState(model, opt, samples, [llm_positions(s, model) for s in samples], [])

    def fingerprint(self, state):
        for _ in range(PROBE_STEPS):
            self.op(state)
        return tuple(state.losses)

    def cycle(self, state):
        return len(state.samples)

    def model(self, state):
        return state.model

    def op(self, state, tracer=None):
        k = state.cursor % len(state.samples)
        state.cursor += 1
        state.losses.append(train_step(state.model, state.opt, state.samples[k], tracer))
        return state.positions[k]

    def check(self, state):
        losses = state.losses
        if len(losses) < FIXED_STEPS:
            raise CheckFailed(f"only {len(losses)} steps ran, {FIXED_STEPS} needed")
        first = float(np.mean(losses[:LAST_STEPS]))
        last = float(np.mean(losses[FIXED_STEPS - LAST_STEPS:FIXED_STEPS]))
        if not last < first:
            raise CheckFailed(f"loss did not fall: first {LAST_STEPS} steps {first:.4f}, "
                              f"steps {FIXED_STEPS - LAST_STEPS}-{FIXED_STEPS} {last:.4f}")
        return {"train_loss_last": (last, "nats")}


def heldout_prompts(workdir: str, seed: int, image_size: int) -> List["_Prompt"]:
    path = synth.synth_vqa_generate(workdir, HELDOUT, seed, "heldout")
    prompts = []
    for conv in conversations.load_dataset(path):
        img = images.load_ppm(conversations.resolve_image_path(path, conv.image_path))
        prompts.append(_Prompt(Conversation(conv.id, conv.image_path, conv.turns[:1]),
                               images.preprocess_image(img, image_size),
                               gold=conv.turns[1].text))
    return prompts


@dataclass
class _Prompt:
    conv: Conversation
    image: np.ndarray
    gold: str
    expected: str = ""
    steps: int = 0


class Generate(Workload):
    name = "generate"
    # Requests differ in answer length; time per token much less so.
    latency_per_token = True
    display_names = {"latency_ms_p50": "token_ms_p50", "latency_ms_p90": "token_ms_p90",
                     "ms_per_token": "decode_ms_per_token"}

    def setup(self, seed, workdir):
        """Fit the model on FIT_SEED's train split; prompts come from `seed`.

        The fitted model plays the part of a fixed checkpoint: it does not
        change with the seed, so neither does how it answers in general.
        """
        train_path = synth.synth_vqa_generate(workdir, SPLIT, FIT_SEED, "train")
        model = build_model({}, FIT_SEED)
        samples = model_samples(train_path, model)
        opt = AdamW(model.named_parameters(), lr=FIT_LR)
        fit_losses = [train_step(model, opt, samples[i % len(samples)])
                      for i in range(FIT_STEPS)]
        return SimpleNamespace(model=model, fit_losses=fit_losses, cursor=0,
                               prompts=heldout_prompts(workdir, seed, model.image_size))

    def fingerprint(self, state):
        return tuple(state.fit_losses)

    def verify(self, state):
        """Each answer must end in EOS and equal the reference decode."""
        for p in state.prompts:
            ids, ended = reference_decode(state.model, p.conv, p.image, DECODE_BUDGET)
            if not ended:
                raise CheckFailed(f"prompt '{p.conv.id}': no EOS within {DECODE_BUDGET} tokens")
            p.expected = TOKENIZER.decode(ids)
            p.steps = len(ids) + 1      # the EOS step counts
            out = multimodal.generate(state.model, p.conv, p.image, DECODE_BUDGET)
            if out != p.expected:
                raise CheckFailed(f"prompt '{p.conv.id}': generate gave {out!r}, "
                                  f"reference decode {p.expected!r}")

    def cycle(self, state):
        return len(state.prompts)

    def model(self, state):
        return state.model

    def op(self, state, tracer=None):
        p = state.prompts[state.cursor % len(state.prompts)]
        state.cursor += 1
        out = multimodal.generate(state.model, p.conv, p.image, DECODE_BUDGET)
        if out != p.expected:
            raise CheckFailed(f"prompt '{p.conv.id}': generate gave {out!r}, "
                              f"earlier {p.expected!r}")
        return p.steps

    def check(self, state):
        hits = sum(p.expected == p.gold for p in state.prompts)
        return {"exact_match": (hits / len(state.prompts), "fraction")}


WORKLOADS = {w.name: w for w in (
    Ingest(),
    Train("train_text", {}),
    Train("train_align", ALIGN_CONFIG),
    Generate(),
)}
