"""Tests of the benchmark's own helpers. Run: python3 -m pytest -q bench"""

import json
import os

import numpy as np
import pytest

from vlmkit.data import Conversation, Turn, tokenize_and_label
from vlmkit.data.tokenizer import ByteTokenizer
from vlmkit.model import build_model, generate, multimodal
from vlmkit.numerics import AdamW, Tensor, ops, scale, tsum

import harness
import workloads
from harness import Phase, end_to_end_metrics, layer_metrics, percentile
from tracing import Tracer, self_times, tape_census

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile rule -------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]   # 1..100, unsorted
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


def test_percentile_needs_ten_samples_beyond():
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    percentile(list(range(20)), 50)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        ["step", 0.0, 10.0, -1],
        ["fwd", 1.0, 5.0, 0],
        ["op", 2.0, 3.0, 1],
        ["op", 3.5, 4.0, 1],
        ["bwd", 6.0, 9.0, 0],
        ["op", 6.5, 7.0, 4],
    ]
    got = self_times(spans)
    assert got["step"] == [10.0, 3.0, 1]      # 10 - (4 + 3)
    assert got["fwd"] == [4.0, 2.5, 1]        # 4 - (1 + 0.5)
    assert got["bwd"] == [3.0, 2.5, 1]
    assert got["op"] == [2.0, 2.0, 3]         # leaves: self == inclusive
    total_self = sum(v[1] for v in got.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root


def test_tracer_nests_spans_and_folds():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    tracer.fold()
    assert tracer.spans == []
    assert tracer.totals["inner"][2] == 2
    assert tracer.totals["outer"][1] <= tracer.totals["outer"][0]


def test_tape_census_counts_outputs_once():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    y = scale(x, 2.0)
    loss = tsum(y)
    # scale holds its float32 output; sum holds a float64 scalar and reuses
    # y, already counted. The leaf x is not the tape's memory.
    assert tape_census(loss) == {"scale": [1, 24], "sum": [1, 8]}


# -- tracing leaves the program unchanged ----------------------------------------


def _one_step(trace):
    model = build_model({}, seed=3)
    conv = Conversation("c", "images/x.ppm", [Turn("human", "<image>\nWhat color?"),
                                               Turn("assistant", "red")])
    s = tokenize_and_label(conv, model.template(), ByteTokenizer())
    s.image = np.random.default_rng(0).uniform(-1, 1, (3, 16, 16)).astype(np.float32)
    opt = AdamW(model.named_parameters(), lr=1e-3)
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.instrument(model)
    try:
        loss = workloads.train_step(model, opt, s, tracer if trace else None)
    finally:
        tracer.uninstall()
    return loss, model, tracer


def test_traced_step_is_bit_identical_and_uninstall_restores():
    originals = {name: getattr(ops, name) for name in ("matmul", "add", "record")}
    loss_plain, model_plain, _ = _one_step(trace=False)
    loss_traced, model_traced, tracer = _one_step(trace=True)
    assert loss_traced == loss_plain
    for (_, a), (_, b) in zip(model_plain.named_parameters(), model_traced.named_parameters()):
        assert np.array_equal(a.data, b.data)
    assert {name: getattr(ops, name) for name in originals} == originals
    assert multimodal.compose_multimodal.__name__ == "compose_multimodal"
    assert "forward_embeds" not in vars(model_traced.llm)
    tracer.fold()
    assert tracer.totals["numerics.ops.matmul"][2] == 36
    assert tracer.totals["numerics.ops.matmul.bw"][2] == 36
    assert tracer.counts["numerics.tape.matmul.nodes"] == 36


# -- reference decode --------------------------------------------------------------


def test_reference_decode_matches_generate_on_generate_config():
    model = build_model({}, seed=5)   # the generate workload's model config
    tok = ByteTokenizer()
    rng = np.random.default_rng(1)
    for i, question in enumerate(("What color is the shape?", "Is there a circle in the image?")):
        conv = Conversation(f"q{i}", "images/x.ppm", [Turn("human", "<image>\n" + question)])
        image = rng.uniform(-1, 1, (3, 16, 16)).astype(np.float32)
        ids, ended = workloads.reference_decode(model, conv, image, budget=5)
        assert len(ids) == 5 or ended
        assert generate(model, conv, image, max_new_tokens=5) == tok.decode(ids)


# -- BENCHMARK.json matches what the command prints -----------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    phase = Phase(durations=[0.01] * 100, tokens=[10] * 100, attempted=100)
    e2e = end_to_end_metrics(workloads.WORKLOADS["generate"], phase, [1.0])
    layers = layer_metrics(Tracer(), phase, phase)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(k, unit) for k, (_, unit) in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert harness.MIN_OPS >= 100
