"""Tensor engine tests: analytic cases, independent oracles, FD checks."""

import gc
import math
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from vlmkit.data import ByteTokenizer, Conversation, Turn, tokenize_and_label
from vlmkit.errors import DimensionError, ValidationError
from vlmkit.model import build_model, sequence_loss
from vlmkit.numerics import (
    AdamW,
    Tensor,
    add,
    causal_mask,
    concat,
    embedding,
    exp,
    gelu,
    grad_check,
    layer_norm,
    lr_schedule,
    masked_cross_entropy,
    matmul,
    mul,
    narrow,
    no_grad,
    reshape,
    rms_norm,
    scale,
    softmax,
    tanh,
    tmean,
    transpose,
    tsum,
)
from vlmkit.numerics import optim


def rand(shape, seed, lo=-2.0, hi=2.0):
    r = np.random.default_rng(seed)
    return r.uniform(lo, hi, size=shape).astype(np.float32)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2, dtype=np.float32)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as ei:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(ei.value)


def test_matmul_gradient_matches_finite_differences():
    b = Tensor(rand((4, 2), seed=1))
    a = Tensor(rand((3, 4), seed=0), requires_grad=True)
    err = grad_check(lambda t: matmul(t, b).sum(), a)
    assert err < 1e-3


def test_matmul_grad_wrt_second_operand():
    a = Tensor(rand((3, 4), seed=2))
    b = Tensor(rand((4, 2), seed=3), requires_grad=True)
    err = grad_check(lambda t: matmul(a, t).sum(), b)
    assert err < 1e-3


def test_batched_matmul_grad():
    a = Tensor(rand((2, 3, 4), seed=4), requires_grad=True)
    b = Tensor(rand((2, 4, 3), seed=5))
    err = grad_check(lambda t: matmul(t, b).sum(), a)
    assert err < 1e-3


# -- elementwise ----------------------------------------------------------------


def test_gelu_zero():
    assert gelu(Tensor([0.0])).data[0] == 0.0


def test_gelu_one_matches_erf_oracle():
    expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(gelu(Tensor([1.0])).data[0] - expected) < 1e-5
    assert abs(expected - 0.841345) < 1e-5


def test_add_simple():
    np.testing.assert_array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])


def test_add_broadcasts_bias_over_leading_dims():
    x = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
    b = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
    out = add(x, b)
    assert out.shape == (3, 4)
    out.sum().backward()
    np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])


@pytest.mark.parametrize("shape_a, shape_b", [((3, 1), (1, 4)), ((2, 1, 4), (3, 1))])
def test_add_broadcasting_both_inputs_grads(shape_a, shape_b):
    a = Tensor(rand(shape_a, seed=10), requires_grad=True)
    b = Tensor(rand(shape_b, seed=11), requires_grad=True)
    w = Tensor(rand(np.broadcast_shapes(shape_a, shape_b), seed=12))
    assert grad_check(lambda t: tsum(mul(add(t, b), w)), a) < 1e-3
    assert grad_check(lambda t: tsum(mul(add(a, t), w)), b) < 1e-3


@pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
def test_add_rejects_non_broadcastable(op):
    with pytest.raises(DimensionError) as ei:
        op(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
    assert "(2, 3)" in str(ei.value) and "(4,)" in str(ei.value)


@pytest.mark.parametrize("op", [gelu, tanh, exp])
def test_elementwise_grads(op):
    x = Tensor(rand((8,), seed=7), requires_grad=True)
    assert grad_check(lambda t: op(t).sum(), x) < 1e-3


def test_mul_and_scale_grads():
    y = Tensor(rand((5,), seed=9))
    x = Tensor(rand((5,), seed=8), requires_grad=True)
    assert grad_check(lambda t: mul(t, y).sum(), x) < 1e-3
    assert grad_check(lambda t: scale(t, 2.5).sum(), x) < 1e-3


# -- softmax ---------------------------------------------------------------------


def test_softmax_uniform_on_constant_input():
    for c in (-3.0, 0.0, 7.5):
        out = softmax(Tensor([c, c, c, c]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)


def test_softmax_analytic():
    out = softmax(Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)


def test_softmax_rows_sum_to_one_and_positive():
    x = Tensor(rand((20, 7), seed=11, lo=-5, hi=5))
    out = softmax(x).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(20), atol=1e-6)
    assert (out > 0).all()


def test_softmax_gradient_matches_finite_differences():
    x = Tensor(rand((2, 5), seed=12), requires_grad=True)
    w = Tensor(rand((2, 5), seed=13))
    err = grad_check(lambda t: mul(softmax(t), w).sum(), x)
    assert err < 1e-3


@pytest.mark.parametrize("shape", [(), (3, 0)])
def test_softmax_needs_a_non_empty_last_axis(shape):
    with pytest.raises(DimensionError) as ei:
        softmax(Tensor(np.zeros(shape, dtype=np.float32)))
    assert "non-empty last axis" in str(ei.value)


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_input_is_zero():
    x = Tensor(np.full((3, 5), 2.5, dtype=np.float32))
    out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.data, np.zeros((3, 5)), atol=1e-6)


def test_layer_norm_two_point_analytic():
    out = layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_grads():
    g = Tensor(rand((6,), seed=15, lo=0.5, hi=1.5), requires_grad=True)
    b = Tensor(rand((6,), seed=16), requires_grad=True)
    x = Tensor(rand((4, 6), seed=14), requires_grad=True)
    w = Tensor(rand((4, 6), seed=17))

    def f_of(t):
        return mul(layer_norm(x if t is not x else t, g, b), w).sum()

    assert grad_check(lambda t: mul(layer_norm(t, g, b), w).sum(), x) < 1e-3
    assert grad_check(lambda t: mul(layer_norm(x, t, b), w).sum(), g) < 1e-3
    assert grad_check(lambda t: mul(layer_norm(x, g, t), w).sum(), b) < 1e-3


# The norms compute their statistics as np.add.reduce then a divide. These
# oracles keep the ndarray.mean / ndarray.var formulas that form replaced;
# the two must agree bit for bit, forward and backward.
NORM_SHAPES = [(1, 64), (37, 64), (2, 5, 7)]


def _layer_norm_oracle(x, gain, bias, g, eps=1e-5):
    xd = x.astype(np.float64)
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = (xhat * gain + bias).astype(np.float32)
    gd = g.astype(np.float64)
    dxhat = gd * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = (inv * (dxhat - m1 - xhat * m2)).astype(np.float32)
    lead = tuple(range(g.ndim - 1))
    ggain = (gd * xhat).sum(axis=lead).astype(np.float32)
    return out, gx, ggain, gd.sum(axis=lead).astype(np.float32)


def _rms_norm_oracle(x, gain, g, eps=1e-5):
    xd = x.astype(np.float64)
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + eps)
    xhat = xd * inv
    out = (xhat * gain).astype(np.float32)
    gd = g.astype(np.float64)
    dxhat = gd * gain
    m = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = (inv * (dxhat - xhat * m)).astype(np.float32)
    return out, gx, (gd * xhat).sum(axis=tuple(range(g.ndim - 1))).astype(np.float32)


def _out_and_grads(op, inputs, g):
    """op's output and the gradient of sum(op(...) * g) for every input."""
    out = op(*inputs)
    mul(out, Tensor(g)).sum().backward()
    return [out.data] + [t.grad for t in inputs]


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_layer_norm_matches_mean_var_oracle_bitwise(shape):
    d = shape[-1]
    x = Tensor(rand(shape, seed=60), requires_grad=True)
    gain = Tensor(rand((d,), seed=61, lo=0.5, hi=1.5), requires_grad=True)
    bias = Tensor(rand((d,), seed=62), requires_grad=True)
    g = rand(shape, seed=63)
    want = _layer_norm_oracle(x.data, gain.data, bias.data, g)
    _assert_bitwise_equal(_out_and_grads(layer_norm, [x, gain, bias], g), want)


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_rms_norm_matches_mean_oracle_bitwise(shape):
    d = shape[-1]
    x = Tensor(rand(shape, seed=64), requires_grad=True)
    gain = Tensor(rand((d,), seed=65, lo=0.5, hi=1.5), requires_grad=True)
    g = rand(shape, seed=66)
    want = _rms_norm_oracle(x.data, gain.data, g)
    _assert_bitwise_equal(_out_and_grads(rms_norm, [x, gain], g), want)


# -- rms norm -------------------------------------------------------------------


def test_rms_norm_unit_gain_gives_unit_rms_rows():
    x = Tensor(rand((4, 7), seed=18))
    out = rms_norm(x, Tensor(np.ones(7)), eps=0.0)
    np.testing.assert_allclose(np.sqrt((out.data.astype(np.float64) ** 2).mean(axis=-1)),
                               np.ones(4), atol=1e-6)


def test_rms_norm_sees_uniform_shift():
    # layer_norm removes a uniform shift exactly; rms_norm must not.
    x = rand((3, 6), seed=19)
    ones = Tensor(np.ones(6))
    base = rms_norm(Tensor(x), ones).data
    shifted = rms_norm(Tensor(x + np.float32(0.5)), ones).data
    assert np.abs(shifted - base).max(axis=-1).min() > 1e-2


def test_rms_norm_gain_shape_error():
    with pytest.raises(DimensionError) as ei:
        rms_norm(Tensor(np.zeros((2, 5))), Tensor(np.ones(4)))
    assert "(5,)" in str(ei.value)


def test_rms_norm_grads():
    g = Tensor(rand((6,), seed=21, lo=0.5, hi=1.5), requires_grad=True)
    x = Tensor(rand((4, 6), seed=22), requires_grad=True)
    w = Tensor(rand((4, 6), seed=23))
    assert grad_check(lambda t: mul(rms_norm(t, g), w).sum(), x) < 1e-3
    assert grad_check(lambda t: mul(rms_norm(x, t), w).sum(), g) < 1e-3


# -- masked cross entropy --------------------------------------------------------


def test_cross_entropy_all_ignored_is_zero():
    logits = Tensor(rand((4, 5), seed=20), requires_grad=True)
    loss = masked_cross_entropy(logits, [-100] * 4)
    assert loss.item() == 0.0
    loss.backward()
    np.testing.assert_array_equal(logits.grad, np.zeros((4, 5)))


def test_cross_entropy_uniform_two_way():
    loss = masked_cross_entropy(Tensor([[0.0, 0.0]]), [1])
    assert abs(loss.item() - math.log(2.0)) < 1e-6


def test_cross_entropy_matches_independent_logsumexp_oracle():
    logits = rand((6, 11), seed=21, lo=-4, hi=4)
    labels = np.array([3, -100, 0, 10, 5, -100])

    # Independent scalar oracle: per-row log-sum-exp in float64.
    total, n = 0.0, 0
    for row, lab in zip(logits.astype(np.float64), labels):
        if lab == -100:
            continue
        total += math.log(np.exp(row - row.max()).sum()) + row.max() - row[lab]
        n += 1
    expected = total / n

    got = masked_cross_entropy(Tensor(logits), labels).item()
    assert abs(got - expected) < 1e-6


def test_cross_entropy_shift_invariance():
    logits = rand((5, 7), seed=22)
    labels = [0, 2, -100, 6, 3]
    base = masked_cross_entropy(Tensor(logits), labels).item()
    shifted = masked_cross_entropy(Tensor(logits + 3.25), labels).item()
    assert abs(base - shifted) < 1e-5


def test_cross_entropy_out_of_range_label_reports_position():
    with pytest.raises(ValidationError) as ei:
        masked_cross_entropy(Tensor(np.zeros((3, 4))), [0, 9, 1])
    assert "position 1" in str(ei.value)


def test_cross_entropy_gradient():
    labels = [1, -100, 4, 2]
    x = Tensor(rand((4, 6), seed=23), requires_grad=True)
    err = grad_check(lambda t: masked_cross_entropy(t, labels), x)
    assert err < 1e-3


# -- backward engine -------------------------------------------------------------


def test_backward_square_matches_analytic():
    x = Tensor([3.0], requires_grad=True)
    mul(x, x).sum().backward()
    h = 1e-4
    fd = ((3 + h) ** 2 - (3 - h) ** 2) / (2 * h)
    assert abs(x.grad[0] - 6.0) / 6.0 < 1e-6
    assert abs(x.grad[0] - fd) / 6.0 < 1e-6


def test_backward_frozen_leaf_gets_no_grad():
    x = Tensor([2.0], requires_grad=True)
    frozen = Tensor([5.0], requires_grad=False)
    mul(x, frozen).sum().backward()
    assert frozen.grad is None
    np.testing.assert_array_equal(x.grad, [5.0])


def test_backward_twice_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = mul(x, x).sum()
    y.backward()
    once = x.grad.copy()
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * once)


def test_backward_rejects_non_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValidationError):
        mul(x, x).backward()


def test_frozen_leaf_leaves_other_grads_unchanged():
    a_data, b_data = rand((3, 3), seed=30), rand((3, 3), seed=31)
    a1 = Tensor(a_data, requires_grad=True)
    b1 = Tensor(b_data, requires_grad=True)
    matmul(a1, b1).sum().backward()
    a2 = Tensor(a_data, requires_grad=True)
    b2 = Tensor(b_data, requires_grad=False)
    matmul(a2, b2).sum().backward()
    assert b2.grad is None
    np.testing.assert_array_equal(a1.grad, a2.grad)


def test_shared_leaf_accumulates_from_both_uses():
    x = Tensor([1.0, 2.0], requires_grad=True)
    add(mul(x, x), mul(x, x)).sum().backward()
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def _gelu_softmax_step():
    """One small forward and backward; returns (w grad, weakref to an activation)."""
    w = Tensor(rand((4, 4), seed=40), requires_grad=True)
    hidden = gelu(matmul(Tensor(rand((3, 4), seed=41)), w))
    probe = weakref.ref(hidden)
    loss = softmax(hidden).sum()
    del hidden
    loss.backward()
    assert probe() is not None      # the loss's tape still holds it
    del loss
    return w.grad, probe


def test_dropping_the_loss_frees_the_graph_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        grad, probe = _gelu_softmax_step()
        assert probe() is None
    finally:
        if was_enabled:
            gc.enable()
    gc.collect()
    grad_collected, _ = _gelu_softmax_step()
    np.testing.assert_array_equal(grad, grad_collected)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad and y.is_leaf()


def test_one_no_grad_entered_twice_restores_recording():
    x = Tensor([1.0], requires_grad=True)
    ng = no_grad()
    with ng:
        with ng:
            assert not mul(x, x).requires_grad
        assert not mul(x, x).requires_grad
    assert mul(x, x).requires_grad
    with pytest.raises(KeyError):
        with ng:
            with ng:
                raise KeyError("inside")
    assert mul(x, x).requires_grad


FAULTS_PER_STEP = """
import resource
import numpy as np
from vlmkit.data import BUILTIN_TEMPLATES, ByteTokenizer, Conversation, Turn, tokenize_and_label
from vlmkit.model import build_model, sequence_loss
from vlmkit.numerics import AdamW

model = build_model({}, seed=3)
conv = Conversation(id="s", image_path="x.ppm", turns=[
    Turn("human", "<image>\\nWhat color is the square?"), Turn("assistant", "red")])
sample = tokenize_and_label(conv, BUILTIN_TEMPLATES["llava_v1"], ByteTokenizer())
sample.image = np.random.default_rng(0).uniform(
    -1, 1, size=(3, model.image_size, model.image_size)).astype(np.float32)
opt = AdamW(model.named_parameters(), lr=1e-3)

def step():
    opt.zero_grad()
    loss, _ = sequence_loss(model, sample)
    loss.backward()
    opt.step()

for _ in range(5):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator thresholds are glibc's")
def test_training_steps_do_not_fault_freed_memory_back_in():
    # A fresh interpreter: earlier tests may have raised glibc's adaptive
    # thresholds in this one, which would hide the faults. Without the
    # thresholds set on import, a default-model step faults 1,000-2,000
    # pages back in after the previous step's tape was freed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert float(out.stdout) < 50, out.stdout


def _backward_oracle(root):
    """The engine's walk before gradient views: every leaf gradient starts as
    zeros and is added to, every intermediate's first gradient is copied and
    later ones are added in place."""
    nodes, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if node.seq in nodes:
            continue
        nodes[node.seq] = node
        stack.extend(t._node for t in node.inputs
                     if t._node is not None and t._node.seq not in nodes)
    flowing = {id(root): np.ones_like(root.data)}
    for node in sorted(nodes.values(), key=lambda n: n.seq, reverse=True):
        out_grad = flowing.pop(id(node.out), None)
        if out_grad is None:
            continue
        for t, g in zip(node.inputs, node.backward_fn(out_grad)):
            if g is None or not t.requires_grad:
                continue
            g = g.astype(np.float32, copy=False)
            if t._node is None:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
            elif id(t) in flowing:
                flowing[id(t)] += g
            else:
                flowing[id(t)] = g.copy()


# The benchmark's train_align model: two towers at 32 px feeding a qformer.
ALIGN_CONFIG = {
    "vision": {"name": "clip_tiny", "config": {"image_size": 32, "patch_size": 4}},
    "mof": {"name": "dino_tiny", "config": {"image_size": 32, "patch_size": 4}},
    "connector": {"name": "qformer", "config": {"queries": 4}},
    "template": "plain",
}


def _vqa_sample(model, seed):
    conv = Conversation("s", "x.ppm", [Turn("human", "<image>\nWhat color is the square?"),
                                       Turn("assistant", "red")])
    sm = tokenize_and_label(conv, model.template(), ByteTokenizer())
    sm.image = rand((3, model.image_size, model.image_size), seed=seed, lo=-1.0, hi=1.0)
    return sm


@pytest.mark.parametrize("cfg", [{}, ALIGN_CONFIG], ids=["default", "align"])
@pytest.mark.parametrize("views", [False, True], ids=["owned", "optimizer_views"])
def test_backward_matches_the_zeros_then_add_walk_bitwise(cfg, views):
    model = build_model(cfg, seed=5)
    params = model.named_parameters()
    if views:
        opt = AdamW(params)
        loss, _ = sequence_loss(model, _vqa_sample(model, seed=80))
        loss.backward()
        opt.step()      # a second step starts from updated weights and gradient views
        opt.zero_grad()
    loss, _ = sequence_loss(model, _vqa_sample(model, seed=81))
    loss.backward()
    got = [p.grad.copy() for _, p in params]
    for _, p in params:
        p.grad = None
    _backward_oracle(loss)
    for (name, p), g in zip(params, got):
        assert g.dtype == p.grad.dtype and g.shape == p.grad.shape, name
        assert g.tobytes() == p.grad.tobytes(), name


def test_backward_never_writes_a_shared_gradient():
    # add hands the same gradient array to both inputs, so accumulating into
    # a's first gradient in place would also change b's.
    x = Tensor([1.0, 2.0], requires_grad=True)
    a, b = scale(x, 2.0), scale(x, 3.0)
    add(add(a, b), a).sum().backward()
    np.testing.assert_array_equal(x.grad, [7.0, 7.0])


def test_backward_first_leaf_gradient_keeps_positive_zero():
    # zeros + (-0.0) is +0.0; the first contribution must round the same way.
    x = Tensor([1.0, -1.0], requires_grad=True)
    scale(x, -0.0).sum().backward()
    assert np.signbit(x.grad).tolist() == [False, False]


# -- shape ops --------------------------------------------------------------------


@pytest.mark.parametrize("t,start", [(1, 0), (1, 100), (37, 0), (41, 79), (128, 0)])
def test_causal_mask_matches_triu_oracle_bytewise(t, start):
    want = np.triu(np.full((t, start + t), -1e9, dtype=np.float32), k=start + 1)
    got = causal_mask(t, start=start).data
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_causal_mask_with_start_is_the_tail_of_the_full_mask():
    full = causal_mask(7).data
    for start in range(7):
        np.testing.assert_array_equal(causal_mask(7 - start, start=start).data, full[start:])


def test_reshape_transpose_concat_narrow_grads():
    x = Tensor(rand((3, 4), seed=40), requires_grad=True)
    w = Tensor(rand((12,), seed=41))
    assert grad_check(lambda t: mul(reshape(t, (12,)), w).sum(), x) < 1e-3
    w2 = Tensor(rand((4, 3), seed=42))
    assert grad_check(lambda t: mul(transpose(t), w2).sum(), x) < 1e-3
    other = Tensor(rand((2, 4), seed=43))
    w3 = Tensor(rand((5, 4), seed=44))
    assert grad_check(lambda t: mul(concat([t, other], axis=0), w3).sum(), x) < 1e-3
    w4 = Tensor(rand((2, 4), seed=45))
    assert grad_check(lambda t: mul(narrow(t, 0, 1, 2), w4).sum(), x) < 1e-3


@pytest.mark.parametrize("axes", [(1, 0, 2), (2, 0, 1), None, (-1, 0, 1)])
def test_transpose_backward_applies_the_inverse_permutation(axes):
    x = Tensor(rand((2, 3, 4), seed=47), requires_grad=True)
    want = x.data.transpose(axes)
    g = rand(want.shape, seed=48)
    inverse = None if axes is None else np.argsort(np.asarray(axes) % 3)
    _assert_bitwise_equal(_out_and_grads(lambda t: transpose(t, axes), [x], g),
                          [want, g.transpose(inverse)])


@pytest.mark.parametrize("axis, shapes", [(0, [(2, 3), (1, 3), (4, 3)]),
                                          (1, [(2, 1), (2, 3), (2, 2)])])
def test_concat_backward_splits_the_gradient_by_part(axis, shapes):
    parts = [Tensor(rand(shape, seed=49 + i), requires_grad=True) for i, shape in enumerate(shapes)]
    want = np.concatenate([p.data for p in parts], axis=axis)
    g = rand(want.shape, seed=52)
    splits = np.cumsum([shape[axis] for shape in shapes])[:-1]
    _assert_bitwise_equal(_out_and_grads(lambda *ts: concat(ts, axis=axis), parts, g),
                          [want] + np.split(g, splits, axis=axis))


def test_embedding_gather_and_scatter_grad():
    table = Tensor(rand((7, 3), seed=46), requires_grad=True)
    ids = np.array([2, 2, 5, 0])
    out = embedding(table, ids)
    np.testing.assert_array_equal(out.data, table.data[ids])
    out.sum().backward()
    expected = np.zeros((7, 3), dtype=np.float32)
    np.add.at(expected, ids, 1.0)
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_grad_with_repeated_ids():
    table = Tensor(rand((7, 3), seed=47), requires_grad=True)
    ids = np.array([2, 2, 5, 0, 2])
    w = Tensor(rand((5, 3), seed=48))
    assert grad_check(lambda t: tsum(mul(embedding(t, ids), w)), table) < 1e-3


@pytest.mark.parametrize("reduce", [tsum, tmean])
def test_reduction_grads(reduce):
    # Squaring the reduction sends a gradient other than 1 into its backward.
    x = Tensor(rand((3, 4), seed=49), requires_grad=True)
    assert grad_check(lambda t: mul(reduce(t), reduce(t)), x) < 1e-3


# -- AdamW -----------------------------------------------------------------------


def test_adamw_zero_grad_leaves_param_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = AdamW([("p", p)], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_scalar_oracle_first_step():
    # Independent scalar trace: m-hat = v-hat = 1 after step 1, so the
    # update is lr * 1 / (1 + eps).
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    opt = AdamW([("p", p)], lr=0.1)
    opt.step()
    expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-6
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adamw_decoupled_decay():
    p = Tensor([4.0], requires_grad=True)
    p.grad = np.zeros(1, dtype=np.float32)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [4.0 * (1.0 - 0.01)], rtol=1e-6)


def test_adamw_missing_grad_is_usage_error():
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW([("w", p)], lr=0.1)
    with pytest.raises(ValidationError) as ei:
        opt.step()
    assert "w" in str(ei.value)


def test_adamw_bitwise_deterministic():
    def run():
        p = Tensor(rand((4, 4), seed=50), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.01, weight_decay=0.05)
        for k in range(5):
            p.grad = rand((4, 4), seed=60 + k)
            opt.step()
        return p.data.tobytes()

    assert run() == run()


def test_adamw_step_count_increments():
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW([("p", p)])
    for expected in (1, 2, 3):
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert opt.step_count == expected


def _adamw_oracle(data, grads, m, v, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor AdamW loop the flat update replaced, one step."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, mi, vi in zip(data, grads, m, v):
        mi *= np.float32(beta1)
        mi += np.float32(1.0 - beta1) * g
        vi *= np.float32(beta2)
        vi += np.float32(1.0 - beta2) * (g * g)
        mhat = mi / np.float32(bc1)
        vhat = vi / np.float32(bc2)
        update = mhat / (np.sqrt(vhat) + np.float32(eps))
        if wd:
            update = update + np.float32(wd) * p
        p -= np.float32(lr) * update


@pytest.mark.parametrize("wd", [0.0, 0.05])
def test_adamw_matches_the_per_tensor_loop_bitwise(wd):
    # The first tensor ends 100 values short of a chunk, so the second
    # straddles the chunk boundary.
    shapes = [(optim._CHUNK - 100,), (37, 11), (5,), (3, 4, 2), (1,)]
    params = [(f"p{i}", Tensor(rand(s, seed=90 + i), requires_grad=True))
              for i, s in enumerate(shapes)]
    ref = [p.data.copy() for _, p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    opt = AdamW(params, lr=0.01, weight_decay=wd)
    for (_, p), r in zip(params, ref):
        assert p.data.shape == r.shape and p.data.tobytes() == r.tobytes()
    for step, lr in enumerate([None, 0.003, None, 0.02], start=1):
        grads = []
        for i, (_, p) in enumerate(params):
            g = rand(shapes[i], seed=100 * step + i, lo=-1.0, hi=1.0)
            if i == 1:          # user-assigned and not contiguous
                g = np.ascontiguousarray(g.T).T
                assert not g.flags.c_contiguous
                p.grad = g
            elif i == 3:        # user-assigned
                p.grad = g
            else:               # through backward, into the gradient view
                p.grad = None
                mul(p, Tensor(g)).sum().backward()
            grads.append(g)
        if step == 3:           # a replaced p.data is honoured
            params[2][1].data = params[2][1].data + np.float32(1.0)
            ref[2] += np.float32(1.0)
        opt.step(lr=lr)
        _adamw_oracle(ref, grads, m, v, step, 0.01 if lr is None else lr, wd)
        for (name, p), r, g in zip(params, ref, grads):
            assert p.data.tobytes() == r.tobytes(), (step, name)
            np.testing.assert_array_equal(p.grad, g)


def test_adamw_rejects_a_parameter_listed_twice():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValidationError, match="'b' is listed twice"):
        AdamW([("a", p), ("b", p)])


@pytest.mark.parametrize("field", ["grad", "data"])
def test_adamw_shape_mismatch_names_the_parameter(field):
    ok = Tensor([1.0, 2.0], requires_grad=True)
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = AdamW([("ok", ok), ("w", p)], lr=0.1)
    ok.grad = np.ones(2, dtype=np.float32)
    p.grad = np.ones(2, dtype=np.float32)
    setattr(p, field, np.ones((1, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match=f"'w': {field} shape"):
        opt.step()


@pytest.mark.parametrize("kwargs, name", [
    ({"lr": -1.0}, "lr"),
    ({"lr": float("nan")}, "lr"),
    ({"lr": float("inf")}, "lr"),
    ({"beta1": 1.5}, "beta1"),
    ({"beta1": 1.0}, "beta1"),
    ({"beta2": -0.1}, "beta2"),
    ({"eps": 0.0}, "eps"),
    ({"eps": "tiny"}, "eps"),
    ({"weight_decay": -0.01}, "weight_decay"),
    ({"weight_decay": float("nan")}, "weight_decay"),
    ({"step_lr": -0.5}, "lr"),
    ({"step_lr": float("nan")}, "lr"),
])
def test_adamw_rejects_bad_hyperparameters_by_name(kwargs, name):
    kwargs = dict(kwargs)
    step_lr = kwargs.pop("step_lr", None)   # the per-step override, checked the same way
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        AdamW([("p", p)], **kwargs).step(lr=step_lr)
    assert p.data[0] == 1.0


# -- LR schedule --------------------------------------------------------------


def test_lr_schedule_endpoints():
    total = 200
    warmup = math.ceil(0.03 * total)
    assert lr_schedule(0, total, 1e-3) == 0.0
    assert lr_schedule(warmup, total, 1e-3) == pytest.approx(1e-3)
    assert lr_schedule(total, total, 1e-3) == pytest.approx(0.0, abs=1e-12)


def test_lr_schedule_warmup_is_linear_then_decays():
    total, peak = 100, 0.5
    warmup = math.ceil(0.03 * total)
    for s in range(warmup):
        assert lr_schedule(s, total, peak) == pytest.approx(peak * s / warmup)
    values = [lr_schedule(s, total, peak) for s in range(warmup, total + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_schedule_rejects_out_of_range_step():
    with pytest.raises(ValidationError):
        lr_schedule(11, 10, 1e-3)


# -- grad_check harness ---------------------------------------------------------


def test_grad_check_linear_function_is_tiny():
    x = Tensor(rand((6,), seed=70), requires_grad=True)
    assert grad_check(lambda t: t.sum(), x) < 1e-6


def test_grad_check_gelu_chain():
    x = Tensor(rand((8,), seed=71), requires_grad=True)
    assert grad_check(lambda t: gelu(t).sum(), x) < 1e-3
