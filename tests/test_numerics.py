"""Tensor engine tests: analytic cases, independent oracles, FD checks."""

import gc
import math
import weakref

import numpy as np
import pytest

from vlmkit.errors import DimensionError, ValidationError
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
    transpose,
)


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


def test_add_rejects_non_broadcastable():
    with pytest.raises(DimensionError):
        add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


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


# -- shape ops --------------------------------------------------------------------


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


def test_embedding_gather_and_scatter_grad():
    table = Tensor(rand((7, 3), seed=46), requires_grad=True)
    ids = np.array([2, 2, 5, 0])
    out = embedding(table, ids)
    np.testing.assert_array_equal(out.data, table.data[ids])
    out.sum().backward()
    expected = np.zeros((7, 3), dtype=np.float32)
    np.add.at(expected, ids, 1.0)
    np.testing.assert_array_equal(table.grad, expected)


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
