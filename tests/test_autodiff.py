"""Tape, primitive gradients, and the AdamW update."""

import math

import numpy as np
import pytest

from rvqtok import autodiff as ad
from rvqtok.autodiff import Tape, Tensor, backward, grad_check
from rvqtok.errors import ConfigError, ShapeError
from rvqtok.optim import Parameter, adamw_step, clip_global_norm


def test_conv1d_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 12)))
    w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
    out = ad.conv1d(x, w, padding=1)
    np.testing.assert_allclose(out.data, x.data, atol=0)


def test_conv1d_matches_nested_sum_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=16)
    k = rng.normal(size=5)
    out = ad.conv1d(Tensor(x[None, None, :]), Tensor(k[None, None, :]), padding=2)
    # brute-force cross-correlation with zero padding
    pad = np.concatenate([np.zeros(2), x, np.zeros(2)])
    expect = np.zeros(16)
    for i in range(16):
        for j in range(5):
            expect[i] += pad[i + j] * k[j]
    np.testing.assert_allclose(out.data[0, 0], expect, atol=1e-12)


def test_groupnorm_constant_input_is_zero():
    x = Tensor(np.full((2, 8, 5), 3.25))
    out = ad.groupnorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), groups=4)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_groupnorm_statistics():
    rng = np.random.default_rng(3)
    x = 10.0 * rng.normal(size=(4, 8, 20))  # variance >> eps so the eps bias is < 1e-6
    out = ad.groupnorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), groups=4)
    grouped = out.data.reshape(4, 4, 2 * 20)
    assert np.abs(grouped.mean(axis=2)).max() < 1e-10
    assert np.abs(grouped.var(axis=2) - 1.0).max() < 1e-6


def test_groupnorm_rejects_bad_group_count():
    x = Tensor(np.zeros((1, 6, 4)))
    with pytest.raises(ConfigError):
        ad.groupnorm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)), groups=4)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_accumulates_across_uses():
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        y = ad.add(x, x)
        loss = ad.tsum(y)
    np.testing.assert_array_equal(y.data, np.full(4, 2.0))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_backward_matmul_matches_finite_differences():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = Tensor(rng.normal(size=(4, 2)))
    err = grad_check(lambda t: ad.tsum(ad.matmul(t, b)), Tensor(a))
    assert err < 1e-5


def test_backward_deterministic_repeat():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3))

    def run():
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            y = ad.matmul(xt, xt)
            z = ad.gelu(y)
            loss = ad.tsum(ad.square(z))
        backward(tape, loss)
        return xt.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_grad_check_constant_function_is_zero():
    c = Tensor(np.array([1.0, 2.0]))
    err = grad_check(lambda t: ad.tsum(ad.square(c)), Tensor(np.zeros(3)))
    assert err == 0.0


def test_grad_check_sum_of_squares():
    rng = np.random.default_rng(2)
    err = grad_check(lambda t: ad.tsum(ad.square(t)), Tensor(rng.normal(size=7)))
    assert err < 1e-7


def test_grad_check_gelu_chain():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(5, 3)))
    err = grad_check(lambda t: ad.tsum(ad.gelu(ad.matmul(t, w))),
                     Tensor(rng.normal(size=(2, 5))))
    assert err < 1e-5


def _case_add(rng, shape):
    c = Tensor(rng.normal(size=shape))
    return lambda t: ad.tsum(ad.square(ad.add(t, c)))


def _case_mul(rng, shape):
    c = Tensor(rng.normal(size=shape))
    return lambda t: ad.tsum(ad.mul(t, c))


def _case_matmul(rng, shape):
    w = Tensor(rng.normal(size=(shape[-1], 3)))
    return lambda t: ad.tsum(ad.square(ad.matmul(t, w)))


def _case_linear(rng, shape):
    w = Tensor(rng.normal(size=(shape[-1], 4)))
    b = Tensor(rng.normal(size=4))
    return lambda t: ad.tsum(ad.gelu(ad.linear(t, w, b)))


def _case_conv1d(rng, shape):
    w = Tensor(rng.normal(size=(3, 2, 3)))
    return lambda t: ad.tsum(ad.square(ad.conv1d(ad.reshape(t, (1, 2, -1)), w, padding=1)))


def _case_groupnorm(rng, shape):
    gain = Tensor(rng.normal(size=4))
    bias = Tensor(rng.normal(size=4))
    return lambda t: ad.tsum(ad.square(ad.groupnorm(
        ad.reshape(t, (1, 4, -1)), gain, bias, groups=2)))


def _case_layernorm(rng, shape):
    gain = Tensor(rng.normal(size=shape[-1]))
    bias = Tensor(rng.normal(size=shape[-1]))
    return lambda t: ad.tsum(ad.square(ad.layernorm(t, gain, bias)))


def _case_gelu(rng, shape):
    return lambda t: ad.tsum(ad.gelu(t))


def _case_avgpool1d(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.avgpool1d(ad.reshape(t, (1, 2, -1)), 2)))


def _case_softmax(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.softmax(t, axis=-1)))


def _case_embedding(rng, shape):
    idx = np.array([0, 2, 0, 1])
    return lambda t: ad.tsum(ad.square(ad.embedding_lookup(t, idx)))


def _case_concat(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.concat([t, ad.mul(t, t)], axis=-1)))


def _case_index(rng, shape):
    c = Tensor(rng.normal(size=shape[1:]))
    return lambda t: ad.tsum(ad.square(ad.mul(ad.index(t, 1), c)))


def _case_reshape(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.reshape(t, (-1,))))


def _case_sum(rng, shape):
    return lambda t: ad.square(ad.tsum(t))


def _case_mean(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.tmean(t, axis=0)))


def _case_div(rng, shape):
    c = Tensor(rng.normal(size=shape) + 3.0)
    return lambda t: ad.tsum(ad.div(t, c))


def _case_sqrt(rng, shape):
    one = Tensor(np.ones(shape))
    return lambda t: ad.tsum(ad.sqrt(ad.add(ad.square(t), one)))


def _case_expm1(rng, shape):
    return lambda t: ad.tsum(ad.expm1(t))


def _case_transpose(rng, shape):
    return lambda t: ad.tsum(ad.square(ad.transpose(t, (1, 0))))


def _case_cross_entropy(rng, shape):
    labels = rng.integers(0, shape[-1], size=shape[:-1])
    return lambda t: ad.tsum(ad.cross_entropy_logits(t, labels))


PRIMITIVE_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "linear": _case_linear,
    "conv1d": _case_conv1d,
    "groupnorm": _case_groupnorm,
    "layernorm": _case_layernorm,
    "gelu": _case_gelu,
    "avgpool1d": _case_avgpool1d,
    "softmax": _case_softmax,
    "embedding": _case_embedding,
    "concat": _case_concat,
    "index": _case_index,
    "reshape": _case_reshape,
    "sum": _case_sum,
    "mean": _case_mean,
    "div": _case_div,
    "sqrt": _case_sqrt,
    "expm1": _case_expm1,
    "transpose": _case_transpose,
    "cross_entropy": _case_cross_entropy,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_many_seeds(name):
    """Every primitive agrees with central differences on >=20 random draws."""
    factory = PRIMITIVE_CASES[name]
    shapes_2d = [(2, 4), (3, 6), (4, 4)]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        if name == "embedding":
            x = rng.normal(size=(3, 4))
        elif name in ("conv1d", "avgpool1d", "groupnorm"):
            x = rng.normal(size=8)
        else:
            x = rng.normal(size=shapes_2d[seed % len(shapes_2d)])
        f = factory(rng, x.shape)
        worst = max(worst, grad_check(f, Tensor(x)))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


def test_irfft_gradient():
    rng = np.random.default_rng(9)
    n = 8
    im = Tensor(rng.normal(size=n // 2 + 1))

    def f(t):
        return ad.tsum(ad.square(ad.irfft_onesided(t, im, n)))

    assert grad_check(f, Tensor(rng.normal(size=n // 2 + 1))) < 1e-6

    re = Tensor(rng.normal(size=n // 2 + 1))

    def g(t):
        return ad.tsum(ad.square(ad.irfft_onesided(re, t, n)))

    assert grad_check(g, Tensor(rng.normal(size=n // 2 + 1))) < 1e-6


def test_straight_through_forward_and_backward():
    rng = np.random.default_rng(13)
    p = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    p_hat = Tensor(rng.normal(size=(2, 3)))
    with Tape() as tape:
        st = ad.straight_through(p, p_hat)
        loss = ad.tsum(st)
    assert np.array_equal(st.data, p_hat.data)
    backward(tape, loss)
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_attention_uniform_when_scores_zero():
    rng = np.random.default_rng(17)
    v = rng.normal(size=(1, 4, 6))
    q = Tensor(np.zeros((1, 4, 6)))
    k = Tensor(np.zeros((1, 4, 6)))
    out = ad.multihead_attention(q, k, Tensor(v), heads=1)
    np.testing.assert_allclose(out.data, np.broadcast_to(v.mean(axis=1, keepdims=True), v.shape),
                               atol=1e-12)


def test_attention_single_position_passthrough():
    rng = np.random.default_rng(19)
    v = rng.normal(size=(1, 1, 4))
    q = Tensor(rng.normal(size=(1, 1, 4)))
    k = Tensor(rng.normal(size=(1, 1, 4)))
    out = ad.multihead_attention(q, k, Tensor(v), heads=2)
    np.testing.assert_allclose(out.data, v, atol=1e-12)


def test_attention_matches_direct_oracle():
    rng = np.random.default_rng(23)
    P, D, H = 3, 8, 2
    q, k, v = (rng.normal(size=(1, P, D)) for _ in range(3))
    out = ad.multihead_attention(Tensor(q), Tensor(k), Tensor(v), heads=H)
    # direct per-head evaluation
    dh = D // H
    expect = np.zeros((P, D))
    for h in range(H):
        qs, ks, vs = (m[0, :, h * dh:(h + 1) * dh] for m in (q, k, v))
        scores = qs @ ks.T / math.sqrt(dh)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expect[:, h * dh:(h + 1) * dh] = weights @ vs
    np.testing.assert_allclose(out.data[0], expect, atol=1e-10)


def test_attention_rejects_bad_head_count():
    z = Tensor(np.zeros((1, 2, 5)))
    with pytest.raises(ConfigError):
        ad.multihead_attention(z, z, z, heads=2)


def test_attention_gradients():
    rng = np.random.default_rng(29)
    k = Tensor(rng.normal(size=(1, 3, 4)))
    v = Tensor(rng.normal(size=(1, 3, 4)))
    w_out = Tensor(rng.normal(size=(4, 4)))

    def f(t):
        return ad.tsum(ad.square(ad.multihead_attention(t, k, v, heads=2, w_out=w_out)))

    assert grad_check(f, Tensor(rng.normal(size=(1, 3, 4)))) < 1e-5


def test_index_forward_and_scatter_backward():
    x = Tensor(np.arange(24.0).reshape(3, 2, 4), requires_grad=True)
    with Tape() as tape:
        row = ad.index(x, 2)
        loss = ad.tsum(ad.mul(row, Tensor(np.full((2, 4), 3.0))))
    np.testing.assert_array_equal(row.data, x.data[2])
    backward(tape, loss)
    expect = np.zeros((3, 2, 4))
    expect[2] = 3.0
    np.testing.assert_array_equal(x.grad, expect)


def test_adamw_zero_grad_no_decay_keeps_parameter():
    p = Parameter(np.array([1.0, -2.0]), "p")
    p.tensor.grad = np.zeros(2)
    adamw_step([p], lr=1e-3, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]))


def test_adamw_single_step_matches_hand_formula():
    p = Parameter(np.array([0.5]), "p")
    p.tensor.grad = np.array([1.0])
    adamw_step([p], lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0, eps=1e-8)
    # bias-corrected: m_hat = 1, v_hat = 1 -> update = lr * 1 / (1 + eps)
    expect = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0] - expect) < 1e-12


def test_adamw_decoupled_decay():
    p = Parameter(np.array([2.0]), "p")
    p.tensor.grad = np.array([0.0])
    adamw_step([p], lr=0.1, weight_decay=0.05)
    assert abs(p.data[0] - 2.0 * (1.0 - 0.1 * 0.05)) < 1e-12


def test_clip_global_norm():
    p1 = Parameter(np.zeros(3), "a")
    p2 = Parameter(np.zeros(4), "b")
    p1.tensor.grad = np.full(3, 2.0)
    p2.tensor.grad = np.full(4, 2.0)
    norm = clip_global_norm([p1, p2], max_norm=1.0)
    assert abs(norm - math.sqrt(4 * 7)) < 1e-12
    total = np.sum(p1.tensor.grad ** 2) + np.sum(p2.tensor.grad ** 2)
    assert abs(math.sqrt(total) - 1.0) < 1e-9
