"""Tape, primitive gradients, and the AdamW update."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok import autodiff as ad
from rvqtok.autodiff import Tape, Tensor, backward, grad_check
from rvqtok.encoder import STOCK_BRANCH_LADDER, BranchConfig
from rvqtok.errors import ConfigError, ShapeError
from rvqtok.optim import ADAM_BETAS, ADAM_EPS, Parameter, adamw_step, clip_global_norm

from tests.helpers import (attention_composite, avgpool1d_mean, conv1d_einsum,
                           gelu_expression)


@pytest.mark.parametrize("data", [np.float32(1.5), np.arange(3, dtype=np.float32),
                                  np.arange(4).reshape(2, 2), [1, 2], True])
def test_tensor_holds_float64(data):
    t = Tensor(data)
    assert t.dtype == np.float64
    np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))


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


def test_conv1d_backward_skips_input_gradient_of_a_constant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 10))
    grads = []
    kernel = rng.normal(size=(4, 3, 5))
    for track in (False, True):
        w = Tensor(kernel.copy(), requires_grad=True)
        with Tape() as tape:
            out = ad.conv1d(Tensor(x, requires_grad=track), w, padding=2)
            loss = ad.tsum(ad.square(out))
        gx, _ = tape.entries[0].backward(2.0 * out.data)
        assert (gx is None) == (not track)
        backward(tape, loss)
        grads.append(w.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def _layout(a):
    """Strides of the axes longer than one: the memory order later
    reductions over ``a`` follow."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def _conv_rules(x, w, padding, track, rng):
    """conv1d's output and, for a random output gradient, its (gx, gw) rule
    results, beside the planned-einsum forms of all three."""
    with Tape() as tape:
        out = ad.conv1d(Tensor(x, requires_grad=track), Tensor(w, requires_grad=True),
                        padding=padding)
    g = rng.normal(size=out.shape)
    gx, gw = tape.entries[0].backward(g)
    return (out.data, gx, gw), conv1d_einsum(x, w, padding, g)


@given(seed=st.integers(0, 2 ** 31 - 1), batch=st.integers(2, 6),
       channels=st.sampled_from([1, 1, 2, 3, 8]), length=st.integers(1, 24),
       out_channels=st.integers(1, 9), k=st.integers(1, 11), pad=st.integers(0, 10),
       track=st.booleans())
@settings(max_examples=200, deadline=None)
def test_conv1d_matches_planned_einsum_bytes(seed, batch, channels, length, out_channels,
                                              k, pad, track):
    # the im2col GEMMs are the matmuls np.einsum(optimize=True) ran, on the
    # same operands in the same layout, so every bit of the output and of
    # both gradients carries over.  From two rows up, that is: for a single
    # row einsum drops the batch axis, and with one channel it multiplies
    # the window view itself through numpy's non-BLAS loop
    padding = min(pad, k - 1)
    length = max(length, k - 2 * padding)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, length))
    w = rng.normal(size=(out_channels, channels, k))
    (out, gx, gw), (want, want_gx, want_gw) = _conv_rules(x, w, padding, track, rng)
    assert out.tobytes() == want.tobytes()
    assert gw.tobytes() == want_gw.tobytes()
    assert gx is None if not track else gx.tobytes() == want_gx.tobytes()


#: Every stage of the stock branches at the row counts the program runs
#: them at: desk (w = 64) pretraining, training and inference batches of 32,
#: 64 and 512 patches, and one paper (w = 200) window of 64.
STOCK_STAGES = [(w, rows, branch, stage)
                for w, counts in ((64, (32, 64, 512)), (200, (64,)))
                for rows in counts
                for branch in range(len(STOCK_BRANCH_LADDER))
                for stage in (0, 1)]


@pytest.mark.parametrize("w, rows, branch, stage", STOCK_STAGES,
                         ids=[f"w{w}-rows{r}-branch{b}-stage{s + 1}"
                              for w, r, b, s in STOCK_STAGES])
def test_conv1d_stock_stages_match_planned_einsum(w, rows, branch, stage):
    (k1, p1), (k2, p2) = STOCK_BRANCH_LADDER[branch]
    cfg = BranchConfig(kernels=(k1, k2), paddings=(p1, p2))
    l1, _ = cfg.stage_lengths(w)
    channels, length = ((1, w), (cfg.filters[0], l1))[stage]
    rng = np.random.default_rng(1000 * w + 10 * branch + stage)
    x = rng.normal(size=(rows, channels, length))
    kernel = rng.normal(size=(cfg.filters[stage], channels, cfg.kernels[stage]))
    # stage 1 reads the patches, which take no gradient
    got, want = _conv_rules(x, kernel, cfg.paddings[stage], stage == 1, rng)
    assert (got[1] is None) == (stage == 0)
    for a, b in zip(got, want):
        if a is not None:
            assert a.tobytes() == b.tobytes()
            assert _layout(a) == _layout(b)


def test_conv1d_tape_holds_no_column_matrix():
    # the backward rebuilds the (C*k, B*n) column matrix from the padded
    # input rather than keeping it on the tape
    B, C, L, O, k, padding = 64, 8, 32, 8, 9, 4
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(B, C, L)), requires_grad=True)
    w = Tensor(rng.normal(size=(O, C, k)), requires_grad=True)
    columns = C * k * B * L * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with Tape() as tape:
            loss = ad.tsum(ad.conv1d(x, w, padding=padding))
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
        backward(tape, loss)
    finally:
        tracemalloc.stop()
    assert peak >= columns  # the forward built one; tracemalloc saw it
    assert held < columns // 2
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


@given(seed=st.integers(0, 2 ** 31 - 1), lead=st.lists(st.integers(1, 9), max_size=3),
       width=st.sampled_from([1, 2, 3, 4]), steps=st.integers(1, 40),
       transposed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_avgpool1d_matches_reshape_mean_bytes(seed, lead, width, steps, transposed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead, steps * width))
    if transposed and x.ndim > 1:  # the same values, laid out non-contiguously
        x = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 0, -2)), 0, -2)
    got = ad.avgpool1d(Tensor(x), width).data
    want = avgpool1d_mean(x, width)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


@given(seed=st.integers(0, 2 ** 31 - 1), shape=st.lists(st.integers(1, 12), max_size=3),
       scale=st.sampled_from([1e-3, 1.0, 4.0, 40.0]))
@settings(max_examples=100, deadline=None)
def test_gelu_in_place_matches_expression_bytes(seed, shape, scale):
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=shape)
    g = rng.normal(size=shape)
    with Tape() as tape:
        out = ad.gelu(Tensor(a, requires_grad=True))
    (ga,) = tape.entries[0].backward(g)
    want, want_ga = gelu_expression(a, g)
    assert out.data.tobytes() == want.tobytes()
    assert ga.tobytes() == want_ga.tobytes()


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


def _first_norm(x, dout, axis):
    """Normalization of ``x`` over ``axis`` by the first formula (the mean,
    ``np.var``, then the centring again): the normalized ``x`` and the
    gradient of ``x`` given the normalized array's gradient ``dout``."""
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.NORM_EPS)
    xhat = (x - mu) * inv
    m1 = dout.mean(axis=axis, keepdims=True)
    m2 = (dout * xhat).mean(axis=axis, keepdims=True)
    return xhat, (dout - m1 - xhat * m2) * inv


@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(["layer", "group"]),
       rows=st.integers(1, 4), groups=st.integers(1, 4), width=st.integers(1, 24),
       scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e3, 1e8]),
       offset=st.sampled_from([0.0, 1.0, -1e4, 1e6]))
@settings(max_examples=150, deadline=None)
def test_norms_match_first_formula_bytes(seed, kind, rows, groups, width, scale, offset):
    # the norms compute the variance from their centred array; np.var runs
    # the same operations, so outputs and gradients keep every bit
    rng = np.random.default_rng(seed)
    channels = width if kind == "layer" else 2 * groups
    shape = (rows, 3, width) if kind == "layer" else (rows, channels, width)
    x = offset + scale * rng.normal(size=shape)
    gain, bias = rng.normal(size=channels), rng.normal(size=channels)
    g = rng.normal(size=shape)
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
    with Tape() as tape:
        if kind == "layer":
            out = ad.layernorm(xt, gt, bt)
        else:
            out = ad.groupnorm(xt, gt, bt, groups=groups)
        loss = ad.tsum(ad.mul(out, Tensor(g)))
    backward(tape, loss)
    if kind == "layer":
        xhat, gx = _first_norm(x, g * gain, axis=-1)
        want = (xhat * gain + bias, gx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)))
    else:
        grouped = (rows, groups, -1)
        xhat, gx = _first_norm(x.reshape(grouped), (g * gain[:, None]).reshape(grouped),
                               axis=2)
        xhat = xhat.reshape(shape)
        want = (xhat * gain[:, None] + bias[:, None], gx.reshape(shape),
                (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2)))
    for got, expect in zip((out.data, xt.grad, gt.grad, bt.grad), want):
        assert got.tobytes() == expect.tobytes()


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
    err = grad_check(lambda t: ad.tsum(ad.linear(t, b)), Tensor(a))
    assert err < 1e-5


def test_backward_deterministic_repeat():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3))

    def run():
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            y = ad.linear(xt, xt)
            z = ad.gelu(y)
            loss = ad.tsum(ad.square(z))
        backward(tape, loss)
        return xt.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def retained_backward(tape, loss):
    """Reference walk that frees nothing: the entries stay on the tape, and
    every gradient, intermediates included, stays in the returned map and is
    accumulated into ``grad``."""
    grads = {loss: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g = grads.get(entry.output)
        if g is None:
            continue
        in_grads = entry.backward(g)
        for t, ig in zip(entry.inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            grads[t] = ig if acc is None else acc + ig
    for t, g in grads.items():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
    return grads


GRAPH_OPS = ("add", "sub", "mul", "square", "gelu", "mask_views", "linear")


def random_graph(seed, ops):
    """A seeded graph over leaves x, y, weight and token and a constant c.

    The leaf x feeds several entries: the first two ops and the loss.  The
    mask-view op is the pretraining keep/hide product: a (1, B, P, w)
    operand times a (V, B, P, 1) mask plus the (w,) token times its
    complement, summed back over the views.  One entry's output never
    reaches the loss.  Returns (tape, loss, leaves, intermediates)."""
    rng = np.random.default_rng(seed)
    B, P, w = 2, 3, 4
    x, y = (Tensor(rng.normal(size=(B, P, w)), requires_grad=True) for _ in range(2))
    weight = Tensor(rng.normal(size=(w, w)) / w, requires_grad=True)
    token = Tensor(rng.normal(size=w), requires_grad=True)
    c = Tensor(rng.normal(size=(B, P, w)))
    pool = [x, y, c]

    def apply(op, a, b):
        if op == "mask_views":
            hide = rng.random((2, B, P, 1)) < 0.5
            views = ad.add(ad.mul(ad.reshape(a, (1, B, P, w)), Tensor(~hide)),
                           ad.mul(token, Tensor(hide)))
            return ad.tsum(views, axis=0)
        if op == "linear":
            return ad.linear(a, weight)
        if op in ("square", "gelu"):
            return getattr(ad, op)(a)
        return getattr(ad, op)(a, b)

    with Tape() as tape:
        pool.append(ad.mul(x, c))
        pool.append(apply("mask_views", x, None))
        for op, i, j in ops:
            pool.append(apply(op, pool[i % len(pool)], pool[j % len(pool)]))
        ad.gelu(pool[-2])  # recorded, never reaches the loss
        loss = ad.add(ad.tsum(pool[-1]), ad.tsum(ad.mul(x, y)))
    intermediates = [e.output for e in tape.entries]
    return tape, loss, (x, y, weight, token), intermediates


@given(seed=st.integers(0, 2 ** 31 - 1),
       ops=st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 20),
                              st.integers(0, 20)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_drained_walk_matches_retained_walk(seed, ops):
    tape, loss, leaves, _ = random_graph(seed, ops)
    want = retained_backward(tape, loss)
    tape, loss, leaves_b, intermediates = random_graph(seed, ops)
    got = backward(tape, loss)
    assert set(got) == {t for t in leaves_b if t.grad is not None}
    for a, b in zip(leaves, leaves_b):
        assert (a in want) == (b in got)
        if b in got:
            assert got[b] is b.grad
            assert want[a].tobytes() == got[b].tobytes()
    assert not tape.entries
    assert all(t.grad is None for t in intermediates)


def test_second_walk_of_a_tape_is_rejected():
    x = Tensor(np.arange(3.0), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.square(x))
    backward(tape, loss)
    first = x.grad.copy()
    with pytest.raises(ShapeError, match="already been walked"):
        backward(tape, loss)
    np.testing.assert_array_equal(x.grad, first)


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
    err = grad_check(lambda t: ad.tsum(ad.gelu(ad.linear(t, w))),
                     Tensor(rng.normal(size=(2, 5))))
    assert err < 1e-5


def _case_add(rng, shape):
    c = Tensor(rng.normal(size=shape))
    return lambda t: ad.tsum(ad.square(ad.add(t, c)))


def _case_mul(rng, shape):
    c = Tensor(rng.normal(size=shape))
    return lambda t: ad.tsum(ad.mul(t, c))


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


def _case_cross_entropy(rng, shape):
    labels = rng.integers(0, shape[-1], size=shape[:-1])
    return lambda t: ad.tsum(ad.cross_entropy_logits(t, labels))


PRIMITIVE_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "linear": _case_linear,
    "conv1d": _case_conv1d,
    "groupnorm": _case_groupnorm,
    "layernorm": _case_layernorm,
    "gelu": _case_gelu,
    "avgpool1d": _case_avgpool1d,
    "embedding": _case_embedding,
    "concat": _case_concat,
    "index": _case_index,
    "reshape": _case_reshape,
    "sum": _case_sum,
    "mean": _case_mean,
    "div": _case_div,
    "sqrt": _case_sqrt,
    "expm1": _case_expm1,
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
    w_out = Tensor(rng.normal(size=(4, 4)))

    def f(t):  # t stacks q, k and v
        att = ad.multihead_attention(*(ad.index(t, i) for i in range(3)), heads=2)
        return ad.tsum(ad.square(ad.linear(att, w_out)))

    assert grad_check(f, Tensor(rng.normal(size=(3, 1, 3, 4)))) < 1e-5


@given(seed=st.integers(0, 2 ** 31 - 1), lead=st.lists(st.integers(1, 5), min_size=1,
                                                       max_size=2),
       positions=st.integers(1, 9), heads=st.integers(1, 4), d_head=st.integers(1, 6),
       scale=st.sampled_from([1e-2, 1.0, 10.0]))
@settings(max_examples=150, deadline=None)
def test_attention_is_one_entry_with_the_composite_bits(seed, lead, positions, heads,
                                                        d_head, scale):
    # the primitive runs the composite's numpy operations in its order, on
    # the same strided views, so the output and every gradient keep each bit
    rng = np.random.default_rng(seed)
    shape = (*lead, positions, heads * d_head)
    q, k, v = (scale * rng.normal(size=shape) for _ in range(3))
    g = rng.normal(size=shape)
    with Tape() as tape:
        out = ad.multihead_attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)),
                                     heads=heads)
    assert [e.name for e in tape.entries] == ["attention"]
    grads = tape.entries[0].backward(g)
    want, want_grads = attention_composite(q, k, v, heads, g)
    assert np.array_equal(out.data, want)
    for got, expect in zip(grads, want_grads):
        assert np.array_equal(got, expect)


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
    adamw_step([p], lr=1e-3, weight_decay=0.0)
    # betas (0.9, 0.999), eps 1e-8; bias-corrected: m_hat = 1, v_hat = 1
    # -> update = lr * 1 / (1 + eps)
    expect = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0] - expect) < 1e-12


def test_adamw_moments_start_at_first_step_bit_for_bit():
    lazy, eager = (Parameter(np.array([0.5, -1.5, 2.0]), "p") for _ in range(2))
    assert lazy.m is None and lazy.v is None
    eager.m, eager.v = np.zeros(3), np.zeros(3)
    rng = np.random.default_rng(4)
    for grad in rng.normal(size=(3, 3)):
        for p in (lazy, eager):
            p.tensor.grad = grad
            adamw_step([p], lr=1e-2, weight_decay=0.1)
    for field in ("m", "v", "data"):
        assert getattr(lazy, field).tobytes() == getattr(eager, field).tobytes()


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


def _reference_adamw(data, m, v, step, g, lr, weight_decay):
    """The update with a fresh array for every term."""
    b1, b2 = ADAM_BETAS
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1 ** step)
    vhat = v / (1.0 - b2 ** step)
    new = data * (1.0 - lr * weight_decay) if weight_decay else data
    return new - (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)), m, v


def _layouts(a: np.ndarray) -> list[np.ndarray]:
    """``a``'s values held C-ordered, with reversed axes and strided."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    flipped = np.ascontiguousarray(a[..., ::-1])[..., ::-1]
    return [a.copy(), np.asfortranarray(a), wide[..., ::2], flipped]


@given(seed=st.integers(0, 2 ** 31 - 1),
       shapes=st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3),
                       min_size=1, max_size=4),
       steps=st.integers(1, 4), lr=st.floats(1e-5, 0.5),
       decay=st.sampled_from([0.0, 1e-4, 0.05, 0.3]))
@settings(max_examples=40, deadline=None)
def test_adamw_in_place_equals_fresh_arrays_bit_for_bit(seed, shapes, steps, lr, decay):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
    want = [(p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape))
            for p in params]
    for step in range(1, steps + 1):
        for i, p in enumerate(params):
            g = _layouts(rng.normal(size=p.data.shape))[(i + step) % 4]
            p.tensor.grad = g
            want[i] = _reference_adamw(*want[i], step, g, lr, decay)
        adamw_step(params, lr=lr, weight_decay=decay)
    for p, (data, m, v) in zip(params, want):
        for got, ref in ((p.data, data), (p.m, m), (p.v, v)):
            assert got.tobytes() == ref.tobytes()


@given(seed=st.integers(0, 2 ** 31 - 1),
       shapes=st.lists(st.lists(st.integers(1, 30), min_size=1, max_size=3),
                       min_size=1, max_size=4),
       max_norm=st.floats(1e-3, 200.0))
@settings(max_examples=40, deadline=None)
def test_clip_in_place_equals_fresh_arrays_bit_for_bit(seed, shapes, max_norm):
    # sums of squares over thousands of values add in memory order, which
    # the layouts change
    rng = np.random.default_rng(seed)
    params = [Parameter(np.zeros(s), f"p{i}") for i, s in enumerate(shapes)]
    for i, p in enumerate(params):
        p.tensor.grad = _layouts(rng.normal(size=p.data.shape))[i % 4]
    held = [p.tensor.grad for p in params]
    total = sum(float(np.sum(g ** 2)) for g in held)
    norm = math.sqrt(total)
    scale = max_norm / norm if norm > max_norm else 1.0
    want = [g * scale if scale != 1.0 else g.copy() for g in held]
    assert clip_global_norm(params, max_norm) == norm
    for p, ref in zip(params, want):
        assert p.tensor.grad.tobytes() == ref.tobytes()


def test_clip_scales_shared_and_read_only_gradients_once():
    """Gradients backward can hand out as one array or views of one array
    are each scaled once, and the arrays the caller holds are left as
    they were; a read-only gradient gets a scaled copy."""
    base = np.full(4, 3.0)
    same = [Parameter(np.zeros(4), "a"), Parameter(np.zeros(4), "b"),
            Parameter(np.zeros((2, 2)), "c"), Parameter(np.zeros(4), "d")]
    same[0].tensor.grad = same[1].tensor.grad = base
    same[2].tensor.grad = base.reshape(2, 2)
    same[3].tensor.grad = np.broadcast_to(np.array([3.0]), (4,))
    norm = clip_global_norm(same, max_norm=1.0)
    assert norm == math.sqrt(16 * 9.0)
    for p in same:
        np.testing.assert_array_equal(p.tensor.grad, np.full(p.data.shape, 3.0 / 12))
    np.testing.assert_array_equal(base, np.full(4, 3.0))
