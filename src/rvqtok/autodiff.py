"""Dense real arrays with reverse-mode differentiation on an explicit tape.

Every operation that touches a gradient-tracked tensor appends one entry to
the active :class:`Tape`.  Entries are created in forward (topological) order,
so :func:`backward` only has to walk the list once in reverse, applying each
entry's backward rule and accumulating into a gradient map.  Accumulation
order is fixed by tape order, which makes repeated backward passes over the
same forward graph bit-identical.
"""

from __future__ import annotations

import builtins
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense real array, optionally tracked for gradients.

    Values are immutable once created (training only ever mutates leaf
    parameter data between steps); ``grad`` is the lone mutable accumulator.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # operator sugar used throughout the model code
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self.dtype))


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _TapeEntry:
    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name, inputs, output, backward):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward = backward


_active = threading.local()


def _tape_stack() -> list:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = []
        _active.stack = stack
    return stack


class Tape:
    """Ordered record of operations; confined to one thread of execution."""

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().remove(self)

    def __len__(self) -> int:
        return len(self.entries)


def _record(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Create the op output and, when tracking applies, record the entry."""
    track = builtins.any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        stack = _tape_stack()
        if stack:
            stack[-1].entries.append(_TapeEntry(name, inputs, out, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Populate gradients for every requires_grad tensor reachable from loss.

    Returns the full gradient map (including intermediates).  Gradients of
    leaf tensors are also accumulated into their ``grad`` attribute.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g if g.shape == shape else g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), a.data * b.data, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record("div", (a, b), a.data / b.data, bwd)


def neg(a: Tensor) -> Tensor:
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def square(a: Tensor) -> Tensor:
    return _record("square", (a,), a.data * a.data, lambda g: (2.0 * a.data * g,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _record("sqrt", (a,), out, lambda g: (0.5 * g / out,))


def expm1(a: Tensor) -> Tensor:
    return _record("expm1", (a,), np.expm1(a.data), lambda g: (g * np.exp(a.data),))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    out = np.maximum(a.data, floor)
    # subgradient 0 where the floor is active
    return _record("clamp_min", (a,), out, lambda g: (g * (a.data > floor),))


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    cdf = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    out = a.data * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (cdf + a.data * pdf),)

    return _record("gelu", (a,), out, bwd)


# ---------------------------------------------------------------------------
# shape and reduction primitives


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _record("reshape", (a,), a.data.reshape(shape),
                   lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record("transpose", (a,), np.transpose(a.data, axes),
                   lambda g: (np.transpose(g, inv),))


def index(a: Tensor, i: int) -> Tensor:
    """Leading-axis entry a[i]; the backward scatters into zeros."""
    def bwd(g):
        ga = np.zeros(a.shape, dtype=g.dtype)
        ga[i] = g
        return (ga,)

    return _record("index", (a,), a.data[i], bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", tensors, np.concatenate([t.data for t in tensors], axis=axis), bwd)


def tsum(a: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), out, bwd)


def tmean(a: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape) / count,)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _record("mean", (a,), out, bwd)


# ---------------------------------------------------------------------------
# linear-algebra primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record("matmul", (a, b), a.data @ b.data, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis; w has shape (d_in, d_out)."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    out = x.data @ w.data
    if b is not None:
        out = out + b.data

    def bwd(g):
        gx = g @ w.data.T
        g2 = g.reshape(-1, g.shape[-1])
        gw = x.data.reshape(-1, x.shape[-1]).T @ g2
        grads = [gx, gw]
        if b is not None:
            grads.append(_unbroadcast(g, b.shape))
        return tuple(grads)

    inputs = (x, w) if b is None else (x, w, b)
    return _record("linear", inputs, out, bwd)


# ---------------------------------------------------------------------------
# convolution and pooling


def conv1d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation: x (B, Cin, L), w (Cout, Cin, K)."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError("conv1d expects x (B, Cin, L) and w (Cout, Cin, K)")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape[1]}, kernel {w.shape[1]}")
    k = w.shape[2]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    if xp.shape[2] < k:
        raise ShapeError(f"conv1d: padded length {xp.shape[2]} shorter than kernel {k}")
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # (B, Cin, Lout, K)
    out = np.einsum("bclk,ock->bol", win, w.data, optimize=True)

    def bwd(g):
        gw = np.einsum("bol,bclk->ock", g, win, optimize=True)
        # dx: full correlation of g with the kernel flipped along K, channels swapped
        gp = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1)))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, k, axis=2)
        wflip = w.data[:, :, ::-1]
        gx_pad = np.einsum("bolk,ock->bcl", gwin, wflip, optimize=True)
        L = x.shape[2]
        gx = gx_pad[:, :, padding:padding + L]
        return gx, gw

    return _record("conv1d", (x, w), out, bwd)


def avgpool1d(x: Tensor, width: int) -> Tensor:
    """Non-overlapping average pooling over the last axis."""
    if x.shape[-1] % width != 0:
        raise ShapeError(f"avgpool1d: length {x.shape[-1]} not divisible by width {width}")
    shape = x.shape[:-1] + (x.shape[-1] // width, width)
    out = x.data.reshape(shape).mean(axis=-1)

    def bwd(g):
        gx = np.repeat(g, width, axis=-1) / width
        return (gx,)

    return _record("avgpool1d", (x,), out, bwd)


# ---------------------------------------------------------------------------
# normalization


def groupnorm(x: Tensor, gain: Tensor, bias: Tensor, groups: int, eps: float = 1e-5) -> Tensor:
    """Group normalization over (C/groups, L) blocks of x (B, C, L)."""
    from .errors import ConfigError

    if x.ndim != 3:
        raise ShapeError("groupnorm expects x of shape (B, C, L)")
    B, C, L = x.shape
    if C % groups != 0:
        raise ConfigError(f"groupnorm: {groups} groups do not divide {C} channels")
    xg = x.data.reshape(B, groups, C // groups * L)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(B, C, L)
    out = xhat * gain.data[:, None] + bias.data[:, None]

    def bwd(g):
        dxhat = (g * gain.data[:, None]).reshape(B, groups, C // groups * L)
        xh = xhat.reshape(B, groups, C // groups * L)
        m1 = dxhat.mean(axis=2, keepdims=True)
        m2 = (dxhat * xh).mean(axis=2, keepdims=True)
        gx = ((dxhat - m1 - xh * m2) * inv).reshape(B, C, L)
        ggain = (g * xhat).sum(axis=(0, 2))
        gbias = g.sum(axis=(0, 2))
        return gx, ggain, gbias

    return _record("groupnorm", (x, gain, bias), out, bwd)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (dxhat - m1 - xhat * m2) * inv
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _record("layernorm", (x, gain, bias), out, bwd)


# ---------------------------------------------------------------------------
# softmax, lookup, losses


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", (x,), out, bwd)


def embedding_lookup(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup table[idx]; idx is a plain integer array."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _record("embedding", (table,), table.data[idx], bwd)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-row cross entropy of integer labels against raw logits."""
    labels = np.asarray(labels)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    rows = np.indices(labels.shape)
    picked = z[(*rows, labels)]
    out = lse - picked

    def bwd(g):
        p = np.exp(z - lse[..., None])
        p[(*rows, labels)] -= 1.0
        return (p * g[..., None],)

    return _record("cross_entropy", (logits,), out, bwd)


def straight_through(p: Tensor, p_hat: Tensor) -> Tensor:
    """Forward value of p_hat; backward passes the gradient to p unchanged."""
    if p.shape != p_hat.shape:
        raise ShapeError(f"straight_through shape mismatch: {p.shape} vs {p_hat.shape}")
    return _record("straight_through", (p, p_hat), p_hat.data.copy(),
                   lambda g: (g, None))


def irfft_onesided(re: Tensor, im: Tensor, n: int) -> Tensor:
    """Inverse real FFT from one-sided (Re, Im) coefficient arrays.

    Inputs have n//2+1 bins on the last axis; imaginary parts at DC and
    Nyquist do not influence the output (matching the c2r transform) and
    therefore receive zero gradient.
    """
    if re.shape != im.shape or re.shape[-1] != n // 2 + 1:
        raise ShapeError(f"irfft_onesided expects (..., {n // 2 + 1}) re/im, got {re.shape}")
    z = re.data + 1j * im.data
    out = np.fft.irfft(z, n=n, axis=-1)

    def bwd(g):
        G = np.fft.rfft(g, axis=-1)
        fac = np.full(n // 2 + 1, 2.0 / n)
        fac[0] = 1.0 / n
        if n % 2 == 0:
            fac[-1] = 1.0 / n
        gre = fac * G.real
        gim = fac * G.imag
        gim[..., 0] = 0.0
        if n % 2 == 0:
            gim[..., -1] = 0.0
        return gre, gim

    return _record("irfft", (re, im), out, bwd)


# ---------------------------------------------------------------------------
# attention


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        w_out: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention over (..., P, D) inputs.

    D must divide evenly into ``heads``; the optional ``w_out`` applies the
    output projection to the concatenated heads.
    """
    from .errors import ConfigError

    D = q.shape[-1]
    if D % heads != 0:
        raise ConfigError(f"model dimension {D} not divisible by {heads} heads")
    d_head = D // heads
    lead = q.shape[:-2]
    P = q.shape[-2]

    def split(t: Tensor) -> Tensor:
        t = reshape(t, lead + (t.shape[-2], heads, d_head))
        perm = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
        return transpose(t, perm)  # (..., heads, P, d_head)

    qh, kh, vh = split(q), split(k), split(v)
    kt = transpose(kh, tuple(range(kh.ndim - 2)) + (kh.ndim - 1, kh.ndim - 2))
    scores = mul(matmul(qh, kt), Tensor(np.asarray(1.0 / math.sqrt(d_head), dtype=q.dtype)))
    att = softmax(scores, axis=-1)
    ctx = matmul(att, vh)  # (..., heads, P, d_head)
    perm_back = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    ctx = transpose(ctx, perm_back)
    out = reshape(ctx, lead + (P, D))
    if w_out is not None:
        out = linear(out, w_out)
    return out


# ---------------------------------------------------------------------------
# the finite-difference harness


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between tape gradients and central differences.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|);
    arithmetic runs in 64-bit regardless of the input dtype.
    """
    base = np.asarray(x.data, dtype=np.float64)
    xt = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(xt)
    if loss.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    grads = backward(tape, loss)
    analytic = grads.get(xt)
    if analytic is None:
        analytic = np.zeros_like(base)
    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(Tensor(base.copy())).item()
        flat[i] = orig - h
        lo = f(Tensor(base.copy())).item()
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite finite-difference sample at coordinate {i}")
        numeric = (hi - lo) / (2.0 * h)
        ana = analytic.reshape(-1)[i]
        if not math.isfinite(ana):
            raise NumericError(f"non-finite analytic gradient at coordinate {i}")
        err = abs(ana - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
