"""Dense real arrays with reverse-mode differentiation on an explicit tape.

Every operation that touches a gradient-tracked tensor appends one entry to
the active :class:`Tape`.  Entries are created in forward (topological) order,
so :func:`backward` only has to walk the list once in reverse, applying each
entry's backward rule and accumulating into a gradient map.  The walk empties
the tape as it goes, so each tape is walked once.  Accumulation order is
fixed by tape order, which makes repeated forward + backward runs
bit-identical.

Where no tape records, :func:`parallel_map` and :func:`split_map` spread
independent work over the process's cores on a thread pool; numpy releases
the interpreter lock inside its kernels.  Under a tape both run serially on
the calling thread, so recording and gradients stay single-threaded.
"""

from __future__ import annotations

import builtins
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf as _erf

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Variance floor of groupnorm and layernorm.
NORM_EPS = 1e-5
#: Central-difference step of ``grad_check``.
FD_STEP = 1e-5
#: Threads that share a ``parallel_map``, the calling thread included: the
#: cores the process may run on.
WORKERS = len(os.sched_getaffinity(0))


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    Data of any dtype is held as float64.  Values are immutable once created
    (training only ever mutates leaf parameter data between steps); ``grad``
    is the lone mutable accumulator.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


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
    """Ordered record of operations; confined to one thread of execution.

    The tape owns the graph: tensors keep no link to their parents, so the
    entries (and the forward arrays their backward rules hold) live until
    :func:`backward` pops them.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().remove(self)

    def __len__(self) -> int:
        return len(self.entries)


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """The ``WORKERS - 1`` pool threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="rvqtok")
        return _pool


def _run_group(fn: Callable, group: list) -> list:
    _active.pooled = True
    try:
        return [fn(item) for item in group]
    finally:
        _active.pooled = False


def parallel_map(fn: Callable, items) -> list:
    """``[fn(i) for i in items]``, spread over ``WORKERS`` threads.

    The items are cut into contiguous groups, one per thread; the caller
    runs the first and the pool the rest, and results come back in input
    order.  An exception raised by an item reaches the caller once every
    group has finished.  The items run in order on the calling thread when a
    tape records there, inside another ``parallel_map``, or when the process
    has one core.
    """
    items = list(items)
    n = min(WORKERS, len(items))
    if n < 2 or _tape_stack() or getattr(_active, "pooled", False):
        return [fn(item) for item in items]
    cuts = [len(items) * g // n for g in range(n + 1)]
    groups = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    pool = _worker_pool()
    futures = [pool.submit(_run_group, fn, group) for group in groups[1:]]
    try:
        out = _run_group(fn, groups[0])
    finally:
        wait(futures)
    for future in futures:
        out.extend(future.result())
    return out


def split_map(fn: Callable[[Tensor], Tensor], x: Tensor, parts: int) -> Tensor:
    """``fn(x)`` for an ``fn`` that treats leading-axis rows independently.

    Under a tape this is the single call ``fn(x)``.  Otherwise ``fn`` runs
    through :func:`parallel_map` on ``parts`` equal slices of the leading
    axis, and the results are concatenated.
    """
    if x.shape[0] % parts:
        raise ShapeError(f"split_map: {x.shape[0]} rows do not split into {parts} parts")
    if _tape_stack():
        return fn(x)
    rows = x.shape[0] // parts
    pieces = [Tensor(x.data[i * rows:(i + 1) * rows]) for i in range(parts)]
    return concat(parallel_map(fn, pieces), axis=0)


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
    """Walk and empty the tape; return the gradients of the leaves.

    Each entry is popped off the tape as its backward rule runs, and its
    output's gradient is dropped once used, so the entry's closure, the
    forward arrays it holds and that gradient are freed before the next entry
    runs.  What remains is the gradient of every requires_grad leaf reachable
    from ``loss``; each is also accumulated into the leaf's ``grad``.
    Intermediate tensors get no ``grad``.  A tape is walked once: walking an
    empty one raises :class:`ShapeError`.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not tape.entries:
        raise ShapeError("backward over an empty tape: it has already been walked "
                         "(the walk empties it) or recorded no operation")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    while tape.entries:
        entry = tape.entries.pop()
        g = grads.pop(entry.output, None)
        if g is None:
            continue
        for t, ig in zip(entry.inputs, entry.backward(g)):
            if ig is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            grads[t] = ig if acc is None else acc + ig
    leaves = {t: g for t, g in grads.items() if t.requires_grad}
    for t, g in leaves.items():
        t.grad = g if t.grad is None else t.grad + g
    return leaves


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
    """Exact Gaussian-CDF GELU: x * Phi(x).  Both rules work in place on one
    fresh buffer each, in the order of ``x * 0.5 * (1 + erf(x / sqrt 2))``
    and ``g * (cdf + x * pdf)``."""
    cdf = np.multiply(a.data, _INV_SQRT2, out=np.empty_like(a.data))
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = a.data * cdf

    def bwd(g):
        u = np.multiply(a.data, -0.5, out=np.empty_like(a.data))
        u *= a.data
        np.exp(u, out=u)
        u *= _INV_SQRT_2PI
        u *= a.data
        u += cdf
        u *= g
        return (u,)

    return _record("gelu", (a,), out, bwd)


# ---------------------------------------------------------------------------
# shape and reduction primitives


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _record("reshape", (a,), a.data.reshape(shape),
                   lambda g: (g.reshape(a.shape),))


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


def tsum(a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), out, bwd)


def tmean(a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    out = a.data.mean(axis=axis)
    count = a.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _record("mean", (a,), out, bwd)


# ---------------------------------------------------------------------------
# linear-algebra primitives


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


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """A copy of ``a`` with ``p`` zeros at each end of its last axis."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 2 * p,))
    out[..., p:p + a.shape[-1]] = a
    return out


def _columns(xp: np.ndarray, k: int, n: int) -> np.ndarray:
    """The im2col matrix of a padded (B, C, n + k - 1) array: shape (C*k, B*n),
    row ``c*k + j`` holding ``xp[:, c, j:j + n]`` for every batch row.

    This is the operand numpy's batched-matmul einsum builds for the same
    contraction, in the same layout, so the GEMMs below run its operations.
    """
    B, C, _ = xp.shape
    s0, s1, s2 = xp.strides
    win = as_strided(xp, (B, C, n, k), (s0, s1, s2, s2), writeable=False)
    return win.transpose(1, 3, 0, 2).reshape(C * k, B * n)


def conv1d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation: x (B, Cin, L), w (Cout, Cin, K).

    Forward and both gradients are single im2col GEMMs.  The tape keeps only
    the padded input; the backward rebuilds its column matrix.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError("conv1d expects x (B, Cin, L) and w (Cout, Cin, K)")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape[1]}, kernel {w.shape[1]}")
    B, C, L = x.shape
    O, _, k = w.shape
    n = L + 2 * padding - k + 1
    if n < 1:
        raise ShapeError(f"conv1d: padded length {L + 2 * padding} shorter than kernel {k}")
    xp = _pad(x.data, padding)
    out = w.data.reshape(O, C * k) @ _columns(xp, k, n)
    out = out.reshape(O, B, n).transpose(1, 0, 2)

    def bwd(g):
        gw = _columns(xp, k, n) @ g.transpose(0, 2, 1).reshape(B * n, O)
        gw = gw.reshape(C, k, O).transpose(2, 0, 1)
        if not x.requires_grad:  # e.g. a first conv stage over input patches
            return None, gw
        # dx: full correlation of g with the kernel flipped along K, channels swapped
        m = n + k - 1
        wflip = w.data[:, :, ::-1].transpose(1, 0, 2).copy().reshape(C, O * k)
        gx = (wflip @ _columns(_pad(g, k - 1), k, m)).reshape(C, B, m).transpose(1, 0, 2)
        return gx[:, :, padding:padding + L], gw

    return _record("conv1d", (x, w), out, bwd)


def avgpool1d(x: Tensor, width: int) -> Tensor:
    """Non-overlapping average pooling over the last axis.

    The forward adds the ``width`` strided phases in order and divides once,
    the operations of a mean over a trailing length-``width`` axis.
    """
    if x.shape[-1] % width != 0:
        raise ShapeError(f"avgpool1d: length {x.shape[-1]} not divisible by width {width}")
    out = x.data[..., 0::width].copy()
    for j in range(1, width):
        out += x.data[..., j::width]
    out /= width

    def bwd(g):
        gx = np.repeat(g, width, axis=-1) / width
        return (gx,)

    return _record("avgpool1d", (x,), out, bwd)


# ---------------------------------------------------------------------------
# normalization


def groupnorm(x: Tensor, gain: Tensor, bias: Tensor, groups: int) -> Tensor:
    """Group normalization over (C/groups, L) blocks of x (B, C, L)."""
    if x.ndim != 3:
        raise ShapeError("groupnorm expects x of shape (B, C, L)")
    B, C, L = x.shape
    if C % groups != 0:
        raise ConfigError(f"groupnorm: {groups} groups do not divide {C} channels")
    xg = x.data.reshape(B, groups, C // groups * L)
    xhat = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=2, keepdims=True) + NORM_EPS)
    xhat *= inv
    xhat = xhat.reshape(B, C, L)
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


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis."""
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + NORM_EPS)
    xhat *= inv
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
# lookup, losses


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


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over (..., P, D) inputs, heads concatenated.

    D must divide evenly into ``heads``.  One primitive: the heads are
    strided views of the inputs, and the backward runs the rules of the
    products, the scale and the softmax in reverse, on the same views.
    """
    D = q.shape[-1]
    if D % heads != 0:
        raise ConfigError(f"model dimension {D} not divisible by {heads} heads")
    d_head = D // heads
    n = q.ndim - 2
    perm = tuple(range(n)) + (n + 1, n, n + 2)  # its own inverse

    def split(a: np.ndarray) -> np.ndarray:
        """(..., P, D) -> (..., heads, P, d_head), a view where ``a`` is contiguous."""
        return np.transpose(a.reshape(a.shape[:-1] + (heads, d_head)), perm)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = np.asarray(1.0 / math.sqrt(d_head))
    scores = (qh @ np.swapaxes(kh, -1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    out = np.transpose(att @ vh, perm).reshape(q.shape)

    def bwd(g):
        g = split(g)
        g_att = g @ np.swapaxes(vh, -1, -2)
        g_vh = np.swapaxes(att, -1, -2) @ g
        g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * scale
        g_qh = g_scores @ kh
        g_kh = np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2)
        return tuple(np.transpose(gh, perm).reshape(t.shape)
                     for gh, t in ((g_qh, q), (g_kh, k), (g_vh, v)))

    return _record("attention", (q, k, v), out, bwd)


# ---------------------------------------------------------------------------
# the finite-difference harness


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative disagreement between tape gradients and central differences.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|),
    with central differences of step ``FD_STEP``.
    """
    base = x.data
    xt = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(xt)
    if loss.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    # a function that never touches a tracked tensor records nothing
    grads = backward(tape, loss) if len(tape) else {}
    analytic = grads.get(xt)
    if analytic is None:
        analytic = np.zeros_like(base)
    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f(Tensor(base.copy())).item()
        flat[i] = orig - FD_STEP
        lo = f(Tensor(base.copy())).item()
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite finite-difference sample at coordinate {i}")
        numeric = (hi - lo) / (2.0 * FD_STEP)
        ana = analytic.reshape(-1)[i]
        if not math.isfinite(ana):
            raise NumericError(f"non-finite analytic gradient at coordinate {i}")
        err = abs(ana - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
