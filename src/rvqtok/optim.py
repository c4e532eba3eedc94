"""Parameters, the AdamW update, gradient clipping and learning-rate schedules."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

import numpy as np

from .autodiff import Tensor
from .errors import ShapeError


class Parameter:
    """A named learnable tensor with its optimizer state.

    The AdamW moments ``m`` and ``v`` are None until the first
    ``adamw_step`` starts them at zero, so a model that is only run
    (loaded for inference, say) holds no optimizer state.
    """

    __slots__ = ("tensor", "name", "m", "v", "step")

    def __init__(self, data, name: str):
        self.tensor = Tensor(data, requires_grad=True)
        self.name = name
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.step = 0

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class Module:
    """A model part whose Parameters are its attributes.

    ``params`` lists them in the order the attributes were first assigned,
    descending into attributes that are Modules or (nested) lists; anything
    else is passed over.
    """

    def params(self) -> list[Parameter]:
        # a loop over a stack, not a recursive closure: the closure would
        # sit in a reference cycle holding every Parameter until the cyclic
        # collector ran
        out: list[Parameter] = []
        todo = [self]
        while todo:
            v = todo.pop()
            if isinstance(v, Parameter):
                out.append(v)
            elif isinstance(v, Module):
                todo.extend(reversed(vars(v).values()))
            elif isinstance(v, list):
                todo.extend(reversed(v))
        return out


#: AdamW's decay rates of the first and second moments.
ADAM_BETAS = (0.9, 0.999)
#: Floor added to AdamW's denominator.
ADAM_EPS = 1e-8


def _scratch_like(buf: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The leading ``a.size`` values of the flat ``buf`` as an array of
    ``a``'s shape whose axes lie in memory in ``a``'s order: the layout numpy
    gives a fresh elementwise result of ``a``, so a sum over the view adds in
    the order it would over that result."""
    order = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))
    dense = buf[:a.size].reshape([a.shape[i] for i in order])
    return dense.transpose([order.index(i) for i in range(a.ndim)])


def _owner(a: np.ndarray) -> int:
    return id(a if a.base is None else a.base)


def adamw_step(params: Iterable[Parameter], lr: float = 1e-3,
               weight_decay: float = 0.0) -> None:
    """Decoupled-weight-decay Adam update, in place.

    Each parameter's data and moments are overwritten through ``out=``, with
    one scratch buffer of two slots as large as the largest parameter for
    the intermediate terms.  The operations and their order are those of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    data = data (1 - lr decay) - lr m^ / (sqrt(v^) + eps), so every value is
    the one fresh arrays would hold.
    """
    b1, b2 = ADAM_BETAS
    params = list(params)
    scratch = np.empty((2, max((p.data.size for p in params), default=0)))
    for p in params:
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter {p.name} shape {p.data.shape}")
        if p.m is None:
            p.m, p.v = np.zeros_like(p.data), np.zeros_like(p.data)
        p.step += 1
        m, v, data = p.m, p.v, p.data
        num, den = (slot[:g.size].reshape(g.shape) for slot in scratch)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=num)
        np.add(m, num, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=den)
        np.multiply(den, g, out=den)
        np.add(v, den, out=v)
        np.divide(m, 1.0 - b1 ** p.step, out=num)
        np.multiply(num, lr, out=num)
        np.divide(v, 1.0 - b2 ** p.step, out=den)
        np.sqrt(den, out=den)
        np.add(den, ADAM_EPS, out=den)
        np.divide(num, den, out=num)
        if weight_decay:
            np.multiply(data, 1.0 - lr * weight_decay, out=data)
        np.subtract(data, num, out=data)


def clip_global_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so the concatenated norm stays below max_norm.

    Each gradient array is scaled in place, except one whose memory another
    parameter's gradient shares or that is read-only: that one is replaced
    by a scaled copy.  The squares of the norm go through one scratch
    buffer laid out like each gradient, so they add in the order of a fresh
    ``g ** 2``.
    """
    grads = [(p, p.tensor.grad) for p in params if p.tensor.grad is not None]
    scratch = np.empty(max((g.size for _, g in grads), default=0))
    total = 0.0
    for _, g in grads:
        total += float(np.sum(np.multiply(g, g, out=_scratch_like(scratch, g))))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        owners = Counter(_owner(g) for _, g in grads)
        for p, g in grads:
            if owners[_owner(g)] == 1 and g.flags.writeable:
                np.multiply(g, scale, out=g)
            else:
                p.tensor.grad = g * scale
    return norm


def cosine_warmup_lr(step: int, total_steps: int, warmup_steps: int,
                     base_lr: float, min_lr: float = 0.0) -> float:
    """Linear warmup from 0 to base_lr, then a cosine decay down to min_lr."""
    if total_steps <= 0:
        return base_lr
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    frac = min(1.0, (step - warmup_steps) / span)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * frac))
