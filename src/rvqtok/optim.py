"""Parameters, the AdamW update, gradient clipping and learning-rate schedules."""

from __future__ import annotations

import math
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


#: AdamW's decay rates of the first and second moments.
ADAM_BETAS = (0.9, 0.999)
#: Floor added to AdamW's denominator.
ADAM_EPS = 1e-8


def adamw_step(params: Iterable[Parameter], lr: float = 1e-3,
               weight_decay: float = 0.0) -> None:
    """Decoupled-weight-decay Adam update, in place."""
    b1, b2 = ADAM_BETAS
    for p in params:
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter {p.name} shape {p.data.shape}")
        if p.m is None:
            p.m, p.v = np.zeros_like(p.data), np.zeros_like(p.data)
        p.step += 1
        p.m = b1 * p.m + (1.0 - b1) * g
        p.v = b2 * p.v + (1.0 - b2) * g * g
        mhat = p.m / (1.0 - b1 ** p.step)
        vhat = p.v / (1.0 - b2 ** p.step)
        new = p.data * (1.0 - lr * weight_decay) if weight_decay else p.data
        p.tensor.data = new - (lr * mhat / (np.sqrt(vhat) + ADAM_EPS))


def clip_global_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so the concatenated norm stays below max_norm."""
    params = list(params)
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            total += float(np.sum(p.tensor.grad ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad = p.tensor.grad * scale
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
