"""Stage-two masked pretraining: a fresh backbone learns to predict the
frozen tokenizer's code indices at masked patch positions.

Masking is symmetric: every sampled mask trains together with its exact
complement, so each patch is hidden in exactly one of the two views.  The
mask token replaces a patch's branch feature while the position's channel
and slot embeddings stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .checkpoint import (ZeroDraws, config_from_header, config_header, require_fields,
                         restore, save_arrays)
from .encoder import EncoderConfig, Linear, MultiScaleEncoder
from .errors import ConfigError, NumericError
from .optim import Module, Parameter, adamw_step
from .signals import Recording, SynthSpec, synth_generate
from .tokenizer import INFERENCE_BATCH, TokenizerModel, WindowSet, build_windows


@dataclass
class MaskPlan:
    """A boolean patch mask; it and its complement are the two views of one
    sample."""

    mask: np.ndarray  # (P,) bool


def make_symmetric_masks(P: int, rho: float, seed: int | np.random.Generator = 0
                         ) -> MaskPlan:
    """Uniformly random mask of round(rho * P) patches."""
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"mask ratio must lie in (0, 1), got {rho}")
    if P < 2:
        raise ConfigError(f"need at least 2 patches to mask, got {P}")
    k = int(round(rho * P))
    if k == 0 or k == P:
        raise ConfigError(f"mask ratio {rho} rounds to {k}/{P} masked patches")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mask = np.zeros(P, dtype=bool)
    mask[rng.choice(P, size=k, replace=False)] = True
    return MaskPlan(mask)


def draw_masks(batch: WindowSet, rho: float, rng: np.random.Generator) -> np.ndarray:
    """One symmetric mask per window of ``batch``, drawn in window order:
    a (W, P) bool array."""
    return np.stack([make_symmetric_masks(batch.patches.shape[1], rho, rng).mask
                     for _ in range(batch.n_windows)])


@dataclass
class PretrainConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    levels: int = 4
    codebook_size: int = 256
    mask_ratio: float = 0.5
    epochs: int = 10
    base_lr: float = 3e-3
    min_lr: float = 1e-5
    warmup_epochs: int = 1
    weight_decay: float = 0.05
    batch_size: int = 2
    slots_per_window: int = 4
    seed: int = 0
    #: what a checkpoint header stores beside the encoder's fields
    HEADER_FIELDS: ClassVar[tuple[str, ...]] = (
        "levels", "codebook_size", "mask_ratio", "slots_per_window")

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError("mask_ratio must lie in (0, 1)")


class BackboneModel(Module):
    """Fresh multi-scale encoder plus per-(branch, level) token classifiers.

    Weights are drawn from ``seed``, or from ``rng`` when one is given (a
    checkpoint load passes ``ZeroDraws``).
    """

    def __init__(self, cfg: PretrainConfig, seed: int = 0, rng=None):
        self.cfg = cfg
        rng = np.random.default_rng(seed) if rng is None else rng
        enc = cfg.encoder
        self.encoder = MultiScaleEncoder(enc, rng, name="backbone")
        self.mask_token = Parameter(0.02 * rng.standard_normal(enc.w), "mask_token")
        self.heads = [[Linear(enc.model_dim, cfg.codebook_size, rng,
                              f"head.s{s}.n{n}", scale=0.01)
                       for n in range(cfg.levels)] for s in range(enc.S)]

    def forward(self, patches: np.ndarray, channel_idx: np.ndarray,
                slot_idx: np.ndarray, mask: np.ndarray | None = None
                ) -> list[Tensor]:
        """Per-branch (V * B, P, D) representations in view-major order for a
        (B, P) mask (V = 1) or a stack of V views (V, B, P).  The branch
        features are computed once for all views; masked patches' features
        are replaced by the mask token before the embeddings are added."""
        t = ad._as_tensor(patches)
        features = self.encoder.branch_features(t)  # (S, B, P, w)
        if mask is not None:
            S, B, P, w = features.shape
            hide = np.asarray(mask, dtype=bool).reshape(-1, B, P)[..., None]
            V = hide.shape[0]
            # (S, 1, B, P, w) against (V, B, P, 1): the broadcast's backward
            # sums the views' gradients into the shared features
            features = ad.add(ad.mul(ad.reshape(features, (S, 1, B, P, w)), Tensor(~hide)),
                              ad.mul(self.mask_token.tensor, Tensor(hide)))
            features = ad.reshape(features, (S, V * B, P, w))
            channel_idx, slot_idx = np.tile(channel_idx, (V, 1)), np.tile(slot_idx, (V, 1))
        return self.encoder.forward(t, channel_idx, slot_idx, features=features)


def teacher_tokens(windows: WindowSet, tokenizer: TokenizerModel) -> np.ndarray:
    """Frozen-tokenizer code indices with extents (W, P, S, N)."""
    return np.concatenate([
        tokenizer.token_indices(chunk.patches, chunk.channel_idx, chunk.slot_idx)
        for _, chunk in windows.batches(INFERENCE_BATCH)])


def check_teacher_compat(tokenizer_header: dict, cfg: PretrainConfig) -> None:
    """The backbone must agree with the tokenizer on w, S, N and K."""
    require_fields(tokenizer_header, config_header(cfg),
                   ("w", "S", "levels", "codebook_size"))


def _view_loss(backbone: BackboneModel, batch: WindowSet, masks: np.ndarray,
               teacher: np.ndarray) -> tuple[Tensor, int, int, int]:
    """Masked-position cross entropy for one (B, P) mask view or a (V, B, P)
    stack of views, in one backbone pass.

    Returns (mean over views of each view's masked-position mean CE,
    averaged over heads; correct top-1 count and masked position count per
    head, both pooled over the views; number of heads).
    """
    B, P = teacher.shape[:2]
    hide = np.asarray(masks, dtype=bool).reshape(-1, B, P)
    V = hide.shape[0]
    reps = backbone.forward(batch.patches, batch.channel_idx, batch.slot_idx,
                            mask=hide)
    n_masked = hide.sum(axis=(1, 2))
    weight = Tensor((hide / (V * n_masked[:, None, None])).reshape(V * B, P))
    hide = hide.reshape(V * B, P)
    total: Tensor | None = None
    correct = 0
    heads = 0
    for s, row in enumerate(backbone.heads):
        for n, head in enumerate(row):
            logits = head(reps[s])
            labels = np.tile(teacher[:, :, s, n], (V, 1))
            ce = ad.cross_entropy_logits(logits, labels)  # (V * B, P)
            masked_ce = ad.tsum(ad.mul(ce, weight))
            total = masked_ce if total is None else ad.add(total, masked_ce)
            pred_idx = np.argmax(logits.data, axis=-1)
            correct += int(((pred_idx == labels) & hide).sum())
            heads += 1
    mean_ce = ad.mul(Tensor(np.asarray(1.0 / heads)), total)
    return mean_ce, correct, int(n_masked.sum()), heads


def pretrain_step(batch: WindowSet, masks: np.ndarray, backbone: BackboneModel,
                  teacher: np.ndarray, lr: float) -> tuple[float, float]:
    """One update over a mask view and its complement; returns (loss, accuracy).

    Both views run as one batch through one backbone pass.  Loss is the mean
    over both views of the per-head masked cross entropy; accuracy is the
    fraction of masked top-1 predictions matching the teacher, pooled over
    both views.
    """
    if masks.shape != batch.patches.shape[:2]:
        raise ConfigError(f"mask shape {masks.shape} != batch (W, P) "
                          f"{batch.patches.shape[:2]}")
    params = backbone.params()
    with Tape() as tape:
        total, correct, masked, heads = _view_loss(
            backbone, batch, np.stack([masks, ~masks]), teacher)
    loss_val = total.item()
    if not math.isfinite(loss_val):
        raise NumericError(f"non-finite pretraining loss: {loss_val}")
    backward(tape, total)
    adamw_step(params, lr=lr, weight_decay=backbone.cfg.weight_decay)
    for p in params:
        p.zero_grad()
    return loss_val, correct / (heads * masked)


def masked_metrics(backbone: BackboneModel, windows: WindowSet,
                   teacher: np.ndarray, rho: float, seed: int) -> tuple[float, float]:
    """(cross entropy, accuracy) at masked positions with seeded masks."""
    rng = np.random.default_rng(seed)
    losses, correct, masked = [], 0, 0
    heads = None
    for idx, chunk in windows.batches(INFERENCE_BATCH):
        loss, c, m, heads = _view_loss(backbone, chunk, draw_masks(chunk, rho, rng),
                                       teacher[idx])
        losses.append(loss.item() * m)
        correct += c
        masked += m
    return sum(losses) / masked, correct / (heads * masked)


def pretrain(dataset: list[Recording], cfg: PretrainConfig,
             tokenizer: TokenizerModel) -> tuple[BackboneModel, list[dict]]:
    """Epoch loop over symmetric-mask views with a cosine schedule.

    Returns the trained backbone and curve rows (one dict per epoch and split).
    """
    check_teacher_compat(config_header(tokenizer.cfg), cfg)
    windows = build_windows(dataset, cfg.encoder.w, cfg.slots_per_window)
    train_set, val_set = windows.train, windows.val
    del windows
    if train_set.n_windows == 0:
        raise ConfigError("no training windows after the validation split")
    backbone = BackboneModel(cfg, seed=cfg.seed)
    # the teacher labels the very patches the backbone learns to predict
    teacher_train = teacher_tokens(train_set, tokenizer)
    teacher_val = teacher_tokens(val_set, tokenizer) if val_set.n_windows else None
    rng = np.random.default_rng(cfg.seed + 1)
    curves: list[dict] = []
    for epoch, batches in train_set.schedule(cfg.epochs, cfg.batch_size, rng,
                                             base_lr=cfg.base_lr, min_lr=cfg.min_lr,
                                             warmup_epochs=cfg.warmup_epochs):
        losses, accs = zip(*[pretrain_step(batch, draw_masks(batch, cfg.mask_ratio, rng),
                                           backbone, teacher_train[idx], lr)
                             for idx, batch, lr in batches])
        curves.append({"epoch": epoch, "split": "train",
                       "ce_loss": sum(losses) / len(losses),
                       "masked_acc": sum(accs) / len(accs)})
        if teacher_val is not None:
            ce, acc = masked_metrics(backbone, val_set, teacher_val,
                                     cfg.mask_ratio, seed=cfg.seed + 7)
            curves.append({"epoch": epoch, "split": "val",
                           "ce_loss": ce, "masked_acc": acc})
    return backbone, curves


def extract_features(backbone: BackboneModel, windows: WindowSet) -> np.ndarray:
    """Unmasked per-patch embeddings: the S branch representations
    concatenated in branch order, extents (n_patches, S * D).

    Pretraining keeps the branches apart (each stream feeds only its own
    token heads), so nothing trains a fused view; keeping every stream is
    what preserves the per-band information.
    """
    rows = []
    for _, chunk in windows.batches(INFERENCE_BATCH):
        reps = backbone.forward(chunk.patches, chunk.channel_idx, chunk.slot_idx)
        joined = np.concatenate([r.data for r in reps], axis=-1)  # (B, P, S*D)
        rows.append(joined.reshape(-1, joined.shape[-1]))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# synthetic downstream probe


def probe_corpus(n_per_class: int, channels: int, sample_rate: float,
                 duration: float, seed: int) -> tuple[list[Recording], np.ndarray]:
    """Alpha-dominant vs beta-dominant recordings with binary labels."""
    base = {"delta": (0.4, 0.6), "theta": (0.3, 0.5), "gamma": (0.05, 0.1)}
    strong, weak = (0.9, 1.3), (0.1, 0.2)
    recs, labels = [], []
    for i in range(n_per_class):
        recs.append(synth_generate(SynthSpec(
            seed=seed + 2 * i, n_channels=channels, sample_rate=sample_rate,
            duration=duration,
            amplitude_ranges={**base, "alpha": strong, "beta": weak})))
        labels.append(0)
        recs.append(synth_generate(SynthSpec(
            seed=seed + 2 * i + 1, n_channels=channels, sample_rate=sample_rate,
            duration=duration,
            amplitude_ranges={**base, "alpha": weak, "beta": strong})))
        labels.append(1)
    order = np.random.default_rng(seed + 999).permutation(len(recs))
    return [recs[i] for i in order], np.asarray(labels)[order]


def run_linear_probe(backbone: BackboneModel, recordings: list[Recording],
                     labels: np.ndarray, slots_per_window: int
                     ) -> dict[str, float]:
    """Ridge-regression probe on recording-averaged features.

    Windows of ``slots_per_window`` slots (the backbone's pretraining window
    length) are embedded by :func:`extract_features` and averaged per
    recording; :func:`fit_linear_probe` does the split and the fit at its
    default training fraction and ridge.
    """
    w = backbone.cfg.encoder.w
    feats = []
    for rec in recordings:
        wins = build_windows([rec], w, slots_per_window, val_fraction=0.0)
        feats.append(extract_features(backbone, wins).mean(axis=0))
    return fit_linear_probe(np.vstack(feats), labels)


def fit_linear_probe(X: np.ndarray, labels: np.ndarray,
                     train_fraction: float = 0.75, ridge: float = 1e-2
                     ) -> dict[str, float]:
    """Ridge classifier on rows of ``X`` with 0/1 ``labels``.

    The first round(train_fraction * n) rows train, the rest are held out;
    returns accuracies for both splits.  Features are standardised on the
    training split and the fit keeps its unpenalised intercept (the training
    mean of the +-1 targets), so an unbalanced training split does not shift
    the decision boundary.
    """
    y = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
    n_train = int(round(train_fraction * len(X)))
    if n_train < 2 or n_train >= len(X):
        raise ConfigError("probe needs at least 2 training and 1 held-out recording")
    Xtr, Xte = X[:n_train], X[n_train:]
    ytr, yte = y[:n_train], y[n_train:]
    mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0) + 1e-9
    Xtr = (Xtr - mu) / sd
    Xte = (Xte - mu) / sd
    bias = ytr.mean()
    coef = np.linalg.solve(Xtr.T @ Xtr + ridge * np.eye(X.shape[1]),
                           Xtr.T @ (ytr - bias))
    return {
        "train_accuracy": float(((Xtr @ coef + bias > 0) == (ytr > 0)).mean()),
        "held_out_accuracy": float(((Xte @ coef + bias > 0) == (yte > 0)).mean()),
        "n_train": n_train,
        "n_held_out": len(X) - n_train,
    }


# ---------------------------------------------------------------------------
# checkpointing


def _stored_arrays(backbone: BackboneModel) -> dict[str, np.ndarray]:
    return {f"param.{p.name}": p.data for p in backbone.params()}


def save_backbone(backbone: BackboneModel, path) -> None:
    save_arrays(path, "backbone", config_header(backbone.cfg), _stored_arrays(backbone))


def load_backbone(path) -> BackboneModel:
    def build(header: dict):
        backbone = BackboneModel(config_from_header(PretrainConfig, header),
                                 rng=ZeroDraws())
        return backbone, _stored_arrays(backbone)

    return restore(path, "backbone", build)
