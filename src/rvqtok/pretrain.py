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

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .checkpoint import load_arrays, require_field, restore_params, save_arrays
from .encoder import (EncoderConfig, Linear, MultiScaleEncoder, encoder_from_snapshot,
                      encoder_snapshot)
from .errors import CompatibilityError, ConfigError, NumericError
from .optim import Parameter, adamw_step, cosine_warmup_lr
from .signals import Recording
from .tokenizer import (INFERENCE_BATCH, TokenizerModel, WindowSet, build_windows,
                        _config_snapshot)


@dataclass
class MaskPlan:
    """A boolean patch mask and its complement; two views of one sample."""

    mask: np.ndarray        # (P,) bool
    complement: np.ndarray  # (P,) bool
    ratio: float

    def __post_init__(self):
        if self.mask.shape != self.complement.shape:
            raise ConfigError("mask and complement shapes differ")
        if not np.array_equal(self.complement, ~self.mask):
            raise ConfigError("complement must be the exact negation of the mask")


def make_symmetric_masks(P: int, rho: float, seed: int | np.random.Generator = 0
                         ) -> MaskPlan:
    """Uniformly random mask of round(rho * P) patches plus its complement."""
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
    return MaskPlan(mask, ~mask, rho)


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
    # window length the frozen tokenizer uses when producing teacher tokens
    # (None: same as slots_per_window)
    teacher_slots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError("mask_ratio must lie in (0, 1)")


class BackboneModel:
    """Fresh multi-scale encoder plus per-(branch, level) token classifiers."""

    def __init__(self, cfg: PretrainConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        enc = cfg.encoder
        self.encoder = MultiScaleEncoder(enc, rng, name="backbone")
        self.mask_token = Parameter(0.02 * rng.standard_normal(enc.w), "mask_token")
        self.heads = [[Linear(enc.model_dim, cfg.codebook_size, rng,
                              f"head.s{s}.n{n}", scale=0.01)
                       for n in range(cfg.levels)] for s in range(enc.S)]

    def params(self) -> list[Parameter]:
        out = list(self.encoder.params())
        out.append(self.mask_token)
        for row in self.heads:
            for head in row:
                out.extend(head.params())
        return out

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def forward(self, patches: np.ndarray, channel_idx: np.ndarray,
                slot_idx: np.ndarray, mask: np.ndarray | None = None
                ) -> list[Tensor]:
        """Per-branch (B, P, D) representations; masked patches' branch
        features are replaced by the mask token before embeddings are added."""
        t = ad._as_tensor(patches)
        features = self.encoder.branch_features(t)  # (S, B, P, w)
        if mask is not None:
            keep = Tensor((~mask)[..., None])
            hide = Tensor(mask[..., None])
            token = ad.reshape(self.mask_token.tensor, (1, 1, self.cfg.encoder.w))
            features = ad.add(ad.mul(features, keep), ad.mul(token, hide))
        return self.encoder.forward(t, channel_idx, slot_idx, features=features)

    def logits(self, reps: list[Tensor]) -> list[list[Tensor]]:
        """(B, P, K) logits per (branch, level) head."""
        return [[head(reps[s]) for head in row]
                for s, row in enumerate(self.heads)]


def teacher_tokens(windows: WindowSet, tokenizer: TokenizerModel) -> np.ndarray:
    """Frozen-tokenizer code indices with extents (W, P, S, N)."""
    return np.concatenate([
        tokenizer.token_indices(chunk.patches, chunk.channel_idx, chunk.slot_idx)
        for _, chunk in windows.batches(INFERENCE_BATCH)])


def align_teacher(target: WindowSet, teacher_windows: WindowSet,
                  teacher_idx: np.ndarray) -> np.ndarray:
    """Remap per-patch teacher indices onto a differently windowed layout.

    Patches are matched by (recording, channel row, absolute slot); patches
    of the target layout missing from the teacher layout are a contract
    violation (the teacher windowing must cover the target's patches).
    """
    lookup: dict[tuple[int, int, int], np.ndarray] = {}
    for wi in range(teacher_windows.n_windows):
        for pi in range(teacher_windows.patches.shape[1]):
            key = (int(teacher_windows.rec_idx[wi, pi]),
                   int(teacher_windows.channel_idx[wi, pi]),
                   int(teacher_windows.abs_slot[wi, pi]))
            lookup[key] = teacher_idx[wi, pi]
    W, P = target.patches.shape[:2]
    S, N = teacher_idx.shape[2:]
    out = np.zeros((W, P, S, N), dtype=np.int64)
    for wi in range(W):
        for pi in range(P):
            key = (int(target.rec_idx[wi, pi]), int(target.channel_idx[wi, pi]),
                   int(target.abs_slot[wi, pi]))
            if key not in lookup:
                raise ConfigError(
                    f"teacher windowing does not cover patch {key}")
            out[wi, pi] = lookup[key]
    return out


def check_teacher_compat(tokenizer_cfg_snapshot: dict, cfg: PretrainConfig) -> None:
    """The backbone must agree with the tokenizer on w, S, N and K."""
    want = {"w": cfg.encoder.w, "S": cfg.encoder.S, "levels": cfg.levels,
            "codebook_size": cfg.codebook_size}
    for fieldname, expected in want.items():
        require_field(tokenizer_cfg_snapshot, fieldname, expected)


def _view_loss(backbone: BackboneModel, batch: WindowSet, mask: np.ndarray,
               teacher: np.ndarray) -> tuple[Tensor, float, int, int]:
    """Masked-position cross entropy for one mask view.

    Returns (mean CE over heads and masked positions, correct top-1 count,
    masked position count per head, number of heads).
    """
    reps = backbone.forward(batch.patches, batch.channel_idx, batch.slot_idx,
                            mask=mask)
    m = mask.astype(np.float64)
    n_masked = float(m.sum())
    mask_t = Tensor(m)
    total: Tensor | None = None
    correct = 0
    heads = 0
    for s, row in enumerate(backbone.heads):
        for n, head in enumerate(row):
            logits = head(reps[s])
            labels = teacher[:, :, s, n]
            ce = ad.cross_entropy_logits(logits, labels)  # (B, P)
            masked_ce = ad.div(ad.tsum(ad.mul(ce, mask_t)),
                               Tensor(np.asarray(n_masked)))
            total = masked_ce if total is None else ad.add(total, masked_ce)
            pred_idx = np.argmax(logits.data, axis=-1)
            correct += int(((pred_idx == labels) & mask).sum())
            heads += 1
    mean_ce = ad.mul(Tensor(np.asarray(1.0 / heads)), total)
    return mean_ce, correct, int(n_masked), heads


def pretrain_step(batch: WindowSet, masks: np.ndarray, backbone: BackboneModel,
                  teacher: np.ndarray, lr: float,
                  weight_decay: float | None = None) -> tuple[float, float]:
    """One update over a mask view and its complement; returns (loss, accuracy).

    Loss is the mean over both views of the per-head masked cross entropy;
    accuracy is the fraction of masked top-1 predictions matching the teacher,
    pooled over both views.
    """
    if masks.shape != batch.patches.shape[:2]:
        raise ConfigError(f"mask shape {masks.shape} != batch (W, P) "
                          f"{batch.patches.shape[:2]}")
    wd = backbone.cfg.weight_decay if weight_decay is None else weight_decay
    params = backbone.params()
    with Tape() as tape:
        loss_a, correct_a, masked_a, heads = _view_loss(backbone, batch, masks, teacher)
        loss_b, correct_b, masked_b, _ = _view_loss(backbone, batch, ~masks, teacher)
        total = ad.mul(Tensor(np.asarray(0.5)), ad.add(loss_a, loss_b))
    loss_val = total.item()
    if not math.isfinite(loss_val):
        raise NumericError(f"non-finite pretraining loss: {loss_val}")
    backward(tape, total)
    adamw_step(params, lr=lr, weight_decay=wd)
    backbone.zero_grads()
    acc = (correct_a + correct_b) / (heads * (masked_a + masked_b))
    return loss_val, acc


def masked_metrics(backbone: BackboneModel, windows: WindowSet,
                   teacher: np.ndarray, rho: float, seed: int,
                   batch_size: int = INFERENCE_BATCH) -> tuple[float, float]:
    """(cross entropy, accuracy) at masked positions with seeded masks."""
    rng = np.random.default_rng(seed)
    losses, correct, masked = [], 0, 0
    heads = None
    for idx, chunk in windows.batches(batch_size):
        plans = [make_symmetric_masks(chunk.patches.shape[1], rho, rng)
                 for _ in range(chunk.n_windows)]
        masks = np.stack([p.mask for p in plans])
        loss, c, m, heads = _view_loss(backbone, chunk, masks, teacher[idx])
        losses.append(loss.item() * m)
        correct += c
        masked += m
    return sum(losses) / masked, correct / (heads * masked)


@dataclass
class PretrainResult:
    backbone: BackboneModel
    curves: list[dict]


def pretrain(dataset: list[Recording], cfg: PretrainConfig,
             tokenizer: TokenizerModel) -> PretrainResult:
    """Epoch loop over symmetric-mask views with a cosine schedule."""
    check_teacher_compat(_config_snapshot(tokenizer.cfg), cfg)
    windows = build_windows(dataset, cfg.encoder.w, cfg.slots_per_window)
    train_set, val_set = windows.train, windows.val
    if train_set.n_windows == 0:
        raise ConfigError("no training windows after the validation split")
    backbone = BackboneModel(cfg, seed=cfg.seed)
    t_slots = cfg.teacher_slots or cfg.slots_per_window
    if t_slots == cfg.slots_per_window:
        teacher_train = teacher_tokens(train_set, tokenizer)
        teacher_val = teacher_tokens(val_set, tokenizer) if val_set.n_windows else None
    else:
        tw = build_windows(dataset, cfg.encoder.w, t_slots)
        t_idx = teacher_tokens(tw, tokenizer)
        teacher_train = align_teacher(train_set, tw, t_idx)
        teacher_val = (align_teacher(val_set, tw, t_idx)
                       if val_set.n_windows else None)
    steps_per_epoch = math.ceil(train_set.n_windows / cfg.batch_size)
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    rng = np.random.default_rng(cfg.seed + 1)
    curves: list[dict] = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(train_set.n_windows)
        ep_loss, ep_acc, n_batches = 0.0, 0.0, 0
        for idx, batch in train_set.batches(cfg.batch_size, order):
            plans = [make_symmetric_masks(batch.patches.shape[1], cfg.mask_ratio, rng)
                     for _ in range(batch.n_windows)]
            masks = np.stack([p.mask for p in plans])
            lr = cosine_warmup_lr(step, total_steps, warmup_steps,
                                  cfg.base_lr, cfg.min_lr)
            loss, acc = pretrain_step(batch, masks, backbone,
                                      teacher_train[idx], lr)
            ep_loss += loss
            ep_acc += acc
            n_batches += 1
            step += 1
        curves.append({"epoch": epoch, "split": "train",
                       "ce_loss": ep_loss / n_batches,
                       "masked_acc": ep_acc / n_batches})
        if teacher_val is not None:
            ce, acc = masked_metrics(backbone, val_set, teacher_val,
                                     cfg.mask_ratio, seed=cfg.seed + 7)
            curves.append({"epoch": epoch, "split": "val",
                           "ce_loss": ce, "masked_acc": acc})
    return PretrainResult(backbone, curves)


def extract_features(backbone: BackboneModel, windows: WindowSet,
                     batch_size: int = INFERENCE_BATCH) -> np.ndarray:
    """Unmasked per-patch embeddings: the S branch representations
    concatenated in branch order, extents (n_patches, S * D).

    Pretraining keeps the branches apart (each stream feeds only its own
    token heads), so nothing trains a fused view; keeping every stream is
    what preserves the per-band information.
    """
    rows = []
    for _, chunk in windows.batches(batch_size):
        reps = backbone.forward(chunk.patches, chunk.channel_idx, chunk.slot_idx)
        joined = np.concatenate([r.data for r in reps], axis=-1)  # (B, P, S*D)
        rows.append(joined.reshape(-1, joined.shape[-1]))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# synthetic downstream probe


def probe_corpus(n_per_class: int, channels: int, sample_rate: float,
                 duration: float, seed: int) -> tuple[list[Recording], np.ndarray]:
    """Alpha-dominant vs beta-dominant recordings with binary labels."""
    from .signals import SynthSpec, synth_generate

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
                     labels: np.ndarray, slots_per_window: int = 2,
                     train_fraction: float = 0.75, ridge: float = 1e-2
                     ) -> dict[str, float]:
    """Ridge-regression probe on recording-averaged features.

    Windows of ``slots_per_window`` slots (the backbone's pretraining window
    length) are embedded by :func:`extract_features` and averaged per
    recording; :func:`fit_linear_probe` does the split and the fit.
    """
    w = backbone.cfg.encoder.w
    feats = []
    for rec in recordings:
        wins = build_windows([rec], w, slots_per_window, val_fraction=0.0)
        feats.append(extract_features(backbone, wins).mean(axis=0))
    return fit_linear_probe(np.vstack(feats), labels, train_fraction, ridge)


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


def _backbone_snapshot(cfg: PretrainConfig) -> dict:
    return {**encoder_snapshot(cfg.encoder), "levels": cfg.levels,
            "codebook_size": cfg.codebook_size, "mask_ratio": cfg.mask_ratio,
            "slots_per_window": cfg.slots_per_window}


def save_backbone(backbone: BackboneModel, path) -> None:
    arrays = {f"param.{p.name}": p.data for p in backbone.params()}
    save_arrays(path, "backbone", _backbone_snapshot(backbone.cfg), arrays)


def load_backbone(path) -> BackboneModel:
    kind, snap, arrays = load_arrays(path)
    if kind != "backbone":
        raise CompatibilityError(f"checkpoint kind {kind!r}, expected 'backbone'")
    if "slots_per_window" not in snap:
        raise CompatibilityError("checkpoint missing config field 'slots_per_window'")
    cfg = PretrainConfig(encoder=encoder_from_snapshot(snap), levels=snap["levels"],
                         codebook_size=snap["codebook_size"],
                         mask_ratio=snap["mask_ratio"],
                         slots_per_window=snap["slots_per_window"])
    backbone = BackboneModel(cfg, seed=0)
    restore_params(backbone.params(), arrays)
    return backbone
