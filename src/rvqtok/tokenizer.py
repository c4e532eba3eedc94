"""Tokenizer assembly and training: encoder -> per-branch RVQ -> decoder ->
spectral heads, optimized with the composite reconstruction objective plus
the commitment loss, with EMA codebook learning.

Recordings are cut into windows of ``slots_per_window`` consecutive slots
across all channels; one window (P = C x slots patches) is one attention
context.  Slot embeddings index within the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .checkpoint import load_arrays, require_field, restore_params, save_arrays
from .encoder import (EncoderConfig, Linear, MultiScaleEncoder, TransformerStack,
                      encoder_from_snapshot, encoder_snapshot)
from .errors import CompatibilityError, ConfigError, NumericError
from .optim import Parameter, adamw_step, clip_global_norm, cosine_warmup_lr
from .rvq import (RVQStack, TokenAssignment, begin_epoch, end_epoch_reinit,
                  ema_update, kmeans_init_stack, quantization_loss)
from .signals import Recording, bandpass, STANDARD_BANDS
from .spectral import (LossWeights, PhasePrediction, forward_spectrum,
                       inverse_spectrum, tokenizer_loss)


@dataclass
class TokenizerConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    levels: int = 4            # codebooks per stack
    codebook_size: int = 256   # entries per codebook
    code_dim: int = 32
    decoder_depth: int = 1
    commitment_beta: float = 0.25
    ema_decay: float = 0.99
    lambda_circle: float = 0.4
    fusion: str = "sum"        # or "concat"

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if self.fusion not in ("sum", "concat"):
            raise ConfigError(f"fusion must be 'sum' or 'concat', got {self.fusion!r}")

    @property
    def n_bins(self) -> int:
        return self.encoder.w // 2 + 1

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda_circle=self.lambda_circle)


class TokenizerModel:
    """Encoder, one RVQ stack per branch, decoder transformer, three heads."""

    def __init__(self, cfg: TokenizerConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        enc = cfg.encoder
        self.encoder = MultiScaleEncoder(enc, rng)
        self.stacks = [RVQStack.create(enc.model_dim, cfg.code_dim, cfg.levels,
                                       cfg.codebook_size, rng, name=f"rvq{s}")
                       for s in range(enc.S)]
        self.fuse_proj = (Linear(enc.S * enc.model_dim, enc.model_dim, rng, "fuse")
                          if cfg.fusion == "concat" else None)
        self.decoder = TransformerStack(enc, cfg.decoder_depth, rng, "decoder")
        nb = cfg.n_bins
        self.head_log_amp = Linear(enc.model_dim, nb, rng, "head.log_amp", scale=0.02)
        self.head_sin = Linear(enc.model_dim, nb, rng, "head.sin", scale=0.02)
        self.head_cos = Linear(enc.model_dim, nb, rng, "head.cos", scale=0.02)
        # start phase predictions on the unit circle at angle zero
        self.head_cos.b.tensor.data = np.ones(nb)

    def params(self) -> list[Parameter]:
        out = list(self.encoder.params())
        for stack in self.stacks:
            out.extend([stack.down_proj, stack.up_proj])
        if self.fuse_proj is not None:
            out.extend(self.fuse_proj.params())
        out.extend(self.decoder.params())
        for head in (self.head_log_amp, self.head_sin, self.head_cos):
            out.extend(head.params())
        return out

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    # ------------------------------------------------------------------
    def quantize_branches(self, reps: list[Tensor],
                          forced: list[np.ndarray] | None = None,
                          identity_codes: bool = False
                          ) -> tuple[list[Tensor], list[TokenAssignment], Tensor | None]:
        """Quantize per-branch (B, P, D) reps through their stacks.

        Returns the straight-through quantized reps (up-projected), the raw
        assignments, and the commitment loss averaged over the stacks.
        ``identity_codes`` routes the code-space input through unchanged (the
        straight-through fixed point, where its estimator is exact);
        finite-difference checks of the composed loss use this together with
        ``forced`` assignments.
        """
        quantized: list[Tensor] = []
        assigns: list[TokenAssignment] = []
        lq_total: Tensor | None = None
        beta = self.cfg.commitment_beta / len(self.stacks)
        for s, (rep, stack) in enumerate(zip(reps, self.stacks)):
            B, P, D = rep.shape
            flat = ad.reshape(rep, (B * P, D))
            p_code = ad.linear(flat, stack.down_proj.tensor)
            assign = stack.quantize_codes(p_code.data,
                                          forced[s] if forced is not None else None)
            assigns.append(assign)
            lq = quantization_loss(p_code, assign.codewords, beta)
            lq_total = lq if lq_total is None else ad.add(lq_total, lq)
            target_codes = (p_code.data.copy() if identity_codes
                            else assign.reconstruction)
            st = ad.straight_through(p_code, Tensor(target_codes))
            up = ad.linear(st, stack.up_proj.tensor)
            quantized.append(ad.reshape(up, (B, P, D)))
        return quantized, assigns, lq_total

    def decode(self, quantized: list[Tensor]) -> PhasePrediction:
        """Fuse branch representations, decode, and emit the three heads."""
        if self.cfg.fusion == "concat":
            fused = self.fuse_proj(ad.concat(quantized, axis=-1))
        else:
            fused = quantized[0]
            for q in quantized[1:]:
                fused = ad.add(fused, q)
        h = self.decoder(fused)
        return PhasePrediction(self.head_log_amp(h), self.head_sin(h),
                               self.head_cos(h))

    def forward(self, patches: np.ndarray, channel_idx: np.ndarray,
                slot_idx: np.ndarray) -> tuple[PhasePrediction, list[TokenAssignment], Tensor | None]:
        """Full tokenizer pass over a (B, P, w) window batch."""
        reps = self.encoder.forward(patches, channel_idx, slot_idx)
        quantized, assigns, lq = self.quantize_branches(reps)
        return self.decode(quantized), assigns, lq

    def reconstruct(self, patches: np.ndarray, channel_idx: np.ndarray,
                    slot_idx: np.ndarray) -> np.ndarray:
        """Reconstructed waveforms (B, P, w), no gradient tracking."""
        pred, _, _ = self.forward(patches, channel_idx, slot_idx)
        return inverse_spectrum(pred, patch_length=self.cfg.encoder.w)

    def token_indices(self, patches: np.ndarray, channel_idx: np.ndarray,
                      slot_idx: np.ndarray) -> np.ndarray:
        """Code indices with extents (B, P, S, N)."""
        B, P, _ = patches.shape
        reps = self.encoder.forward(patches, channel_idx, slot_idx)
        _, assigns, _ = self.quantize_branches(reps)
        out = np.stack([a.indices.reshape(B, P, -1) for a in assigns], axis=2)
        return out


# ---------------------------------------------------------------------------
# windowing

#: Windows per batch where no gradient is taken (tokenizing, reconstruction,
#: evaluation, feature extraction).
INFERENCE_BATCH = 32


@dataclass
class WindowSet:
    """All fixed-size windows cut from a corpus, with provenance."""

    patches: np.ndarray      # (W, P, w)
    channel_idx: np.ndarray  # (W, P) global electrode rows
    slot_idx: np.ndarray     # (W, P) slot within window
    rec_idx: np.ndarray      # (W, P) source recording
    abs_slot: np.ndarray     # (W, P) slot within recording
    val_mask: np.ndarray     # (W,) True for validation windows

    @property
    def n_windows(self) -> int:
        return self.patches.shape[0]

    def subset(self, mask: np.ndarray) -> "WindowSet":
        return WindowSet(self.patches[mask], self.channel_idx[mask],
                         self.slot_idx[mask], self.rec_idx[mask],
                         self.abs_slot[mask], self.val_mask[mask])

    def batches(self, batch_size: int, order: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, "WindowSet"]]:
        """Yield (window indices, subset) per batch of ``batch_size`` windows.

        Batches run over the windows in index order, or take consecutive
        slices of the permutation ``order``; the windows of one batch stay
        in ascending index order either way.  Every window lands in exactly
        one batch, and the last batch may be short.
        """
        if order is None:
            order = np.arange(self.n_windows)
        for lo in range(0, self.n_windows, batch_size):
            idx = np.sort(order[lo:lo + batch_size])
            yield idx, self.subset(idx)

    @property
    def train(self) -> "WindowSet":
        return self.subset(~self.val_mask)

    @property
    def val(self) -> "WindowSet":
        return self.subset(self.val_mask)


def build_windows(recordings: list[Recording], w: int, slots_per_window: int,
                  val_fraction: float = 0.1) -> WindowSet:
    """Cut recordings into (C x slots_per_window)-patch windows.

    The last ~val_fraction of each recording's slots form the validation
    split (fixed rule, reproducible).  All recordings must share a channel
    count; channel rows index recording channels in order of appearance
    across the corpus.
    """
    if not recordings:
        raise ConfigError("empty dataset")
    n_ch = recordings[0].n_channels
    electrodes: list[str] = []
    for rec in recordings:
        if rec.n_channels != n_ch:
            raise ConfigError("recordings disagree on channel count")
        for name in rec.channels:
            if name not in electrodes:
                electrodes.append(name)
    blocks = {k: [] for k in ("patches", "channel_idx", "slot_idx",
                              "rec_idx", "abs_slot", "val")}
    for r, rec in enumerate(recordings):
        total_slots = rec.n_samples // w
        n_win = total_slots // slots_per_window
        if n_win == 0:
            raise ConfigError(
                f"recording {r} too short for one window of {slots_per_window} slots")
        val_start = math.ceil((1.0 - val_fraction) * total_slots)
        chan_rows = np.array([electrodes.index(c) for c in rec.channels])
        data = rec.data[:, :n_win * slots_per_window * w].reshape(
            n_ch, n_win, slots_per_window, w)
        for wi in range(n_win):
            patches = data[:, wi].reshape(n_ch * slots_per_window, w)
            blocks["patches"].append(patches)
            blocks["channel_idx"].append(np.repeat(chan_rows, slots_per_window))
            blocks["slot_idx"].append(np.tile(np.arange(slots_per_window), n_ch))
            abs_slots = wi * slots_per_window + np.arange(slots_per_window)
            blocks["abs_slot"].append(np.tile(abs_slots, n_ch))
            blocks["rec_idx"].append(np.full(n_ch * slots_per_window, r))
            blocks["val"].append(abs_slots[0] >= val_start)
    return WindowSet(np.stack(blocks["patches"]),
                     np.stack(blocks["channel_idx"]),
                     np.stack(blocks["slot_idx"]),
                     np.stack(blocks["rec_idx"]),
                     np.stack(blocks["abs_slot"]),
                     np.asarray(blocks["val"], dtype=bool))


# ---------------------------------------------------------------------------
# training

#: Global gradient-norm ceiling applied before every tokenizer update.
CLIP_NORM = 3.0


@dataclass
class TrainState:
    total_steps: int
    warmup_steps: int
    base_lr: float = 1e-3
    min_lr: float = 1e-5
    weight_decay: float = 1e-4
    step: int = 0

    def lr(self) -> float:
        return cosine_warmup_lr(self.step, self.total_steps, self.warmup_steps,
                                self.base_lr, self.min_lr)


@dataclass
class BandReport:
    """Per-band reconstruction MSE for one evaluation split."""

    split: str
    mse: dict[str, float]     # keys: raw plus the band names
    patches: int

    def rows(self) -> list[tuple[str, str, float, int]]:
        return [(self.split, band, self.mse[band], self.patches)
                for band in self.mse]


def train_step(batch: WindowSet, model: TokenizerModel, state: TrainState
               ) -> dict[str, float]:
    """One optimizer update; returns the per-term loss breakdown."""
    params = model.params()
    with Tape() as tape:
        pred, assigns, lq = model.forward(batch.patches, batch.channel_idx,
                                          batch.slot_idx)
        target = forward_spectrum(batch.patches)
        total, parts = tokenizer_loss(pred, target, batch.patches,
                                      model.cfg.loss_weights())
        parts["lq"] = lq.item()
        total = ad.add(total, lq)
        parts["total"] = total.item()
    if not math.isfinite(parts["total"]):
        raise NumericError(f"non-finite loss at step {state.step}: {parts}")
    backward(tape, total)
    clip_global_norm(params, CLIP_NORM)
    adamw_step(params, lr=state.lr(), weight_decay=state.weight_decay)
    model.zero_grads()
    for stack, assign in zip(model.stacks, assigns):
        for i, book in enumerate(stack.codebooks):
            ema_update(book, assign.indices[:, i], assign.level_inputs[i],
                       model.cfg.ema_decay)
    state.step += 1
    return parts


def evaluate(model: TokenizerModel, windows: WindowSet,
             batch_size: int = INFERENCE_BATCH) -> dict[str, float]:
    """Loss terms plus raw reconstruction MSE over a window set (no grads)."""
    if windows.n_windows == 0:
        raise ConfigError("cannot evaluate on an empty window set")
    sums: dict[str, float] = {}
    total_raw = 0.0
    n = 0
    for _, chunk in windows.batches(batch_size):
        pred, _, lq = model.forward(chunk.patches, chunk.channel_idx, chunk.slot_idx)
        target = forward_spectrum(chunk.patches)
        _, parts = tokenizer_loss(pred, target, chunk.patches,
                                  model.cfg.loss_weights())
        parts["lq"] = lq.item()
        parts["total"] += parts["lq"]
        recon = inverse_spectrum(pred, patch_length=model.cfg.encoder.w)
        raw = float(np.mean((recon - chunk.patches) ** 2))
        k = chunk.n_windows
        for key, v in parts.items():
            sums[key] = sums.get(key, 0.0) + v * k
        total_raw += raw * k
        n += k
    out = {key: v / n for key, v in sums.items()}
    out["raw_mse"] = total_raw / n
    return out


def train_tokenizer(dataset: list[Recording], cfg: TokenizerConfig,
                    epochs: int, slots_per_window: int = 2, batch_size: int = 8,
                    base_lr: float = 1e-3, min_lr: float = 1e-5,
                    weight_decay: float = 1e-4, warmup_epochs: int = 1,
                    seed: int = 0) -> tuple[TokenizerModel, list[dict]]:
    """Epoch loop with seeded shuffling and per-epoch validation curves.

    Returns the trained model and curve rows (one dict per epoch and split).
    """
    if not dataset:
        raise ConfigError("empty dataset")
    windows = build_windows(dataset, cfg.encoder.w, slots_per_window)
    train_set, val_set = windows.train, windows.val
    if train_set.n_windows == 0:
        raise ConfigError("no training windows after the validation split")
    model = TokenizerModel(cfg, seed=seed)
    steps_per_epoch = math.ceil(train_set.n_windows / batch_size)
    state = TrainState(total_steps=max(1, epochs * steps_per_epoch),
                       warmup_steps=warmup_epochs * steps_per_epoch,
                       base_lr=base_lr, min_lr=min_lr,
                       weight_decay=weight_decay)
    curves: list[dict] = []
    if epochs == 0:
        return model, curves
    rng = np.random.default_rng(seed + 1)

    # codebooks start as k-means over leading windows' code-space inputs
    P = train_set.patches.shape[1]
    n_init = min(train_set.n_windows,
                 max(batch_size, math.ceil(2 * cfg.codebook_size / P)))
    first = train_set.subset(np.arange(train_set.n_windows) < n_init)
    if first.n_windows * P >= cfg.codebook_size:
        reps = model.encoder.forward(first.patches, first.channel_idx,
                                     first.slot_idx)
        for s, stack in enumerate(model.stacks):
            flat = reps[s].data.reshape(-1, reps[s].shape[-1])
            kmeans_init_stack(stack, flat @ stack.down_proj.data, iters=8,
                              rng=np.random.default_rng(seed + 10 + s))

    for epoch in range(1, epochs + 1):
        for stack in model.stacks:
            for book in stack.codebooks:
                begin_epoch(book)
        order = rng.permutation(train_set.n_windows)
        train_sums: dict[str, float] = {}
        n_batches = 0
        for _, batch in train_set.batches(batch_size, order):
            parts = train_step(batch, model, state)
            n_batches += 1
            for key, v in parts.items():
                train_sums[key] = train_sums.get(key, 0.0) + v
        row = {"epoch": epoch, "split": "train"}
        row.update({k: v / n_batches for k, v in train_sums.items()})
        row["raw_mse"] = float("nan")
        curves.append(row)
        if val_set.n_windows:
            val_metrics = evaluate(model, val_set, batch_size)
            vrow = {"epoch": epoch, "split": "val"}
            vrow.update(val_metrics)
            curves.append(vrow)
        # dead codes reseed from each level's own recent-input reservoir
        for stack in model.stacks:
            for book in stack.codebooks:
                end_epoch_reinit(book, rng=rng)
    return model, curves


# ---------------------------------------------------------------------------
# evaluation


def eval_per_band(model: TokenizerModel, recordings: list[Recording],
                  bands=STANDARD_BANDS, split: str = "validation",
                  slots_per_window: int = 2, windows: WindowSet | None = None
                  ) -> BandReport:
    """Reconstruct and report raw plus per-band MSE.

    Band MSE is measured on the central half of each patch (filter edge
    exclusion); the raw MSE covers the full patch.
    """
    if windows is None:
        all_windows = build_windows(recordings, model.cfg.encoder.w,
                                    slots_per_window)
        windows = all_windows.val if split == "validation" and \
            all_windows.val.n_windows else all_windows
    w = model.cfg.encoder.w
    rate = recordings[0].sample_rate if recordings else None
    if rate is None:
        raise ConfigError("eval_per_band needs at least one recording")
    x = windows.patches.reshape(-1, w)
    recon = np.concatenate([
        model.reconstruct(c.patches, c.channel_idx, c.slot_idx).reshape(-1, w)
        for _, c in windows.batches(INFERENCE_BATCH)])
    mid = slice(w // 4, 3 * w // 4)
    report = {"raw": float(np.mean((recon - x) ** 2))}
    for band in bands:
        bx = bandpass(x, band, rate)
        br = bandpass(recon, band, rate)
        report[band.name] = float(np.mean((br[:, mid] - bx[:, mid]) ** 2))
    return BandReport(split, report, x.shape[0])


# ---------------------------------------------------------------------------
# checkpointing


def _config_snapshot(cfg: TokenizerConfig) -> dict:
    return {
        **encoder_snapshot(cfg.encoder),
        "levels": cfg.levels, "codebook_size": cfg.codebook_size,
        "code_dim": cfg.code_dim, "decoder_depth": cfg.decoder_depth,
        "commitment_beta": cfg.commitment_beta, "ema_decay": cfg.ema_decay,
        "lambda_circle": cfg.lambda_circle, "fusion": cfg.fusion,
    }


def config_from_snapshot(snap: dict) -> TokenizerConfig:
    return TokenizerConfig(encoder=encoder_from_snapshot(snap), levels=snap["levels"],
                           codebook_size=snap["codebook_size"],
                           code_dim=snap["code_dim"],
                           decoder_depth=snap["decoder_depth"],
                           commitment_beta=snap["commitment_beta"],
                           ema_decay=snap["ema_decay"],
                           lambda_circle=snap["lambda_circle"],
                           fusion=snap["fusion"])


def save_tokenizer(model: TokenizerModel, path) -> None:
    arrays: dict[str, np.ndarray] = {}
    for p in model.params():
        arrays[f"param.{p.name}"] = p.data
    for s, stack in enumerate(model.stacks):
        for i, book in enumerate(stack.codebooks):
            arrays[f"codebook.{s}.{i}.entries"] = book.entries
            arrays[f"codebook.{s}.{i}.ema_size"] = book.ema_size
            arrays[f"codebook.{s}.{i}.ema_sum"] = book.ema_sum
    save_arrays(path, "tokenizer", _config_snapshot(model.cfg), arrays)


def load_tokenizer(path, expected: TokenizerConfig | None = None) -> TokenizerModel:
    kind, snap, arrays = load_arrays(path)
    if kind != "tokenizer":
        raise CompatibilityError(f"checkpoint kind {kind!r}, expected 'tokenizer'")
    if expected is not None:
        want = _config_snapshot(expected)
        for fieldname in ("w", "S", "levels", "codebook_size", "code_dim",
                          "model_dim"):
            require_field(snap, fieldname, want[fieldname])
    cfg = config_from_snapshot(snap)
    model = TokenizerModel(cfg, seed=0)
    restore_params(model.params(), arrays)
    for s, stack in enumerate(model.stacks):
        for i, book in enumerate(stack.codebooks):
            book.entries = arrays[f"codebook.{s}.{i}.entries"].astype(np.float64)
            book.ema_size = arrays[f"codebook.{s}.{i}.ema_size"].astype(np.float64)
            book.ema_sum = arrays[f"codebook.{s}.{i}.ema_sum"].astype(np.float64)
    return model
