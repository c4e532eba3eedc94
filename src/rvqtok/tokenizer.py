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
from typing import ClassVar, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .checkpoint import (ZeroDraws, config_from_header, config_header, require_fields,
                         restore, save_arrays)
from .encoder import EncoderConfig, Linear, MultiScaleEncoder, TransformerStack
from .errors import ConfigError, NumericError
from .optim import Module, adamw_step, clip_global_norm, cosine_warmup_lr
from .rvq import (RVQStack, TokenAssignment, begin_epoch, end_epoch_reinit,
                  ema_update, kmeans_init_stack, quantization_loss)
from .signals import Recording, bandpass
from .spectral import (PhasePrediction, forward_spectrum, inverse_spectrum,
                       tokenizer_loss)


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
    #: what a checkpoint header stores beside the encoder's fields
    HEADER_FIELDS: ClassVar[tuple[str, ...]] = (
        "levels", "codebook_size", "code_dim", "decoder_depth",
        "commitment_beta", "ema_decay", "lambda_circle")

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if self.lambda_circle < 0:
            raise ConfigError("lambda_circle must be non-negative")

    @property
    def n_bins(self) -> int:
        return self.encoder.w // 2 + 1


class TokenizerModel(Module):
    """Encoder, one RVQ stack per branch, decoder transformer, three heads.

    Weights and codebooks are drawn from ``seed``, or from ``rng`` when one
    is given (a checkpoint load passes ``ZeroDraws``).
    """

    def __init__(self, cfg: TokenizerConfig, seed: int = 0, rng=None):
        self.cfg = cfg
        rng = np.random.default_rng(seed) if rng is None else rng
        enc = cfg.encoder
        self.encoder = MultiScaleEncoder(enc, rng)
        self.stacks = [RVQStack.create(enc.model_dim, cfg.code_dim, cfg.levels,
                                       cfg.codebook_size, rng, name=f"rvq{s}")
                       for s in range(enc.S)]
        self.decoder = TransformerStack(enc, cfg.decoder_depth, rng, "decoder")
        nb = cfg.n_bins
        self.head_log_amp = Linear(enc.model_dim, nb, rng, "head.log_amp", scale=0.02)
        self.head_sin = Linear(enc.model_dim, nb, rng, "head.sin", scale=0.02)
        self.head_cos = Linear(enc.model_dim, nb, rng, "head.cos", scale=0.02)
        # start phase predictions on the unit circle at angle zero
        self.head_cos.b.tensor.data = np.ones(nb)

    # ------------------------------------------------------------------
    def search_branches(self, reps: list[Tensor], forced: list[np.ndarray] | None = None
                        ) -> tuple[list[Tensor], list[TokenAssignment]]:
        """Down-project per-branch (B, P, D) reps into code space and search
        each branch's stack: the code-space inputs and the assignments.

        Each stack searches only its own books, so the S searches run
        through ``ad.parallel_map``.  ``forced`` assignments replace them.
        """
        p_codes = [ad.linear(ad.reshape(rep, (-1, rep.shape[-1])), stack.down_proj.tensor)
                   for rep, stack in zip(reps, self.stacks)]
        codes = forced if forced is not None else [None] * len(self.stacks)
        assigns = ad.parallel_map(
            lambda s: self.stacks[s].quantize_codes(p_codes[s].data, codes[s]),
            range(len(self.stacks)))
        return p_codes, assigns

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
        lq_total: Tensor | None = None
        beta = self.cfg.commitment_beta / len(self.stacks)
        p_codes, assigns = self.search_branches(reps, forced)
        for rep, stack, p_code, assign in zip(reps, self.stacks, p_codes, assigns):
            lq = quantization_loss(p_code, assign.codewords, beta)
            lq_total = lq if lq_total is None else ad.add(lq_total, lq)
            target_codes = (p_code.data.copy() if identity_codes
                            else assign.reconstruction)
            st = ad.straight_through(p_code, Tensor(target_codes))
            up = ad.linear(st, stack.up_proj.tensor)
            quantized.append(ad.reshape(up, rep.shape))
        return quantized, assigns, lq_total

    def decode(self, quantized: list[Tensor]) -> PhasePrediction:
        """Sum the branch representations, decode, and emit the three heads."""
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
        """Code indices with extents (B, P, S, N): the searches alone, without
        the commitment loss or the up-projections."""
        B, P, _ = patches.shape
        reps = self.encoder.forward(patches, channel_idx, slot_idx)
        _, assigns = self.search_branches(reps)
        return np.stack([a.indices.reshape(B, P, -1) for a in assigns], axis=2)


# ---------------------------------------------------------------------------
# windowing

#: Windows per batch where no gradient is taken (tokenizing, reconstruction,
#: evaluation, feature extraction).
INFERENCE_BATCH = 32


@dataclass
class WindowSet:
    """All fixed-size windows cut from a corpus, with each patch's electrode
    row and slot and each window's split."""

    patches: np.ndarray      # (W, P, w)
    channel_idx: np.ndarray  # (W, P) global electrode rows
    slot_idx: np.ndarray     # (W, P) slot within window
    val_mask: np.ndarray     # (W,) True for validation windows

    @property
    def n_windows(self) -> int:
        return self.patches.shape[0]

    def subset(self, mask: np.ndarray) -> "WindowSet":
        return WindowSet(self.patches[mask], self.channel_idx[mask],
                         self.slot_idx[mask], self.val_mask[mask])

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

    def schedule(self, epochs: int, batch_size: int, rng: np.random.Generator, *,
                 base_lr: float, min_lr: float, warmup_epochs: int
                 ) -> Iterator[tuple[int, Iterator[tuple[np.ndarray, "WindowSet", float]]]]:
        """The training schedule: per epoch, from 1, the epoch number and its
        batches, each as (window indices, subset, learning rate).

        Each epoch's order is a permutation drawn from ``rng`` as the epoch
        starts, after the previous epoch's body has run, and its batches are
        cut one at a time by ``batches``.  The rate follows
        ``cosine_warmup_lr`` over all epochs' steps, warming up over the
        first ``warmup_epochs``.
        """
        per_epoch = math.ceil(self.n_windows / batch_size)
        total, warmup = max(1, epochs * per_epoch), warmup_epochs * per_epoch
        for epoch in range(epochs):
            order = rng.permutation(self.n_windows)
            yield epoch + 1, (
                (idx, batch, cosine_warmup_lr(step, total, warmup, base_lr, min_lr))
                for step, (idx, batch) in enumerate(self.batches(batch_size, order),
                                                    epoch * per_epoch))

    @property
    def train(self) -> "WindowSet":
        return self.subset(~self.val_mask)

    @property
    def val(self) -> "WindowSet":
        return self.subset(self.val_mask)


def build_windows(recordings: list[Recording], w: int, slots_per_window: int,
                  val_fraction: float = 0.1) -> WindowSet:
    """Cut recordings into (C x slots_per_window)-patch windows.

    This is the one place a recording becomes patches: a patch is one
    channel over one w-sample slot, a trailing remainder shorter than a
    window is dropped, and patches within a window run channel-major over
    (channel, slot).  The last ~val_fraction of each recording's slots form
    the validation split (fixed rule, reproducible).  All recordings must
    share a channel count; channel rows index recording channels in order
    of appearance across the corpus.
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
    cuts, n_wins, val_starts, chan_rows = [], [], [], []
    for r, rec in enumerate(recordings):
        total_slots = rec.n_samples // w
        n_win = total_slots // slots_per_window
        if n_win == 0:
            raise ConfigError(
                f"recording {r} too short for one window of {slots_per_window} slots")
        # (C, n_win, slots, w) -> (n_win, C, slots, w): windows lead, channel-major
        cuts.append(rec.data[:, :n_win * slots_per_window * w].reshape(
            n_ch, n_win, slots_per_window, w).swapaxes(0, 1))
        n_wins.append(n_win)
        val_starts.append(math.ceil((1.0 - val_fraction) * total_slots))
        chan_rows.append([electrodes.index(c) for c in rec.channels])
    patches = np.concatenate(cuts).reshape(-1, n_ch * slots_per_window, w)
    W = patches.shape[0]
    rec_of = np.repeat(np.arange(len(recordings)), n_wins)                # (W,)
    start = np.concatenate([np.arange(n) for n in n_wins]) * slots_per_window
    slot_idx = np.tile(np.arange(slots_per_window), n_ch)                 # (P,)
    return WindowSet(patches,
                     np.repeat(np.array(chan_rows)[rec_of], slots_per_window, axis=1),
                     np.tile(slot_idx, (W, 1)),
                     start >= np.array(val_starts)[rec_of])


# ---------------------------------------------------------------------------
# training

#: Global gradient-norm ceiling applied before every tokenizer update.
CLIP_NORM = 3.0


@dataclass
class BandReport:
    """Per-band reconstruction MSE for one evaluation split."""

    split: str
    mse: dict[str, float]     # keys: raw plus the band names
    patches: int

    def rows(self) -> list[tuple[str, str, float, int]]:
        return [(self.split, band, self.mse[band], self.patches)
                for band in self.mse]


def _loss(model: TokenizerModel, batch: WindowSet
          ) -> tuple[Tensor, dict[str, float], list[TokenAssignment]]:
    """The objective on one batch: the reconstruction loss plus the
    commitment loss, its per-term breakdown, and the assignments."""
    pred, assigns, lq = model.forward(batch.patches, batch.channel_idx,
                                      batch.slot_idx)
    target = forward_spectrum(batch.patches)
    total, parts = tokenizer_loss(pred, target, batch.patches,
                                  model.cfg.lambda_circle)
    parts["lq"] = lq.item()
    total = ad.add(total, lq)
    parts["total"] = total.item()
    return total, parts, assigns


def train_step(batch: WindowSet, model: TokenizerModel, lr: float,
               weight_decay: float) -> dict[str, float]:
    """One optimizer update; returns the per-term loss breakdown."""
    params = model.params()
    with Tape() as tape:
        total, parts, assigns = _loss(model, batch)
    if not math.isfinite(parts["total"]):
        raise NumericError(f"non-finite tokenizer loss: {parts}")
    backward(tape, total)
    clip_global_norm(params, CLIP_NORM)
    adamw_step(params, lr=lr, weight_decay=weight_decay)
    for p in params:
        p.zero_grad()
    for stack, assign in zip(model.stacks, assigns):
        for i, book in enumerate(stack.codebooks):
            ema_update(book, assign.indices[:, i], assign.level_inputs[i],
                       model.cfg.ema_decay)
    return parts


def evaluate(model: TokenizerModel, windows: WindowSet,
             batch_size: int = INFERENCE_BATCH) -> dict[str, float]:
    """Loss terms plus raw reconstruction MSE over a window set (no grads).

    ``raw_mse`` is the temporal term: the mean square of the reconstruction
    error, averaged over windows.
    """
    if windows.n_windows == 0:
        raise ConfigError("cannot evaluate on an empty window set")
    sums: dict[str, float] = {}
    n = 0
    for _, chunk in windows.batches(batch_size):
        _, parts, _ = _loss(model, chunk)
        k = chunk.n_windows
        for key, v in parts.items():
            sums[key] = sums.get(key, 0.0) + v * k
        n += k
    out = {key: v / n for key, v in sums.items()}
    out["raw_mse"] = out["temporal"]
    return out


def seed_codebooks(model: TokenizerModel, train_set: WindowSet,
                   batch_size: int, seed: int) -> None:
    """Seed every codebook by k-means over the code-space inputs of the
    leading training windows, about 2K rows and at least one batch; with
    fewer than K rows the books keep their random draws.  The set-up arrays
    are freed on return."""
    K = model.cfg.codebook_size
    P = train_set.patches.shape[1]
    n_init = min(train_set.n_windows, max(batch_size, math.ceil(2 * K / P)))
    if n_init * P < K:
        return
    first = train_set.subset(np.arange(train_set.n_windows) < n_init)
    reps = model.encoder.forward(first.patches, first.channel_idx,
                                 first.slot_idx)
    for s, stack in enumerate(model.stacks):
        flat = reps[s].data.reshape(-1, reps[s].shape[-1])
        kmeans_init_stack(stack, flat @ stack.down_proj.data, iters=8,
                          rng=np.random.default_rng(seed + 10 + s))


def train_tokenizer(dataset: list[Recording], cfg: TokenizerConfig,
                    epochs: int, *, slots_per_window: int, batch_size: int,
                    base_lr: float, min_lr: float, weight_decay: float,
                    warmup_epochs: int,
                    seed: int) -> tuple[TokenizerModel, list[dict]]:
    """Epoch loop with seeded shuffling and per-epoch validation curves.

    Returns the trained model and curve rows (one dict per epoch and split).
    """
    windows = build_windows(dataset, cfg.encoder.w, slots_per_window)
    train_set, val_set = windows.train, windows.val
    del windows  # the splits hold their own copies of the patches
    if train_set.n_windows == 0:
        raise ConfigError("no training windows after the validation split")
    model = TokenizerModel(cfg, seed=seed)
    curves: list[dict] = []
    if epochs == 0:
        return model, curves
    rng = np.random.default_rng(seed + 1)
    seed_codebooks(model, train_set, batch_size, seed)

    for epoch, batches in train_set.schedule(epochs, batch_size, rng, base_lr=base_lr,
                                             min_lr=min_lr, warmup_epochs=warmup_epochs):
        for stack in model.stacks:
            for book in stack.codebooks:
                begin_epoch(book)
        steps = [train_step(batch, model, lr, weight_decay) for _, batch, lr in batches]
        curves.append({"epoch": epoch, "split": "train",
                       **{k: sum(s[k] for s in steps) / len(steps) for k in steps[0]},
                       "raw_mse": float("nan")})
        if val_set.n_windows:
            curves.append({"epoch": epoch, "split": "val",
                           **evaluate(model, val_set, batch_size)})
        # dead codes reseed from each level's own recent-input reservoir
        for stack in model.stacks:
            for book in stack.codebooks:
                end_epoch_reinit(book, rng=rng)
    return model, curves


# ---------------------------------------------------------------------------
# evaluation


def eval_per_band(model: TokenizerModel, recordings: list[Recording],
                  bands, split: str, slots_per_window: int) -> BandReport:
    """Reconstruct and report raw plus per-band MSE.

    Band MSE is measured on the central half of each patch (filter edge
    exclusion); the raw MSE covers the full patch.  A ``validation`` split
    with no validation windows measures, and is labelled, ``all``.
    """
    w = model.cfg.encoder.w
    windows = build_windows(recordings, w, slots_per_window)
    if split == "validation":
        if windows.val_mask.any():
            windows = windows.val
        else:
            split = "all"
    rate = recordings[0].sample_rate
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


def _stored_arrays(model: TokenizerModel) -> dict[str, np.ndarray]:
    """What a tokenizer checkpoint stores: parameters, then codebook entries."""
    arrays = {f"param.{p.name}": p.data for p in model.params()}
    for s, stack in enumerate(model.stacks):
        for i, book in enumerate(stack.codebooks):
            arrays[f"codebook.{s}.{i}.entries"] = book.entries
    return arrays


def save_tokenizer(model: TokenizerModel, path) -> None:
    save_arrays(path, "tokenizer", config_header(model.cfg), _stored_arrays(model))


def load_tokenizer(path, expected: TokenizerConfig | None = None) -> TokenizerModel:
    """A tokenizer ready for inference; its EMA state starts when training does.

    Each codebook is held as the stored float32 array, with its squared
    norms computed once here; training the model widens its books first.
    """
    def build(header: dict):
        if expected is not None:
            require_fields(header, config_header(expected),
                           ("w", "S", "levels", "codebook_size", "code_dim", "model_dim"))
        model = TokenizerModel(config_from_header(TokenizerConfig, header),
                               rng=ZeroDraws())
        return model, _stored_arrays(model)

    model = restore(path, "tokenizer", build)
    for stack in model.stacks:
        for book in stack.codebooks:
            book.hold_norms()
    return model
