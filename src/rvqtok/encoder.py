"""Multi-scale temporal encoder: inception-style branches, shared
position/channel embedding tables, and a shared pre-norm transformer.

Each temporal branch runs (conv1d -> groupnorm -> GELU -> avgpool) twice and
flattens channels x time back to the patch length, so every branch emits a
length-w feature regardless of its kernel sizes.  The same embedding tables
and the same transformer weights serve all branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .optim import Module, Parameter

#: (kernel, padding) pairs per stage for the four stock branches, widest first.
STOCK_BRANCH_LADDER = (
    ((21, 10), (9, 4)),
    ((15, 7), (7, 3)),
    ((9, 4), (5, 2)),
    ((5, 2), (3, 1)),
)


@dataclass(frozen=True)
class BranchConfig:
    """Shape recipe for one temporal branch (two conv stages)."""

    filters: tuple[int, int] = (8, 8)
    kernels: tuple[int, int] = (21, 9)
    paddings: tuple[int, int] = (10, 4)
    pools: tuple[int, int] = (2, 4)
    groups: int = 4

    def stage_lengths(self, w: int) -> tuple[int, int]:
        l1 = w + 2 * self.paddings[0] - self.kernels[0] + 1
        if l1 <= 0 or l1 % self.pools[0] != 0:
            raise ConfigError(
                f"branch stage 1 length {l1} not divisible by pool {self.pools[0]}")
        l1 //= self.pools[0]
        l2 = l1 + 2 * self.paddings[1] - self.kernels[1] + 1
        if l2 <= 0 or l2 % self.pools[1] != 0:
            raise ConfigError(
                f"branch stage 2 length {l2} not divisible by pool {self.pools[1]}")
        return l1, l2 // self.pools[1]

    def validate(self, w: int) -> None:
        _, out_len = self.stage_lengths(w)
        if self.filters[1] * out_len != w:
            raise ConfigError(
                f"branch output {self.filters[1]} channels x {out_len} steps = "
                f"{self.filters[1] * out_len}, expected patch length {w}")
        if self.filters[0] % self.groups or self.filters[1] % self.groups:
            raise ConfigError(f"{self.groups} groups must divide filter counts {self.filters}")


def default_branch_configs(S: int) -> list[BranchConfig]:
    """The stock kernel ladder; defined for 1 <= S <= 4 (wider sets need
    explicit configs)."""
    if not 1 <= S <= len(STOCK_BRANCH_LADDER):
        raise ConfigError(f"no stock branch configs for S={S}; pass explicit ones")
    out = []
    for (k1, p1), (k2, p2) in STOCK_BRANCH_LADDER[:S]:
        out.append(BranchConfig(kernels=(k1, k2), paddings=(p1, p2)))
    return out


@dataclass
class EncoderConfig:
    """Structure of the multi-scale encoder and its shared transformer."""

    w: int = 64
    model_dim: int = 64
    S: int = 4
    depth: int = 2
    heads: int = 4
    mlp_dim: int = 256
    n_electrodes: int = 8
    max_slots: int = 64
    layer_scale_init: float = 1e-3
    branches: list[BranchConfig] = field(default_factory=list)

    def __post_init__(self):
        if self.S < 1:
            raise ConfigError("S must be at least 1")
        if not self.branches:
            self.branches = default_branch_configs(self.S)
        if len(self.branches) != self.S:
            raise ConfigError(f"{len(self.branches)} branch configs for S={self.S}")
        if self.w % 2 != 0:
            raise ConfigError(f"patch length w must be even, got {self.w}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads")
        for b in self.branches:
            b.validate(self.w)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 name: str, bias: bool = True, scale: float | None = None):
        limit = scale if scale is not None else np.sqrt(6.0 / (d_in + d_out))
        self.w = Parameter(rng.uniform(-limit, limit, size=(d_in, d_out)), f"{name}.w")
        self.b = Parameter(np.zeros(d_out), f"{name}.b") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w.tensor, self.b.tensor if self.b else None)


class LayerNorm(Module):
    def __init__(self, dim: int, name: str):
        self.gain = Parameter(np.ones(dim), f"{name}.gain")
        self.bias = Parameter(np.zeros(dim), f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gain.tensor, self.bias.tensor)


class ConvStage(Module):
    """conv1d (no bias) -> groupnorm -> GELU -> avgpool."""

    def __init__(self, c_in: int, c_out: int, kernel: int, padding: int,
                 pool: int, groups: int, rng: np.random.Generator, name: str):
        fan = kernel * (c_in + c_out)
        limit = np.sqrt(6.0 / fan)
        self.w = Parameter(rng.uniform(-limit, limit, size=(c_out, c_in, kernel)),
                           f"{name}.conv.w")
        self.gain = Parameter(np.ones(c_out), f"{name}.gn.gain")
        self.bias = Parameter(np.zeros(c_out), f"{name}.gn.bias")
        self.padding = padding
        self.pool = pool
        self.groups = groups

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.conv1d(x, self.w.tensor, padding=self.padding)
        h = ad.groupnorm(h, self.gain.tensor, self.bias.tensor, self.groups)
        h = ad.gelu(h)
        return ad.avgpool1d(h, self.pool)


class TemporalBranch(Module):
    """One inception branch mapping (B, w) patches to (B, w) features."""

    def __init__(self, cfg: BranchConfig, w: int, rng: np.random.Generator, name: str):
        cfg.validate(w)
        self.cfg = cfg
        self.w = w
        self.stage1 = ConvStage(1, cfg.filters[0], cfg.kernels[0], cfg.paddings[0],
                                cfg.pools[0], cfg.groups, rng, f"{name}.stage1")
        self.stage2 = ConvStage(cfg.filters[0], cfg.filters[1], cfg.kernels[1],
                                cfg.paddings[1], cfg.pools[1], cfg.groups, rng,
                                f"{name}.stage2")

    def __call__(self, patches: Tensor) -> Tensor:
        n = patches.shape[0]
        h = ad.reshape(patches, (n, 1, self.w))
        h = self.stage1(h)
        h = self.stage2(h)
        return ad.reshape(h, (n, self.w))


class EmbeddingTables(Module):
    """Learnable channel (spatial) and time-slot (temporal) embedding rows,
    drawn with standard deviation 0.01."""

    def __init__(self, n_electrodes: int, max_slots: int, w: int,
                 rng: np.random.Generator):
        self.spatial = Parameter(0.01 * rng.standard_normal((n_electrodes, w)),
                                 "tables.spatial")
        self.temporal = Parameter(0.01 * rng.standard_normal((max_slots, w)),
                                  "tables.temporal")


class TransformerBlock(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, name: str):
        D = cfg.model_dim
        self.heads = cfg.heads
        self.ln1 = LayerNorm(D, f"{name}.ln1")
        self.wq = Linear(D, D, rng, f"{name}.wq", bias=False)
        self.wk = Linear(D, D, rng, f"{name}.wk", bias=False)
        self.wv = Linear(D, D, rng, f"{name}.wv", bias=False)
        self.wo = Linear(D, D, rng, f"{name}.wo", bias=False)
        self.ls1 = Parameter(np.full(D, cfg.layer_scale_init), f"{name}.ls1")
        self.ln2 = LayerNorm(D, f"{name}.ln2")
        self.fc1 = Linear(D, cfg.mlp_dim, rng, f"{name}.fc1")
        self.fc2 = Linear(cfg.mlp_dim, D, rng, f"{name}.fc2")
        self.ls2 = Parameter(np.full(D, cfg.layer_scale_init), f"{name}.ls2")
        # unit-gain normalization of queries/keys (stability modification)
        self._unit_gain = Tensor(np.ones(D))
        self._zero_bias = Tensor(np.zeros(D))

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln1(x)
        q, k, v = self.wq(h), self.wk(h), self.wv(h)
        q = ad.layernorm(q, self._unit_gain, self._zero_bias)
        k = ad.layernorm(k, self._unit_gain, self._zero_bias)
        att = self.wo(ad.multihead_attention(q, k, v, self.heads))
        x = ad.add(x, ad.mul(self.ls1.tensor, att))
        m = self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        return ad.add(x, ad.mul(self.ls2.tensor, m))


class TransformerStack(Module):
    """Pre-norm residual blocks; depth 0 is the identity."""

    def __init__(self, cfg: EncoderConfig, depth: int, rng: np.random.Generator,
                 name: str):
        self.blocks = [TransformerBlock(cfg, rng, f"{name}.block{i}")
                       for i in range(depth)]

    def __call__(self, x: Tensor) -> Tensor:
        for blk in self.blocks:
            x = blk(x)
        return x


class MultiScaleEncoder(Module):
    """Branches -> embeddings -> shared transformer."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator,
                 name: str = "encoder"):
        self.cfg = cfg
        self.branches = [TemporalBranch(b, cfg.w, rng, f"{name}.branch{i}")
                         for i, b in enumerate(cfg.branches)]
        self.tables = EmbeddingTables(cfg.n_electrodes, cfg.max_slots, cfg.w, rng)
        self.input_proj = (None if cfg.w == cfg.model_dim
                           else Linear(cfg.w, cfg.model_dim, rng, f"{name}.in_proj"))
        self.transformer = TransformerStack(cfg, cfg.depth, rng, f"{name}.tf")

    def branch_features(self, patches: Tensor) -> Tensor:
        """Branch features stacked on a leading axis: (S, B, P, w) from a
        (B, P, w) patch block."""
        B, P, w = patches.shape
        if w != self.cfg.w:
            raise ConfigError(f"patch length {w} != encoder w {self.cfg.w}")
        flat = ad.reshape(patches, (B * P, w))
        return ad.concat([ad.reshape(br(flat), (1, B, P, w)) for br in self.branches],
                         axis=0)

    def forward(self, patches, channel_idx: np.ndarray, slot_idx: np.ndarray,
                features: Tensor | None = None) -> list[Tensor]:
        """Per-branch (B, P, D) representations.

        The S branches share the embedding tables, the input projection and
        the transformer, so they run through them as one (S * B)-row batch.
        Where no tape records, the transformer takes each branch's B rows as
        its own call, on ``ad.split_map``'s threads; every row's values are
        those of the batched call.
        ``features`` overrides the stacked branch outputs (the
        masked-pretraining path substitutes mask tokens before the
        embeddings are added).  Channel and slot rows outside the embedding
        tables raise a ConfigError naming the config key that sizes them.
        """
        channel_idx, slot_idx = np.asarray(channel_idx), np.asarray(slot_idx)
        for idx, what, key, rows in (
                (channel_idx, "electrode", "n_electrodes", self.cfg.n_electrodes),
                (slot_idx, "slot", "max_slots", self.cfg.max_slots)):
            if idx.size and (idx.min() < 0 or idx.max() >= rows):
                raise ConfigError(f"{what} rows span [{idx.min()}, {idx.max()}], "
                                  f"outside the {rows} rows of model.{key}")
        if features is None:
            features = self.branch_features(ad._as_tensor(patches))
        S, B, P, _ = features.shape
        se = ad.embedding_lookup(self.tables.spatial.tensor, channel_idx)
        te = ad.embedding_lookup(self.tables.temporal.tensor, slot_idx)
        x = ad.add(features, ad.add(se, te))
        if self.input_proj is not None:
            x = self.input_proj(x)
        D = x.shape[-1]
        x = ad.split_map(self.transformer, ad.reshape(x, (S * B, P, D)), S)
        x = ad.reshape(x, (S, B, P, D))
        return [ad.index(x, s) for s in range(S)]
