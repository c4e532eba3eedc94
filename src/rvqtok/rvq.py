"""Residual vector quantization: nearest-neighbor search on normalized
vectors, residual cascading, EMA codebook learning with k-means
initialization, dead-code reinitialization, and the commitment loss.

Codewords are matched in normalized space but stored and subtracted raw:
the residual update and the telescoping identity operate on the codeword
actually selected, not its normalization.

Every nearest-row search (the quantizer and both k-means assignment steps)
goes through ``nearest_rows``.  It shortlists candidates with one GEMM,
||x||^2 + ||t||^2 - 2 x.t using each row's actual squared norm, keeps every
entry within a rounding slack of the row minimum, and re-ranks rows with more
than one candidate by the difference form ((x - t)^2).sum(-1).  The slack
exceeds the rounding error of both forms, so the exact minimum is always
shortlisted, and the re-rank computes the same float64 values a full (B, K, d)
broadcast would: picks, exact ties and lowest-index tie-breaking included, are
those of the broadcast, bit for bit, at O(B*K) memory per block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, straight_through  # noqa: F401  (re-exported)
from .errors import ConfigError, ShapeError
from .optim import Parameter

#: Laplace smoothing constant for EMA cluster sizes.
EMA_EPS = 1e-5
#: An entry whose per-epoch peak EMA size stays below this is considered dead.
DEAD_CODE_THRESHOLD = 1.0
#: Rows of recent level inputs kept for dead-code reinitialization.
RESERVOIR_CAP = 512
#: Largest (rows x K) distance block ``nearest_rows`` holds at once (16 MB).
SEARCH_BLOCK = 1 << 21
#: Shortlist slack, relative to 1 + ||x||^2 + max ||t||^2.  Both distance
#: forms round within ~(d + 3) float64 epsilons of that scale.
SEARCH_SLACK = 1e-9


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; zero rows are returned unchanged."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return v / safe


@dataclass
class Codebook:
    """One quantization level: codeword table plus EMA learning state."""

    entries: np.ndarray                 # (K, d_c)
    ema_size: np.ndarray = None         # (K,)
    ema_sum: np.ndarray = None          # (K, d_c)
    usage: np.ndarray = None            # assignments since epoch start
    epoch_peak_size: np.ndarray = None  # max EMA size seen this epoch
    reservoir: np.ndarray = None        # recent level inputs, for reinit

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] == 0:
            raise ConfigError("codebook needs a non-empty (K, d_c) entry table")
        if not np.isfinite(self.entries).all():
            raise ConfigError("codebook entries must be finite")
        K = self.entries.shape[0]
        if self.ema_size is None:
            self.ema_size = np.zeros(K)
        if self.ema_sum is None:
            self.ema_sum = self.entries.copy()
        if self.usage is None:
            self.usage = np.zeros(K, dtype=np.int64)
        if self.epoch_peak_size is None:
            self.epoch_peak_size = np.zeros(K)
        if self.reservoir is None:
            self.reservoir = np.zeros((0, self.entries.shape[1]))

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def nearest_rows(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of the nearest ``table`` row to each row of ``x`` (B, d).

    Squared Euclidean distance, ties to the lowest index; the picks equal
    ``argmin(((x[:, None] - table[None]) ** 2).sum(-1), axis=1)`` exactly.
    Rows are searched ``SEARCH_BLOCK // K`` at a time: one GEMM shortlists
    the entries within ``SEARCH_SLACK`` of each row's minimum, and rows with
    more than one candidate re-rank them by the difference form.
    """
    x = np.asarray(x, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
    tt = np.einsum("ij,ij->i", table, table)
    xx = np.einsum("ij,ij->i", x, x)
    slack = SEARCH_SLACK * (1.0 + xx + tt.max())
    idx = np.empty(x.shape[0], dtype=np.int64)
    rows = max(1, SEARCH_BLOCK // table.shape[0])
    for lo in range(0, x.shape[0], rows):
        hi = min(lo + rows, x.shape[0])
        d = x[lo:hi] @ table.T
        d *= -2.0
        d += xx[lo:hi, None]
        d += tt
        best = np.argmin(d, axis=1)
        idx[lo:hi] = best
        near = d <= (d[np.arange(hi - lo), best] + slack[lo:hi])[:, None]
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
        if tied.size == 0:
            continue
        r, c = np.nonzero(near[tied])  # row-major: each row's columns ascend
        exact = ((x[lo + tied[r]] - table[c]) ** 2).sum(-1)
        order = np.lexsort((c, exact, r))
        first = np.flatnonzero(np.diff(r, prepend=-1))
        idx[lo + tied] = c[order[first]]
    return idx


def quantize_level(p: np.ndarray, book: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per row of p; returns (indices, raw codewords).

    Query and codewords are compared unit-scaled; queries that normalize to
    zero fall back to raw Euclidean distance.  Ties break toward the lowest
    index.  Accepts a single vector or a (B, d) batch.

    Both searches run through ``nearest_rows``: a GEMM shortlist of the
    entries within rounding slack of each row's minimum, re-ranked by the
    difference form, so the picks are those of the (B, K, d) broadcast
    ||q^ - v^||^2, including duplicate, collinear and all-zero codewords.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    q = p[None, :] if single else p
    if q.shape[-1] != book.dim:
        raise ShapeError(f"query dim {q.shape[-1]} != codebook dim {book.dim}")
    zero_rows = np.linalg.norm(q, axis=-1) == 0.0
    idx = np.empty(q.shape[0], dtype=np.int64)
    idx[~zero_rows] = nearest_rows(normalize_rows(q[~zero_rows]),
                                   normalize_rows(book.entries))
    if zero_rows.any():
        idx[zero_rows] = nearest_rows(q[zero_rows], book.entries)
    z = book.entries[idx]
    if single:
        return idx[0], z[0]
    return idx, z


@dataclass
class TokenAssignment:
    """Per-level indices and codewords for one batch of code-space inputs."""

    indices: np.ndarray       # (B, N)
    codewords: np.ndarray     # (N, B, d_c) raw selected codewords
    level_inputs: np.ndarray  # (N, B, d_c) residual fed to each level
    residual: np.ndarray      # (B, d_c) after the last level

    @property
    def reconstruction(self) -> np.ndarray:
        return self.codewords.sum(axis=0)


@dataclass
class RVQStack:
    """An ordered cascade of codebooks with D <-> code-space projections."""

    codebooks: list[Codebook]
    down_proj: Parameter
    up_proj: Parameter

    def __post_init__(self):
        if not self.codebooks:
            raise ConfigError("RVQ stack needs at least one codebook")
        dims = {b.dim for b in self.codebooks}
        sizes = {b.K for b in self.codebooks}
        if len(dims) != 1 or len(sizes) != 1:
            raise ConfigError("all codebooks in a stack must share K and d_c")

    @property
    def levels(self) -> int:
        return len(self.codebooks)

    @property
    def code_dim(self) -> int:
        return self.codebooks[0].dim

    @classmethod
    def create(cls, model_dim: int, code_dim: int, levels: int, entries: int,
               rng: np.random.Generator, name: str = "rvq") -> "RVQStack":
        books = [Codebook(rng.normal(scale=1.0 / np.sqrt(code_dim),
                                     size=(entries, code_dim)))
                 for _ in range(levels)]
        limit = np.sqrt(6.0 / (model_dim + code_dim))
        down = Parameter(rng.uniform(-limit, limit, size=(model_dim, code_dim)),
                         f"{name}.down_proj")
        up = Parameter(rng.uniform(-limit, limit, size=(code_dim, model_dim)),
                       f"{name}.up_proj")
        return cls(books, down, up)

    def quantize_codes(self, p_code: np.ndarray,
                       forced_indices: np.ndarray | None = None) -> TokenAssignment:
        """Cascade the levels over code-space inputs (B, d_c).

        ``forced_indices`` (B, N) bypasses the nearest-neighbor search and is
        used by finite-difference checks that must freeze assignments.
        """
        p_code = np.asarray(p_code, dtype=np.float64)
        if p_code.ndim != 2:
            raise ShapeError("quantize_codes expects a (B, d_c) batch")
        B = p_code.shape[0]
        N = self.levels
        indices = np.zeros((B, N), dtype=np.int64)
        codewords = np.zeros((N, B, self.code_dim))
        level_inputs = np.zeros((N, B, self.code_dim))
        resid = p_code.copy()
        for i, book in enumerate(self.codebooks):
            level_inputs[i] = resid
            if forced_indices is not None:
                idx = np.asarray(forced_indices[:, i], dtype=np.int64)
                z = book.entries[idx]
            else:
                idx, z = quantize_level(resid, book)
            indices[:, i] = idx
            codewords[i] = z
            resid = resid - z
        return TokenAssignment(indices, codewords, level_inputs, resid)


def quantization_loss(p_code, codewords: np.ndarray, beta: float = 0.25) -> Tensor:
    """Commitment loss: beta * mean over levels, rows and dims of (r_i - z_i)^2.

    Level i quantizes the residual r_i = p - (z_1 + ... + z_{i-1}), so
    r_i - z_i = p - cumsum(z)_i and every level's term comes from one
    broadcast subtraction.  ``p_code`` (B, d_c) may be a Tensor (training
    path) or an array; the selected codewords (N, B, d_c) are constants —
    the codebooks learn by EMA, not by gradient.
    """
    p_t = ad._as_tensor(p_code)
    codewords = np.asarray(codewords)
    if codewords.ndim != 3 or codewords.shape[1:] != p_t.shape:
        raise ShapeError(f"codewords {codewords.shape} do not stack levels over "
                         f"inputs {p_t.shape}")
    err = ad.sub(p_t, Tensor(np.cumsum(codewords, axis=0)))
    return ad.mul(Tensor(np.asarray(beta)), ad.tmean(ad.square(err)))


def ema_update(book: Codebook, indices: np.ndarray, inputs: np.ndarray,
               decay: float = 0.99) -> None:
    """EMA codebook update from one batch of (index, residual input) pairs.

    Entries assigned in this batch move toward their smoothed cluster means;
    unassigned entries keep their value (their EMA mass still decays).
    """
    if not (0.0 < decay < 1.0):
        raise ConfigError(f"decay must lie in (0, 1), got {decay}")
    indices = np.asarray(indices, dtype=np.int64)
    inputs = np.asarray(inputs, dtype=np.float64)
    K = book.K
    counts = np.bincount(indices, minlength=K).astype(np.float64)
    sums = np.zeros_like(book.ema_sum)
    np.add.at(sums, indices, inputs)
    book.ema_size = decay * book.ema_size + (1.0 - decay) * counts
    book.ema_sum = decay * book.ema_sum + (1.0 - decay) * sums
    n = book.ema_size.sum()
    if n > 0:
        smoothed = (book.ema_size + EMA_EPS) / (n + K * EMA_EPS) * n
        touched = counts > 0
        book.entries[touched] = book.ema_sum[touched] / smoothed[touched, None]
    book.usage += counts.astype(np.int64)
    book.epoch_peak_size = np.maximum(book.epoch_peak_size, book.ema_size)
    if inputs.size:
        book.reservoir = np.vstack([book.reservoir, inputs])[-RESERVOIR_CAP:]
    if not np.isfinite(book.entries).all():
        raise ArithmeticError("EMA update produced non-finite codewords")


def begin_epoch(book: Codebook) -> None:
    book.usage[:] = 0
    book.epoch_peak_size[:] = 0.0


def end_epoch_reinit(book: Codebook, samples: np.ndarray | None = None,
                     rng: np.random.Generator | None = None,
                     threshold: float = DEAD_CODE_THRESHOLD) -> int:
    """Reinitialize entries whose EMA size stayed below threshold all epoch.

    Replacements default to the book's own reservoir of recent level inputs,
    which keeps the reseeded codewords at the magnitude this level actually
    sees.  Returns the number of entries reset.
    """
    rng = rng or np.random.default_rng(0)
    if samples is None:
        samples = book.reservoir
    dead = np.flatnonzero(book.epoch_peak_size < threshold)
    if dead.size == 0 or len(samples) == 0:
        return 0
    picks = rng.integers(0, len(samples), size=dead.size)
    book.entries[dead] = samples[picks]
    book.ema_sum[dead] = samples[picks]
    book.ema_size[dead] = 1.0
    return int(dead.size)


def update_centers(centers: np.ndarray, points: np.ndarray,
                   assign: np.ndarray) -> None:
    """Move each centre with members to their mean; empty clusters stay put.

    Members are added to 0.0 in index order, as numpy's mean adds rows for
    d >= 2, so each centre is bit for bit ``points[assign == j].mean(axis=0)``.
    A single column numpy sums pairwise; for the unit rows k-means passes
    (+-1 or 0) both sums are exact.
    """
    counts = np.bincount(assign, minlength=centers.shape[0])
    sums = np.zeros(centers.shape)
    np.add.at(sums, assign, points)
    filled = counts > 0
    centers[filled] = sums[filled] / counts[filled, None]


def kmeans_init(book: Codebook, samples: np.ndarray, iters: int = 10,
                rng: np.random.Generator | None = None) -> Codebook:
    """Seed the codebook by k-means++ plus Lloyd iterations.

    Cluster geometry lives in normalized space (matching the quantizer's
    metric); the stored codewords are the raw means of each cluster's
    members, so a book with K == n distinct samples reproduces the samples.
    Fewer than K distinct samples pads with perturbed duplicates and warns.
    """
    rng = rng or np.random.default_rng(0)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != book.dim:
        raise ShapeError(f"samples must be (n, {book.dim})")
    K = book.K
    if samples.shape[0] < K:
        raise ConfigError(f"need at least {K} samples, got {samples.shape[0]}")
    distinct = np.unique(samples, axis=0)
    padded = False
    if distinct.shape[0] < K:
        deficit = K - distinct.shape[0]
        picks = rng.integers(0, distinct.shape[0], size=deficit)
        jitter = 1e-4 * rng.standard_normal((deficit, book.dim))
        samples = np.vstack([samples, distinct[picks] + jitter])
        padded = True

    sn = normalize_rows(samples)

    # k-means++ seeding on the normalized points
    centers = np.empty((K, book.dim))
    first = rng.integers(0, sn.shape[0])
    centers[0] = sn[first]
    d2 = ((sn - centers[0]) ** 2).sum(axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            pick = rng.integers(0, sn.shape[0])
        else:
            pick = rng.choice(sn.shape[0], p=d2 / total)
        centers[j] = sn[pick]
        d2 = np.minimum(d2, ((sn - centers[j]) ** 2).sum(axis=1))

    assign = nearest_rows(sn, centers)
    for _ in range(iters):
        update_centers(centers, sn, assign)
        new_assign = nearest_rows(sn, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    # store raw cluster means; empty clusters keep a raw sample as their entry
    counts = np.bincount(assign, minlength=K).astype(np.float64)
    raw_sums = np.zeros((K, book.dim))
    np.add.at(raw_sums, assign, samples)
    for j in range(K):
        if counts[j] > 0:
            book.entries[j] = raw_sums[j] / counts[j]
        else:
            book.entries[j] = samples[rng.integers(0, samples.shape[0])]
            counts[j] = 1.0
            raw_sums[j] = book.entries[j]
    book.ema_size = counts.copy()
    book.ema_sum = raw_sums.copy()
    if padded:
        warnings.warn("kmeans_init: fewer distinct samples than codewords; "
                      "padded with perturbed duplicates", stacklevel=2)
    return book


def kmeans_init_stack(stack: RVQStack, p_code: np.ndarray, iters: int = 10,
                      rng: np.random.Generator | None = None) -> None:
    """Initialize every level on the residual distribution it will see."""
    resid = np.asarray(p_code, dtype=np.float64).copy()
    for book in stack.codebooks:
        kmeans_init(book, resid, iters=iters, rng=rng)
        _, z = quantize_level(resid, book)
        resid = resid - z
