"""Residual vector quantization: nearest-neighbor search on normalized
vectors, residual cascading, EMA codebook learning with k-means
initialization, dead-code reinitialization, and the commitment loss.

Codewords are matched in normalized space but stored and subtracted raw:
the residual update and the telescoping identity operate on the codeword
actually selected, not its normalization.

Every nearest-row search (the quantizer, its zero-query fallback and
k-means' Lloyd assignments) goes through ``nearest_rows``, which runs one
shortlist routine twice: in float32, then in float64 for the rows the first
pass leaves.  For each block of rows a pass runs one GEMM, giving
||t||^2 - 2 x.t for every entry, and a row whose best value beats its second
best by more than the pass's slack takes that pick.  The other rows take
every entry within the slack of their best and re-rank them by the float64
difference form ((x - t)^2).sum(-1).  In either pass a row with more than
``SHORTLIST_CAP`` candidates first keeps, of candidates that are exact
copies of one table row, only the lowest-index one: copies tie for every
query, so only that one can win.  The float32 pass's slack is its derived
rounding bound (``_slack32``), and a row that still has more than
``SHORTLIST_CAP`` candidates is left to the float64 pass, whose slack
``SEARCH_SLACK`` scales with 1 + ||x||^2 + max ||t||^2 and which re-ranks
every candidate.  Rows whose norms lie outside the ranges where the float32
bound holds skip the float32 pass.  Entries outside them are kept out of
both passes' GEMM values and are candidates of every row, except all-zero
entries past the first: those tie for every query, so only the first can
win.  Each slack exceeds the rounding error of its form, so the exact
minimum is always shortlisted, and the re-rank computes the same float64
values a full (B, K, d) broadcast would: picks, exact ties and lowest-index
tie-breaking included, are those of the broadcast, bit for bit.  A block
holds rows x K GEMM values, and the re-rank gathers its candidates in
blocks of ``SEARCH_BLOCK // 4`` values.

k-means++ seeding keeps each row's distance to its nearest centre the same
way: a GEMV per new centre shortlists the rows it may be nearer to, and
only those take the difference form, so the distances, picks and seeded
codebooks are those of a full difference-form pass per centre, bit for bit.

The quantizer searches the raw book: the GEMM's columns are scaled by
-2/||v|| and each unit row's squared norm, the same for every entry, is
dropped.  Only shortlisted codewords are normalized (by ``normalize_rows``,
as the broadcast would) for the re-rank, so a search holds no normalized
copy of the book.  A float64 book is narrowed to a float32 copy per call; a
book loaded from a checkpoint is held as the stored float32 array, which
the float32 GEMM reads as it is, with its squared norms computed once at
load and used while the array stays read-only.  The float64 pass widens the
table and the re-rank only its candidate rows; widening a float32 value is
exact, so every float64 value a search computes is the one it computes for
the same values held in float64.

A codebook's EMA sums are training state and start at the first EMA update
or dead-code reset (or come from k-means); a book that is only searched,
such as one loaded from a checkpoint, holds its entries and K-length
counters only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError
from .optim import Module, Parameter

#: Laplace smoothing constant for EMA cluster sizes.
EMA_EPS = 1e-5
#: An entry whose per-epoch peak EMA size stays below this is considered dead.
DEAD_CODE_THRESHOLD = 1.0
#: Rows of recent level inputs kept for dead-code reinitialization.
RESERVOIR_CAP = 512
#: Largest (rows x K) distance block ``nearest_rows`` holds at once (16 MB).
SEARCH_BLOCK = 1 << 21
#: Most entries a row may take from the float32 shortlist to the float64
#: re-rank; a row with more goes through the float64 pass.
SHORTLIST_CAP = 64
#: Float64 shortlist slack, relative to 1 + ||x||^2 + max ||t||^2.  Both
#: distance forms round within ~(d + 3) float64 epsilons of that scale.
SEARCH_SLACK = 1e-9
#: float32 machine epsilon, 2^-23.
EPS32 = float(np.finfo(np.float32).eps)


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; zero rows are returned unchanged."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return v / safe


def squared_norms(table: np.ndarray) -> np.ndarray:
    """Squared row norms of ``table``, in float64 over its rows widened to
    float64: the values every search of the table uses."""
    table = np.asarray(table, dtype=np.float64)
    return np.einsum("ij,ij->i", table, table)


@dataclass
class Codebook:
    """One quantization level: codeword table plus EMA learning state.

    The table is float64, or float32 as a checkpoint stores it.  A float32
    array is held as it is: a checkpoint load builds it zeroed and
    ``restore`` fills it, rejecting non-finite values, and ``hold_norms``
    then fixes it for searching.  Any other array is widened to float64 and
    must be finite.  Training writes only float64: ``start_ema`` widens a
    float32 table before the first write.
    """

    entries: np.ndarray                 # (K, d_c) float64, or float32 as stored
    ema_size: np.ndarray = None         # (K,)
    ema_sum: np.ndarray = None          # (K, d_c); None until training starts it
    usage: np.ndarray = None            # assignments since epoch start
    epoch_peak_size: np.ndarray = None  # max EMA size seen this epoch
    reservoir: np.ndarray = None        # recent level inputs, for reinit
    norms: np.ndarray = None            # (K,) squared norms of a held float32 table

    def __post_init__(self):
        stored = (isinstance(self.entries, np.ndarray)
                  and self.entries.dtype == np.float32)
        if not stored:
            self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] == 0:
            raise ConfigError("codebook needs a non-empty (K, d_c) entry table")
        if not stored and not np.isfinite(self.entries).all():
            raise ConfigError("codebook entries must be finite")
        K = self.entries.shape[0]
        if self.ema_size is None:
            self.ema_size = np.zeros(K)
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

    def hold_norms(self) -> None:
        """Fix a float32 table for searching: compute its squared norms once
        and make it read-only.  A search uses the norms only while the table
        stays read-only, so a writable copy of the book cannot use stale
        ones."""
        self.norms = squared_norms(self.entries)
        self.entries.flags.writeable = False

    def start_ema(self) -> np.ndarray:
        """The EMA sums, started as a copy of the entries on first use.

        Every write to a book's entries comes after this call: it widens a
        float32 table to float64 and drops its held norms.
        """
        if self.entries.dtype != np.float64:
            self.entries = self.entries.astype(np.float64)
            self.norms = None
        if self.ema_sum is None:
            self.ema_sum = self.entries.copy()
        return self.ema_sum


def nearest_rows(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of the nearest ``table`` row to each row of ``x`` (B, d).

    Squared Euclidean distance, ties to the lowest index; the picks equal
    ``argmin(((x[:, None] - table[None]) ** 2).sum(-1), axis=1)`` exactly,
    by the search the module docstring describes.  A float32 ``table`` is
    searched as it is, with the picks of the same values held in float64;
    any other table is taken as float64.
    """
    if not (isinstance(table, np.ndarray) and table.dtype == np.float32):
        table = np.asarray(table, dtype=np.float64)
    return _nearest_rows(x, table, squared_norms(table), unit_table=False)


def _nearest_rows(x: np.ndarray, table: np.ndarray, tt: np.ndarray,
                  unit_table: bool) -> np.ndarray:
    """``nearest_rows`` for a float32 or float64 ``table`` whose squared row
    norms are ``tt`` (see ``squared_norms``), with ``normalize_rows(table)``
    in place of ``table`` if ``unit_table``: ``_shortlist`` in float32, then
    in float64 for the rows it leaves."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    K = table.shape[0]
    xx = np.einsum("ij,ij->i", x, x)
    # Entries outside the ranges where _slack32's bound holds are out of the
    # GEMM values; rows outside them skip the float32 pass, as does every row
    # past SHORTLIST_CAP forced entries or past d = 4096, where the bound's
    # second-order terms would outgrow its margin.
    if unit_table:
        safe = (tt > 2.0 ** -200) & (tt < 2.0 ** 200)
        colscale = -2.0 / np.sqrt(np.where(safe, tt, 1.0))
        shift = None
        top = float(safe.any())
        fast = xx <= 4.0
    else:
        safe = tt < 2.0 ** 100
        colscale = np.full(K, -2.0)
        shift = np.where(safe, tt, 0.0)
        top = shift.max(initial=0.0)
        fast = (xx < 2.0 ** 100) & (xx + top > 2.0 ** -100)
    out = np.flatnonzero(~safe)
    # every out entry is a candidate of every row, save the all-zero ones
    # past the first: they tie for every query, so only the first can win
    forced = table[out].any(axis=1)
    forced[np.flatnonzero(~forced)[:1]] = True
    if np.count_nonzero(forced) > SHORTLIST_CAP or d > 4096:
        fast[:] = False

    idx = np.empty(n, dtype=np.int64)
    hard = _shortlist(x, np.flatnonzero(fast), idx, table, unit_table,
                      np.float32, colscale, shift, out, forced,
                      _slack32(d, xx, top), SHORTLIST_CAP)
    slow = np.concatenate([np.flatnonzero(~fast), hard])
    _shortlist(x, slow, idx, table, unit_table, np.float64, colscale, shift,
               out, forced, SEARCH_SLACK * (1.0 + xx + top), K)
    return idx


def _shortlist(x, rows, idx, table, unit_table, dtype, colscale, shift, out,
               forced, slack, cap):
    """One pass of ``_nearest_rows`` at the precision ``dtype``: write into
    ``idx`` the picks of the ``rows`` of ``x`` with at most ``cap``
    candidates, and return the others.

    Each block of rows runs one GEMM against the table in ``dtype``, its
    columns scaled by ``colscale`` and shifted by ``shift`` (None for none).
    A row whose best value beats its second best by more than its ``slack``
    takes that pick; the others take as candidates every entry within the
    slack of their best, and the ``out`` entries marked ``forced`` (the
    ``out`` entries' GEMM values are not used), and re-rank them.  A row
    with more than ``SHORTLIST_CAP`` candidates first drops copies
    (``_drop_copies``).
    """
    if rows.size == 0:
        return rows
    # a float32 table is the float32 GEMM's operand as it is, copied only to
    # zero out entries
    with np.errstate(over="ignore"):  # entries that overflow are out
        t = table.astype(dtype, copy=bool(out.size))
    if out.size:
        t[out] = 0.0
    colscale = colscale.astype(dtype)
    if shift is not None:
        shift = shift.astype(dtype)
    K, d = t.shape
    step = max(1, SEARCH_BLOCK // max(K, 4 * SHORTLIST_CAP * d))
    hard = [rows[:0]]
    for lo in range(0, rows.size, step):
        sub = rows[lo:lo + step]
        e = x[sub].astype(dtype, copy=False) @ t.T
        e *= colscale
        if shift is not None:
            e += shift
        e[:, out] = np.inf
        r = np.arange(sub.size)
        best = np.argmin(e, axis=1)
        low = e[r, best]
        idx[sub] = best
        if out.size:
            unsure = r
        else:  # second best against best, with the best masked out
            e[r, best] = np.inf
            gap = e.min(axis=1) - low.astype(np.float64)
            e[r, best] = low
            unsure = np.flatnonzero(~(gap > slack[sub]))
            if unsure.size == 0:
                continue
        near = e[unsure] <= (low[unsure] + slack[sub[unsure]])[:, None]
        del e
        near[:, out] = forced
        count = np.count_nonzero(near, axis=1)
        many = count > SHORTLIST_CAP
        if many.any():
            near[many] = _drop_copies(table, near[many])
            count[many] = np.count_nonzero(near[many], axis=1)
        few = count <= cap
        rr, cc = np.nonzero(near[few])  # row-major: each row's columns ascend
        picked = sub[unsure[few]]
        idx[picked] = _rerank(x[picked], table, rr, cc, unit_table)
        hard.append(sub[unsure[~few]])
    return np.concatenate(hard)


def _drop_copies(table: np.ndarray, near: np.ndarray) -> np.ndarray:
    """``near``, rows' candidate flags over the ``table`` rows, with each
    candidate that copies a table row flagged in any row exactly replaced by
    the lowest-index such copy: copies tie for every query, so only that one
    can win."""
    cols = np.flatnonzero(near.any(axis=0))
    # lexicographic row order; equal rows keep ascending index order
    cols = cols[np.lexsort(table[cols].T[::-1])]
    rows = table[cols]
    new = np.ones(cols.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    del rows
    lowest = cols[new][np.cumsum(new) - 1]  # the first of each run of equal rows
    r, c = np.nonzero(near[:, cols])
    kept = np.zeros_like(near)
    kept[r, lowest[c]] = True
    return kept


def _slack32(d: int, xx: np.ndarray, top: float) -> np.ndarray:
    """Largest gap between two entries' float32 distances that rounding can
    make, for rows of squared norm ``xx`` and largest entry squared norm
    ``top`` (1 for a unit table).

    With u = EPS32 / 2, an entry's float32 value ||t||^2 - 2 x.t (for a
    unit table -2 x.t / ||t||, the constant 1 dropped) differs from its
    exact one by at most 2 (2u + d u) sum_i |x_i t_i|: rounding x
    and t to float32, then the d roundings of the dot product.  The
    roundings that finish it (the column scale -2/||t|| and the product for
    a unit table, tt and the sum for a raw one) add at most 3u (xx + top).
    As 2 sum_i |x_i t_i| <= xx + top (||t|| = 1 for a unit table), each
    entry is off by at most (d + 2 + 3) u (xx + top), and a gap between two
    entries by twice that.  One more EPS32 covers the float64 rounding of
    the difference form, second-order terms, and underflow inside the safe
    ranges ``_nearest_rows`` checks.
    """
    return EPS32 * (d + 2 + 3 + 1) * (xx + top)


def _rerank(x: np.ndarray, table: np.ndarray, r: np.ndarray, c: np.ndarray,
            unit_table: bool) -> np.ndarray:
    """Pick per row of ``x`` the candidate ``table`` row nearest by the
    difference form, ties to the lowest index: the broadcast's own float64
    values.  (r, c) lists every row's candidates, rows ascending and each
    row's columns ascending; every row has at least one.  Candidate rows of
    a float32 table are widened, exactly, as they are read.  The pairs are
    gathered ``SEARCH_BLOCK // (4 d)`` at a time; a pair's sum does not
    depend on the block it is in."""
    step = max(1, SEARCH_BLOCK // (4 * x.shape[1]))
    exact = np.empty(r.size)
    for lo in range(0, r.size, step):
        cb = c[lo:lo + step]
        cand = normalize_rows(table[cb]) if unit_table else table[cb]
        diff = x[r[lo:lo + step]]
        diff -= cand
        del cand
        np.square(diff, out=diff)
        exact[lo:lo + step] = diff.sum(-1)
    order = np.lexsort((c, exact, r))
    first = np.flatnonzero(np.diff(r, prepend=-1))
    return c[order[first]]


def quantize_level(p: np.ndarray, book: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per row of p; returns (indices, raw codewords).

    Query and codewords are compared unit-scaled; queries that normalize to
    zero fall back to raw Euclidean distance.  Ties break toward the lowest
    index.  Accepts a single vector or a (B, d) batch.

    Both comparisons run the module's nearest-row search on the raw book,
    so the picks are those of the (B, K, d) broadcast ||q^ - v^||^2,
    including duplicate, collinear and all-zero codewords.  They use the
    book's held squared norms while its table is read-only.
    The codewords are float64 whatever the book's dtype.  Non-finite query
    rows raise a NumericError.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    q = p[None, :] if single else p
    if q.shape[-1] != book.dim:
        raise ShapeError(f"query dim {q.shape[-1]} != codebook dim {book.dim}")
    if not np.isfinite(q).all():
        raise NumericError("quantize_level: non-finite query rows")
    table = book.entries
    # a deepcopy or unpickled copy of a held book is writable and keeps the
    # norms, which a write into it makes stale
    held = book.norms is not None and not table.flags.writeable
    tt = book.norms if held else squared_norms(table)
    zero_rows = np.linalg.norm(q, axis=-1) == 0.0
    idx = np.empty(q.shape[0], dtype=np.int64)
    idx[~zero_rows] = _nearest_rows(normalize_rows(q[~zero_rows]), table, tt,
                                    unit_table=True)
    if zero_rows.any():
        idx[zero_rows] = _nearest_rows(q[zero_rows], table, tt, unit_table=False)
    z = table[idx].astype(np.float64, copy=False)
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
class RVQStack(Module):
    """An ordered cascade of codebooks with D <-> code-space projections."""

    codebooks: list[Codebook]
    down_proj: Parameter
    up_proj: Parameter
    name: str = "rvq"

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
        return cls(books, down, up, name)

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


def quantization_loss(p_code, codewords: np.ndarray, beta: float) -> Tensor:
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
               decay: float) -> None:
    """EMA codebook update from one batch of (index, residual input) pairs.

    Entries assigned in this batch move toward their smoothed cluster means;
    unassigned entries keep their value (their EMA mass still decays).
    """
    if not (0.0 < decay < 1.0):
        raise ConfigError(f"decay must lie in (0, 1), got {decay}")
    indices = np.asarray(indices, dtype=np.int64)
    inputs = np.asarray(inputs, dtype=np.float64)
    ema_sum = book.start_ema()  # first: the sums below take the entries' dtype
    K = book.K
    counts = np.bincount(indices, minlength=K).astype(np.float64)
    sums = np.zeros_like(book.entries)
    np.add.at(sums, indices, inputs)
    book.ema_size = decay * book.ema_size + (1.0 - decay) * counts
    book.ema_sum = decay * ema_sum + (1.0 - decay) * sums
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
        raise NumericError("EMA update produced non-finite codewords")


def begin_epoch(book: Codebook) -> None:
    book.usage[:] = 0
    book.epoch_peak_size[:] = 0.0


def end_epoch_reinit(book: Codebook, rng: np.random.Generator) -> int:
    """Reinitialize entries whose EMA size stayed below
    ``DEAD_CODE_THRESHOLD`` all epoch.

    Replacements are drawn by ``rng`` from the book's own reservoir of
    recent level inputs, which keeps the reseeded codewords at the
    magnitude this level actually sees.  Returns the number of entries
    reset.
    """
    samples = book.reservoir
    dead = np.flatnonzero(book.epoch_peak_size < DEAD_CODE_THRESHOLD)
    if dead.size == 0 or len(samples) == 0:
        return 0
    picks = rng.integers(0, len(samples), size=dead.size)
    book.start_ema()[dead] = samples[picks]
    book.entries[dead] = samples[picks]
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


def weighted_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``rng.choice(len(p), p=p)``, draw for draw, without choice's checks.

    The same steps as numpy's ``Generator.choice`` with replacement: the
    cumulative sum over its last value, searched to the right for one
    ``rng.random()`` draw.  ``p`` must be finite and non-negative with a
    positive sum, as k-means++'s ``d2 / total`` is.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def kmeans_init(book: Codebook, samples: np.ndarray, *, iters: int,
                rng: np.random.Generator, label: str = "") -> Codebook:
    """Seed the codebook by k-means++ plus Lloyd iterations.

    Cluster geometry lives in normalized space (matching the quantizer's
    metric); the stored codewords are the raw means of each cluster's
    members, so a book with K == n distinct samples reproduces the samples.
    Fewer than K distinct samples pads with perturbed duplicates and warns;
    ``label`` names the book in the warning.  Non-finite samples raise a
    NumericError.
    """
    where = f" ({label})" if label else ""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != book.dim:
        raise ShapeError(f"samples must be (n, {book.dim})")
    if not np.isfinite(samples).all():
        raise NumericError(f"kmeans_init{where}: non-finite samples")
    K = book.K
    if samples.shape[0] < K:
        raise ConfigError(f"need at least {K} samples, got {samples.shape[0]}")
    distinct = np.unique(samples, axis=0)
    n_distinct = distinct.shape[0]
    if n_distinct < K:
        deficit = K - n_distinct
        picks = rng.integers(0, n_distinct, size=deficit)
        jitter = 1e-4 * rng.standard_normal((deficit, book.dim))
        samples = np.vstack([samples, distinct[picks] + jitter])

    sn = normalize_rows(samples)
    n = sn.shape[0]

    # k-means++ seeding on the normalized points.  A new centre c lowers d2
    # only where ||x - c||^2 < d2; the GEMV form ||x||^2 + ||c||^2 - 2 x.c
    # is within SEARCH_SLACK of the difference form (as in nearest_rows), so
    # it shortlists every such row, and only those take the difference form.
    xx = np.einsum("ij,ij->i", sn, sn)
    slack = SEARCH_SLACK * (1.0 + 2.0 * xx.max())
    centers = np.empty((K, book.dim))
    first = rng.integers(0, n)
    centers[0] = sn[first]
    d2 = ((sn - centers[0]) ** 2).sum(axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            pick = rng.integers(0, n)
        else:
            pick = weighted_index(rng, d2 / total)
        c = centers[j] = sn[pick]
        near = np.flatnonzero(xx + xx[pick] - 2.0 * (sn @ c) <= d2 + slack)
        d2[near] = np.minimum(d2[near], ((sn[near] - c) ** 2).sum(axis=1))

    assign = nearest_rows(sn, centers)
    for _ in range(iters):
        update_centers(centers, sn, assign)
        new_assign = nearest_rows(sn, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    # store raw cluster means; empty clusters keep a raw sample as their entry
    book.start_ema()  # widens a float32 table before the writes below
    counts = np.bincount(assign, minlength=K).astype(np.float64)
    raw_sums = np.zeros((K, book.dim))
    np.add.at(raw_sums, assign, samples)
    filled = counts > 0
    book.entries[filled] = raw_sums[filled] / counts[filled, None]
    for j in np.flatnonzero(~filled):
        book.entries[j] = samples[rng.integers(0, samples.shape[0])]
        counts[j] = 1.0
        raw_sums[j] = book.entries[j]
    book.ema_size = counts
    book.ema_sum = raw_sums
    if n_distinct < K:
        warnings.warn(f"kmeans_init{where}: {n_distinct} distinct samples for "
                      f"{K} codewords; padded with perturbed duplicates",
                      stacklevel=2)
    return book


def kmeans_init_stack(stack: RVQStack, p_code: np.ndarray, *, iters: int,
                      rng: np.random.Generator) -> None:
    """Initialize every level on the residual distribution it will see."""
    resid = np.asarray(p_code, dtype=np.float64).copy()
    for i, book in enumerate(stack.codebooks):
        kmeans_init(book, resid, iters=iters, rng=rng,
                    label=f"stack {stack.name}, level {i}")
        _, z = quantize_level(resid, book)
        resid = resid - z
