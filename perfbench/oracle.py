"""Brute-force oracle for the residual quantizer's nearest-codeword cascade.

It shares no code with ``rvqtok.rvq``.  Distances are ||q^ - v^||^2 between
unit-normalised rows, computed in float64 one query block at a time; a query
row that is exactly zero is compared by raw distance ||q - v||^2 instead, and
a zero codeword stays zero under normalisation.  The residual fed to each
level is rebuilt from the code-space input and the codebook tables, following
the program's own picks, so that one accepted near-tie does not derail the
levels after it.

A pick passes when its distance is within ``TOL`` of the oracle's minimum
(relative to max(1, minimum)) and it is the lowest index among the entries
whose oracle distance equals its own exactly.  Any exact search passes,
whatever arithmetic it uses; a search that returns a farther codeword fails.
"""

from __future__ import annotations

import numpy as np

#: Accepted excess over the minimum squared distance.  Normalised distances
#: lie in [0, 4]; float64 rounding in either implementation is ~1e-15, and
#: 1e-6 still admits a search that runs its arithmetic in float32.
TOL = 1e-6
#: Largest (rows x K x d) block the oracle materialises at once.
BLOCK_ELEMENTS = 1 << 22


def unit_rows(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    out = v.copy()
    nonzero = norms > 0
    out[nonzero] /= norms[nonzero, None]
    return out


def distances(queries: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(B, K) squared distances as the quantizer defines them."""
    q = np.asarray(queries, dtype=np.float64)
    v = np.asarray(entries, dtype=np.float64)
    qn, vn = unit_rows(q), unit_rows(v)
    zero = ~q.any(axis=1)
    out = np.empty((q.shape[0], v.shape[0]))
    rows = max(1, BLOCK_ELEMENTS // max(1, v.size))
    for lo in range(0, q.shape[0], rows):
        hi = min(lo + rows, q.shape[0])
        out[lo:hi] = ((qn[lo:hi, None, :] - vn[None, :, :]) ** 2).sum(axis=-1)
    for r in np.flatnonzero(zero):
        out[r] = ((q[r][None, :] - v) ** 2).sum(axis=-1)
    return out


def bad_picks(d: np.ndarray, picks: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Rows of ``d`` (B, K) whose pick fails the oracle."""
    picks = np.asarray(picks, dtype=np.int64)
    K = d.shape[1]
    in_range = (picks >= 0) & (picks < K)
    safe = np.where(in_range, picks, 0)
    best = d.min(axis=1)
    mine = d[np.arange(d.shape[0]), safe]
    near = mine <= best + tol * np.maximum(1.0, best)
    # lowest index among the entries tied exactly with the pick
    first_tie = np.argmax(d == mine[:, None], axis=1)
    return np.flatnonzero(~(in_range & near & (first_tie == safe)))


def check_cascade(p_code: np.ndarray, tables: list[np.ndarray],
                  indices: np.ndarray, codewords: np.ndarray | None = None,
                  residual: np.ndarray | None = None,
                  telescope_tol: float = 1e-10) -> list[str]:
    """Failures of one stack's assignment for code-space inputs (B, d_c).

    ``indices`` is (B, N), one column per level.  When the program's
    ``codewords`` (N, B, d_c) and ``residual`` (B, d_c) are given, they must
    be the table rows picked and must telescope back to ``p_code``.
    """
    p = np.asarray(p_code, dtype=np.float64)
    indices = np.asarray(indices)
    failures: list[str] = []
    if indices.shape != (p.shape[0], len(tables)):
        return [f"indices extents {indices.shape}, expected "
                f"{(p.shape[0], len(tables))}"]
    resid = p.copy()
    for level, table in enumerate(tables):
        table = np.asarray(table, dtype=np.float64)
        bad = bad_picks(distances(resid, table), indices[:, level])
        if bad.size:
            r = int(bad[0])
            failures.append(f"level {level}: {bad.size} of {p.shape[0]} picks "
                            f"are not nearest (first row {r}, pick "
                            f"{int(indices[r, level])})")
            break
        resid = resid - table[indices[:, level]]
    if codewords is not None and not failures:
        for level, table in enumerate(tables):
            if not np.array_equal(np.asarray(codewords[level], dtype=np.float64),
                                  np.asarray(table, dtype=np.float64)[indices[:, level]]):
                failures.append(f"level {level}: codewords are not the picked table rows")
        if residual is not None:
            err = np.abs(np.sum(codewords, axis=0) + residual - p).max()
            if not err <= telescope_tol:
                failures.append(f"codewords plus residual miss the input by {err:.3g}")
    return failures
