"""Helpers several test modules share: reading a checkpoint's arrays
without a model, the chord distance between phases, and the earlier forms of
four tape primitives that the present forms must match bit for bit."""

import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from rvqtok.checkpoint import _next_array, _payload


def load_arrays(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Every stored array as float32, with the header's kind and config."""
    path = Path(path)
    with _payload(path) as (fh, kind, config, manifest):
        arrays = {name: _next_array(fh, path, name, shape).copy()
                  for name, shape in manifest}
    return kind, config, arrays


def chord_loss(phi1, phi2):
    """Squared distance between unit-circle points at the two angles."""
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    ds = np.sin(phi1) - np.sin(phi2)
    dc = np.cos(phi1) - np.cos(phi2)
    return ds * ds + dc * dc


def conv1d_einsum(x, w, padding, g=None):
    """The conv1d forward over arrays, and with an output gradient ``g`` its
    ``(gx, gw)``, as planned ``np.einsum`` contractions over
    ``sliding_window_view``s of ``np.pad``ded arrays."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = sliding_window_view(xp, k, axis=2)
    out = np.einsum("bclk,ock->bol", win, w, optimize=True)
    if g is None:
        return out
    gw = np.einsum("bol,bclk->ock", g, win, optimize=True)
    gp = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1)))
    gwin = sliding_window_view(gp, k, axis=2)
    gx = np.einsum("bolk,ock->bcl", gwin, w[:, :, ::-1], optimize=True)
    return out, gx[:, :, padding:padding + x.shape[2]], gw


def avgpool1d_mean(x, width):
    """Average pooling as a mean over a reshaped trailing axis."""
    return x.reshape(x.shape[:-1] + (x.shape[-1] // width, width)).mean(axis=-1)


def gelu_expression(a, g):
    """GELU's forward and its input gradient for output gradient ``g``, each
    as one expression."""
    cdf = 0.5 * (1.0 + erf(a * (1.0 / math.sqrt(2.0))))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * a * a)
    return a * cdf, g * (cdf + a * pdf)


def attention_composite(q, k, v, heads, g):
    """Multi-head attention as the composite of eleven tape entries it once
    was (reshape and transpose per input, a transpose of the keys, matmul,
    multiply by the scale, softmax, matmul, transpose, reshape), over arrays.
    Returns the output and, for output gradient ``g``, the ``(gq, gk, gv)``
    those entries' backward rules give in reverse tape order."""
    n = q.ndim - 2
    d_head = q.shape[-1] // heads
    perm = tuple(range(n)) + (n + 1, n, n + 2)
    swap = tuple(range(n + 1)) + (n + 2, n + 1)
    # forward, one line per entry
    rq, rk, rv = (a.reshape(a.shape[:-2] + (a.shape[-2], heads, d_head)) for a in (q, k, v))
    qh, kh, vh = (np.transpose(r, perm) for r in (rq, rk, rv))
    kt = np.transpose(kh, swap)
    s1 = qh @ kt
    scale = np.asarray(1.0 / math.sqrt(d_head))
    s2 = s1 * scale
    z = s2 - s2.max(axis=-1, keepdims=True)
    e = np.exp(z)
    att = e / e.sum(axis=-1, keepdims=True)
    c = att @ vh
    ct = np.transpose(c, perm)
    out = ct.reshape(q.shape)
    # backward, entries in reverse; the scale's own gradient is not formed
    g_c = np.transpose(g.reshape(ct.shape), np.argsort(perm))
    g_att = g_c @ np.swapaxes(vh, -1, -2)
    g_vh = np.swapaxes(att, -1, -2) @ g_c
    g_s2 = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))
    g_s1 = g_s2 * scale
    g_qh = g_s1 @ np.swapaxes(kt, -1, -2)
    g_kt = np.swapaxes(qh, -1, -2) @ g_s1
    g_kh = np.transpose(g_kt, np.argsort(swap))
    grads = tuple(np.transpose(gh, np.argsort(perm)).reshape(a.shape)
                  for gh, a in ((g_qh, q), (g_kh, k), (g_vh, v)))
    return out, grads
