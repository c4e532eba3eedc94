"""Helpers several test modules share: reading a checkpoint's arrays
without a model, the chord distance between phases, and the earlier forms of
three tape primitives that the in-place forms must match bit for bit."""

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
