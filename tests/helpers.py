"""Helpers several test modules share: reading a checkpoint's arrays
without a model, and the chord distance between phases."""

from pathlib import Path

import numpy as np

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
