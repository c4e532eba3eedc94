"""Single-file checkpoint container.

Layout: 8-byte magic, u32 format version, u64 header length, JSON header,
then concatenated little-endian float32 payloads in header order.  The
header carries the kind tag, a config snapshot, and the name/shape manifest
of every array.

Models run in float64 and a checkpoint stores each value's float32
rounding, so save -> load rounds.  Loading materializes exactly the stored
f32 values, so a save -> load -> save cycle is byte-identical.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, ParseError

MAGIC = b"RVQTCKPT"
FORMAT_VERSION = 1


def save_arrays(path: str | Path, kind: str, config: dict,
                arrays: dict[str, np.ndarray]) -> None:
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]
    header = json.dumps({"format_version": FORMAT_VERSION, "kind": kind,
                         "config": config, "arrays": manifest},
                        sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_arrays(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FORMAT_VERSION:
            raise CompatibilityError(
                f"{path}: format_version {version} != supported {FORMAT_VERSION}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        try:
            header = json.loads(fh.read(hlen))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: corrupt header ({exc})") from None
        arrays: dict[str, np.ndarray] = {}
        for item in header["arrays"]:
            shape = tuple(item["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(4 * count)
            if len(buf) != 4 * count:
                raise ParseError(f"{path}: truncated payload at array {item['name']!r}")
            arrays[item["name"]] = np.frombuffer(buf, dtype="<f4").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise ParseError(f"{path}: trailing bytes after declared payload")
    return header["kind"], header["config"], arrays


def require_field(config: dict, field: str, expected) -> None:
    """Raise a CompatibilityError naming the field when values disagree."""
    if field not in config:
        raise CompatibilityError(f"checkpoint missing config field {field!r}")
    if config[field] != expected:
        raise CompatibilityError(
            f"checkpoint field {field!r} is {config[field]!r}, runtime expects {expected!r}")


def restore_params(params, arrays: dict[str, np.ndarray]) -> None:
    """Load each parameter from its ``param.<name>`` array as float64.

    A missing array or a shape that differs from the runtime parameter
    raises a CompatibilityError naming the parameter.
    """
    for p in params:
        key = f"param.{p.name}"
        if key not in arrays:
            raise CompatibilityError(f"checkpoint missing parameter {p.name!r}")
        if tuple(arrays[key].shape) != p.data.shape:
            raise CompatibilityError(
                f"checkpoint field {p.name!r} has shape {arrays[key].shape}, "
                f"runtime expects {p.data.shape}")
        p.tensor.data = arrays[key].astype(np.float64)
