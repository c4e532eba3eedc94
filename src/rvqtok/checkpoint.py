"""Single-file checkpoint container.

Layout: 8-byte magic, u32 format version, u64 header length, JSON header,
then concatenated little-endian float32 payloads in header order.  The
header carries the kind tag, the model's config, and the name/shape
manifest of every array.

A checkpoint stores what inference reads: every parameter and, for a
tokenizer, every codebook's entries.  Training state (EMA cluster sizes and
sums, AdamW moments and step counts, usage counts, reservoirs) is not
stored; a model trained after loading starts that state afresh.  Files
written before the EMA arrays were dropped still load: arrays the runtime
has no place for are skipped.

The config part of the header is written and read here only:
``config_header`` stores the encoder's fields flat beside the fields the
config's class names in ``HEADER_FIELDS``, and ``config_from_header``
rebuilds the config, looking each field up by name so that a missing one
is reported rather than defaulted, and checking each value's type.

Headers of older files may carry settings the runtime has since dropped.
``dtype`` is ignored.  The settings in ``DROPPED_FIELDS`` are ignored at
the one value the runtime implements; any other value is rejected with a
CompatibilityError naming the key, since the stored arrays would otherwise
load into a different model.

Models run in float64 and a checkpoint stores each value's float32
rounding, so save -> load rounds.  Loading materializes exactly the stored
f32 values, so a save -> load -> save cycle is byte-identical.  A loaded
model holds its parameters in float64 and its codebook entries as the
stored float32 arrays (widening them is exact, and training widens them
first).

``restore`` loads a model without a second copy of it: the model is built
from the header with every array zeroed (``ZeroDraws`` stands in for the
random generator), then each payload array is read straight into its
destination, float64 or float32, one array in flight at a time.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .encoder import BranchConfig, EncoderConfig
from .errors import CompatibilityError, ConfigError, ParseError, ShapeError

MAGIC = b"RVQTCKPT"
FORMAT_VERSION = 1

Model = TypeVar("Model")

#: Settings older headers stored that the runtime has dropped, each at the
#: one value the runtime implements.
DROPPED_FIELDS = {"fusion": "sum", "qk_norm": True}


class ZeroDraws:
    """Stands in for ``np.random.Generator`` when a model is built only to be
    filled from a checkpoint: every draw is zeros of the requested size, so
    building costs no random draws and large arrays take no memory until the
    checkpoint writes them.

    ``normal`` draws codebook entries, the models' only normal draws, and
    gives them in float32, the dtype a loaded book keeps; the other draws
    are float64 parameters.
    """

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.zeros(size, dtype=np.float32)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.zeros(size)

    def standard_normal(self, size=None) -> np.ndarray:
        return np.zeros(size)


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
            fh.write(np.ascontiguousarray(a, dtype="<f4"))


def _nbytes(shape: tuple) -> int:
    return 4 * math.prod(shape)


def _read(fh, n: int, path: Path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ParseError(f"{path}: truncated {what}")
    return buf


@contextmanager
def _payload(path: Path):
    """Open a checkpoint and check its framing before any payload is read.

    Yields the file positioned at the first payload byte, the header's kind
    and config, and the manifest as (name, shape) pairs.  A file that cannot
    be read, bad magic, a corrupt header and a payload shorter or longer
    than the manifest declares raise a ParseError naming the path; another
    format version raises a CompatibilityError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read checkpoint {path}: "
                         f"{exc.strerror or exc}") from None
    with fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read(fh, 4, path, "version"))
        if version != FORMAT_VERSION:
            raise CompatibilityError(
                f"{path}: format_version {version} != supported {FORMAT_VERSION}")
        (hlen,) = struct.unpack("<Q", _read(fh, 8, path, "header length"))
        try:
            header = json.loads(_read(fh, hlen, path, "header"))
            kind, config = header["kind"], header["config"]
            manifest = [(item["name"], tuple(item["shape"]))
                        for item in header["arrays"]]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError) as exc:
            raise ParseError(f"{path}: corrupt header ({exc})") from None
        for name, shape in manifest:
            if not all(isinstance(n, int) and n >= 0 for n in shape):
                raise ParseError(f"{path}: corrupt header (array {name!r} "
                                 f"has shape {list(shape)})")
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, shape in manifest:
            available -= _nbytes(shape)
            if available < 0:
                raise ParseError(f"{path}: truncated payload at array {name!r}")
        if available:
            raise ParseError(f"{path}: trailing bytes after declared payload")
        yield fh, kind, config, manifest


def _next_array(fh, path: Path, name: str, shape: tuple) -> np.ndarray:
    """The next stored array as a read-only float32 view of its bytes."""
    buf = _read(fh, _nbytes(shape), path, f"payload at array {name!r}")
    return np.frombuffer(buf, dtype="<f4").reshape(shape)


def restore(path: str | Path, kind: str,
            build: Callable[[dict], tuple[Model, dict[str, np.ndarray]]]) -> Model:
    """Load a checkpoint of ``kind`` into a model built from its config.

    ``build(config)`` returns the model and its destination arrays, float64
    or float32, by stored name.  A config field it looks up and does not
    find raises a CompatibilityError naming the field, and a field of the
    wrong type or value a ParseError naming the path.  Every destination
    must be stored with its shape, or a CompatibilityError names it; each
    stored array is then written into its destination in place (widened
    for a float64 one, copied as it is into a float32 one), and stored
    arrays without one are skipped.  A stored array with a NaN or infinite
    value raises a ParseError naming it, before it is copied.
    """
    path = Path(path)
    with _payload(path) as (fh, stored_kind, config, manifest):
        if stored_kind != kind:
            raise CompatibilityError(
                f"checkpoint kind {stored_kind!r}, expected {kind!r}")
        try:
            model, dests = build(config)
        except KeyError as exc:
            raise CompatibilityError(
                f"checkpoint missing config field {exc.args[0]!r}") from None
        except (CompatibilityError, ConfigError, ShapeError):
            raise  # already names what is wrong
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed config header ({exc})") from None
        shapes = dict(manifest)
        for name, dest in dests.items():
            if name not in shapes:
                raise CompatibilityError(f"checkpoint missing array {name!r}")
            if shapes[name] != dest.shape:
                raise CompatibilityError(
                    f"checkpoint array {name!r} has shape {shapes[name]}, "
                    f"runtime expects {dest.shape}")
        for name, shape in manifest:
            if name in dests:
                stored = _next_array(fh, path, name, shape)
                if not np.isfinite(stored).all():
                    raise ParseError(f"{path}: non-finite values in array {name!r}")
                dests[name][...] = stored
            else:
                fh.seek(_nbytes(shape), os.SEEK_CUR)
    return model


def config_header(cfg) -> dict:
    """The header form of a tokenizer or pretraining config: the encoder's
    fields flat, beside the fields its class names in ``HEADER_FIELDS``."""
    return {**asdict(cfg.encoder),
            **{name: getattr(cfg, name) for name in cfg.HEADER_FIELDS}}


def _build(cls, record: dict, names=None, **given):
    """``cls`` with each field of ``names`` (default: every field not
    ``given``) looked up in ``record``.  A value must match its field's
    default: an int field takes a JSON integer (not a boolean), a float
    field an integer or a finite number, and a tuple field a list of as many
    integers, which becomes a tuple; any other value raises a TypeError
    naming the field."""
    values = {}
    for f in fields(cls):
        if f.name in given or (names is not None and f.name not in names):
            continue
        v, want = record[f.name], f.default
        if type(want) is tuple:
            ok = (type(v) is list and len(v) == len(want)
                  and all(type(n) is int for n in v))
            v = tuple(v) if ok else v
        elif type(want) is float:
            ok = type(v) in (int, float) and math.isfinite(v)
        else:
            ok = type(v) is type(want)
        if not ok:
            raise TypeError(f"{f.name} is {v!r}, not a {type(want).__name__} "
                            f"like {want!r}")
        values[f.name] = v
    return cls(**values, **given)


def config_from_header(cls, header: dict):
    """Inverse of :func:`config_header`.  A missing field raises a KeyError
    naming it, a value of the wrong type a TypeError, and a dropped setting
    at another value than the implemented one a CompatibilityError."""
    for name, implemented in DROPPED_FIELDS.items():
        if name in header and header[name] != implemented:
            raise CompatibilityError(
                f"checkpoint field {name!r} is {header[name]!r}; this runtime "
                f"implements only {implemented!r}")
    branches = [_build(BranchConfig, b) for b in header["branches"]]
    return _build(cls, header, cls.HEADER_FIELDS,
                  encoder=_build(EncoderConfig, header, branches=branches))


def require_fields(header: dict, expected: dict, names) -> None:
    """Raise a CompatibilityError naming the first of ``names`` on which
    ``header`` disagrees with the ``expected`` header."""
    for name in names:
        if name not in header:
            raise CompatibilityError(f"checkpoint missing config field {name!r}")
        if header[name] != expected[name]:
            raise CompatibilityError(f"checkpoint field {name!r} is {header[name]!r}, "
                                     f"runtime expects {expected[name]!r}")
