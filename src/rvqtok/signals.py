"""Recordings, patch segmentation, band filtering and synthetic signal generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import butter, sosfiltfilt

from .errors import ConfigError, ParseError


@dataclass
class Recording:
    """A multichannel sampled signal: data rows are channels."""

    sample_rate: float
    channels: list[str]
    data: np.ndarray  # (C, T)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ConfigError(f"recording data must be 2-D (C, T), got {self.data.shape}")
        if self.data.shape[0] != len(self.channels):
            raise ConfigError(
                f"{len(self.channels)} channel names but {self.data.shape[0]} data rows")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.isfinite(self.data).all():
            raise ConfigError("recording contains non-finite samples")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class PatchGrid:
    """Fixed-length patches with (channel, time-slot) provenance.

    ``channel_idx`` indexes the global electrode list, not the source
    recording's local channel order.
    """

    patches: np.ndarray       # (P, w)
    channel_idx: np.ndarray   # (P,) into the global electrode list
    slot_idx: np.ndarray      # (P,) time slot within the recording
    patch_length: int
    sample_rate: float

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]


@dataclass(frozen=True)
class BandSpec:
    """A frequency band; ``high=None`` means open-ended (clamped to Nyquist)."""

    name: str
    low: float
    high: float | None

    def edges(self, sample_rate: float) -> tuple[float, float]:
        nyq = sample_rate / 2.0
        high = 0.95 * nyq if self.high is None else self.high
        if not (0.0 <= self.low < high):
            raise ConfigError(f"band {self.name}: invalid edges ({self.low}, {high})")
        if high >= nyq:
            raise ConfigError(
                f"band {self.name}: high edge {high} Hz >= Nyquist {nyq} Hz")
        return self.low, high


#: The canonical rhythm bands; the open gamma edge clamps to 0.95 x Nyquist.
STANDARD_BANDS: tuple[BandSpec, ...] = (
    BandSpec("delta", 0.5, 4.0),
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 13.0),
    BandSpec("beta", 13.0, 30.0),
    BandSpec("gamma", 30.0, None),
)


def band_by_name(name: str) -> BandSpec:
    for b in STANDARD_BANDS:
        if b.name == name:
            return b
    raise ConfigError(f"unknown band {name!r}")


#: Band amplitude ranges following the 1/f-like decay of real recordings.
DEFAULT_AMPLITUDES: dict[str, tuple[float, float]] = {
    "delta": (0.8, 1.2), "theta": (0.5, 0.9), "alpha": (0.5, 0.9),
    "beta": (0.2, 0.4), "gamma": (0.1, 0.2),
}
#: Component frequencies are drawn this fraction of the band width inside
#: each band edge, keeping their power clear of the Butterworth -3 dB
#: roll-off at the edges.
BAND_MARGIN = 0.25
#: Range of the per-channel gain magnitude of each component.
CHANNEL_GAIN_RANGE = (0.5, 1.0)


@dataclass
class SynthSpec:
    """Deterministic generator spec for multi-band sinusoid + pink-noise signals.

    Components are drawn once per recording and projected to every channel
    with a random signed gain (volume-conduction style), so channels share
    sources.
    """

    sample_rate: float = 128.0
    duration: float = 24.0
    n_channels: int = 4
    components_per_band: dict[str, int] = field(
        default_factory=lambda: {b.name: 1 for b in STANDARD_BANDS})
    amplitude_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_AMPLITUDES))
    noise_level: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name, rng in self.amplitude_ranges.items():
            if rng[0] < 0 or rng[1] < rng[0]:
                raise ConfigError(f"amplitude range for {name} must be 0 <= lo <= hi")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be non-negative")


# ---------------------------------------------------------------------------
# file I/O


def save_recording(rec: Recording, path: str | Path, format: str = "csv") -> None:
    path = Path(path)
    if format == "csv":
        with open(path, "w") as fh:
            fh.write(f"# rate={rec.sample_rate:g} channels={','.join(rec.channels)}\n")
            for t in range(rec.n_samples):
                fh.write(",".join(repr(float(v)) for v in rec.data[:, t]) + "\n")
    elif format == "raw-f32":
        rec.data.astype("<f4").tofile(path)
        sidecar = {"rate": rec.sample_rate, "channels": rec.channels,
                   "samples": rec.n_samples}
        Path(str(path) + ".json").write_text(json.dumps(sidecar))
    else:
        raise ConfigError(f"unknown recording format {format!r}")


def load_recording(path: str | Path, format: str = "csv") -> Recording:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"recording file not found: {path}")
    if format == "csv":
        return _load_csv(path)
    if format == "raw-f32":
        return _load_raw_f32(path)
    raise ConfigError(f"unknown recording format {format!r}")


def _load_csv(path: Path) -> Recording:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ParseError(f"{path}: missing '# rate=... channels=...' header line")
        rate = None
        channels = None
        for tok in header.lstrip("#").split():
            if tok.startswith("rate="):
                try:
                    rate = float(tok[5:])
                except ValueError:
                    raise ParseError(f"{path}: bad rate field {tok!r}") from None
            elif tok.startswith("channels="):
                channels = tok[9:].split(",")
        if rate is None or channels is None:
            raise ParseError(f"{path}: header must declare rate= and channels=")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(channels):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(channels)} columns, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric sample") from None
        data = np.asarray(rows, dtype=np.float64).T if rows else np.zeros((len(channels), 0))
        if data.size and not np.isfinite(data).all():
            bad = np.argwhere(~np.isfinite(data))[0]
            raise ParseError(
                f"{path}: non-finite sample at channel {bad[0]}, row {bad[1] + 2}")
        return Recording(rate, channels, data)


def _load_raw_f32(path: Path) -> Recording:
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise ParseError(f"missing sidecar header {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
        rate = float(meta["rate"])
        channels = list(meta["channels"])
        samples = int(meta["samples"])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"{sidecar}: malformed sidecar ({exc})") from None
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != len(channels) * samples:
        raise ParseError(
            f"{path}: payload holds {raw.size} floats, header implies "
            f"{len(channels)} x {samples}")
    data = raw.reshape(len(channels), samples).astype(np.float64)
    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}: non-finite sample at channel {bad[0]}, index {bad[1]}")
    return Recording(rate, channels, data)


def load_electrode_list(path: str | Path) -> list[str]:
    """Global electrode list: one name per line, blank lines ignored."""
    names = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate electrode names")
    return names


# ---------------------------------------------------------------------------
# segmentation


def segment_patches(rec: Recording, w: int,
                    electrodes: list[str] | None = None) -> PatchGrid:
    """Cut each channel into non-overlapping length-w windows.

    A trailing remainder shorter than w is discarded.  Patch order is
    row-major over (channel, slot).  ``electrodes`` maps channel names to
    global indices; by default the recording's own order is the global list.
    """
    if rec.n_samples < w:
        raise ConfigError(
            f"recording has {rec.n_samples} samples, shorter than one {w}-sample patch")
    n_slots = rec.n_samples // w
    if electrodes is None:
        chan_global = np.arange(rec.n_channels)
    else:
        try:
            chan_global = np.array([electrodes.index(c) for c in rec.channels])
        except ValueError as exc:
            raise ConfigError(f"channel not in global electrode list: {exc}") from None
    clipped = rec.data[:, :n_slots * w].reshape(rec.n_channels, n_slots, w)
    patches = clipped.reshape(rec.n_channels * n_slots, w)
    channel_idx = np.repeat(chan_global, n_slots)
    slot_idx = np.tile(np.arange(n_slots), rec.n_channels)
    return PatchGrid(patches, channel_idx, slot_idx, w, rec.sample_rate)


# ---------------------------------------------------------------------------
# filtering and resampling


def bandpass(x: np.ndarray, band: BandSpec, sample_rate: float) -> np.ndarray:
    """Zero-phase 4th-order Butterworth band-pass along the last axis."""
    low, high = band.edges(sample_rate)
    sos = butter(4, [low, high], btype="bandpass", fs=sample_rate, output="sos")
    x = np.asarray(x, dtype=np.float64)
    # clamp the edge padding for inputs shorter than the default transient pad
    padlen = min(x.shape[-1] - 1, 3 * (2 * sos.shape[0] + 1))
    return sosfiltfilt(sos, x, axis=-1, padlen=padlen)


def resample_linear(rec: Recording, target_rate: float) -> Recording:
    """Linear-interpolation resampling.

    Approximation only: no anti-alias filter is applied, so when
    downsampling the caller is responsible for band-limiting first.
    """
    if target_rate <= 0:
        raise ConfigError(f"target_rate must be positive, got {target_rate}")
    if target_rate == rec.sample_rate:
        return Recording(rec.sample_rate, list(rec.channels), rec.data.copy(),
                         rec.labels)
    duration = rec.n_samples / rec.sample_rate
    n_out = int(round(duration * target_rate))
    t_src = np.arange(rec.n_samples) / rec.sample_rate
    t_dst = np.arange(n_out) / target_rate
    out = np.vstack([np.interp(t_dst, t_src, row) for row in rec.data])
    return Recording(target_rate, list(rec.channels), out, None)


# ---------------------------------------------------------------------------
# synthetic signals


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-shaped noise via spectral shaping of white noise, unit RMS."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    shape = np.ones_like(freqs)
    nonzero = freqs > 0
    # 1/sqrt(f) amplitude profile, flat below the first bin
    shape[nonzero] = 1.0 / np.sqrt(freqs[nonzero] / freqs[nonzero][0])
    out = np.fft.irfft(spec * shape, n=n)
    rms = np.sqrt(np.mean(out ** 2))
    return out / rms if rms > 0 else out


def synth_generate(spec: SynthSpec) -> Recording:
    """Sum of per-band sinusoids plus pink noise, fully determined by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.duration * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    data = np.zeros((spec.n_channels, n))
    g_lo, g_hi = CHANNEL_GAIN_RANGE
    for band in STANDARD_BANDS:
        count = spec.components_per_band.get(band.name, 0)
        if count == 0:
            continue
        lo_amp, hi_amp = spec.amplitude_ranges.get(band.name, (0.0, 0.0))
        low, high = band.edges(spec.sample_rate)
        margin = BAND_MARGIN * (high - low)
        for _ in range(count):
            freq = rng.uniform(low + margin, high - margin)
            phase = rng.uniform(-math.pi, math.pi)
            amp = rng.uniform(lo_amp, hi_amp)
            wave = amp * np.cos(2.0 * math.pi * freq * t + phase)
            gains = rng.uniform(g_lo, g_hi, size=spec.n_channels)
            gains *= rng.choice([-1.0, 1.0], size=spec.n_channels)
            data += gains[:, None] * wave
    for ch in range(spec.n_channels):
        if spec.noise_level > 0:
            data[ch] += spec.noise_level * _pink_noise(rng, n)
    names = [f"SYN{c}" for c in range(spec.n_channels)]
    return Recording(spec.sample_rate, names, data)
