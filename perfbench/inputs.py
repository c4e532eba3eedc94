"""Seeded benchmark inputs: multichannel sums of band-limited sinusoids plus
white noise.

The generator is kept here, apart from ``rvqtok.signals.synth_generate``, so
that a change to the program's own generator cannot change what the
benchmark feeds it.  The program only ever sees the finished ``Recording``s.
"""

from __future__ import annotations

import numpy as np

#: (low Hz, high Hz or None for 0.95 x Nyquist, amplitude range) per band.
BANDS = (
    (0.5, 4.0, (0.8, 1.2)),
    (4.0, 8.0, (0.5, 0.9)),
    (8.0, 13.0, (0.5, 0.9)),
    (13.0, 30.0, (0.2, 0.4)),
    (30.0, None, (0.1, 0.2)),
)
#: Frequencies are drawn this fraction inside each band's edges.
BAND_MARGIN = 0.25
#: Sinusoids per band, each with its own frequency, amplitude and phase.
COMPONENTS_PER_BAND = 3
NOISE_LEVEL = 0.02


def make_recording(rng: np.random.Generator, channels: int, rate: float,
                   duration: float) -> tuple[np.ndarray, list[str]]:
    """One (channels, samples) signal and its channel names.

    Each band contributes ``COMPONENTS_PER_BAND`` sinusoids at random
    frequencies inside the band, with random amplitudes (the band's range,
    split between its components) and phases; every channel mixes these
    sources with its own signed gains and adds independent white noise.
    """
    n = int(round(rate * duration))
    t = np.arange(n) / rate
    nyq = rate / 2.0
    sources = []
    for low, high, (a_lo, a_hi) in BANDS:
        high = 0.95 * nyq if high is None else min(high, 0.95 * nyq)
        pad = BAND_MARGIN * (high - low)
        for _ in range(COMPONENTS_PER_BAND):
            freq = rng.uniform(low + pad, high - pad)
            amp = rng.uniform(a_lo, a_hi) / np.sqrt(COMPONENTS_PER_BAND)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            sources.append(amp * np.sin(2.0 * np.pi * freq * t + phase))
    gains = (rng.uniform(0.5, 1.0, size=(channels, len(sources)))
             * rng.choice([-1.0, 1.0], size=(channels, len(sources))))
    data = gains @ np.stack(sources) + NOISE_LEVEL * rng.standard_normal((channels, n))
    return data, [f"ch{c}" for c in range(channels)]


def make_corpus(seed: int, recordings: int, channels: int, rate: float,
                duration: float) -> list:
    """``recordings`` seeded recordings as ``rvqtok.signals.Recording``s."""
    from rvqtok.signals import Recording

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(recordings):
        data, names = make_recording(rng, channels, rate, duration)
        out.append(Recording(rate, names, data))
    return out
