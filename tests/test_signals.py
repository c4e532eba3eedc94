"""Recording I/O, filtering, and the synthetic generator."""

import math

import numpy as np
import pytest

from rvqtok.errors import ConfigError, ParseError
from rvqtok.signals import (BandSpec, Recording, STANDARD_BANDS, SynthSpec,
                            bandpass, load_recording, save_recording,
                            synth_generate)

BANDS = {b.name: b for b in STANDARD_BANDS}


def _sine_recording(freq=10.0, rate=200.0, seconds=2.0, channels=2):
    t = np.arange(int(rate * seconds)) / rate
    data = np.vstack([np.sin(2 * math.pi * freq * t) for _ in range(channels)])
    return Recording(rate, [f"C{i}" for i in range(channels)], data)


class TestRecordingIO:
    def test_csv_round_trip(self, tmp_path):
        rec = _sine_recording(channels=2)
        path = tmp_path / "rec.csv"
        save_recording(rec, path, format="csv")
        back = load_recording(path, format="csv")
        assert back.n_channels == 2 and back.n_samples == 400
        assert back.sample_rate == 200.0
        np.testing.assert_allclose(back.data, rec.data, rtol=0, atol=0)

    def test_csv_header_channel_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=200 channels=a,b,c\n0.0,1.0\n")
        with pytest.raises(ParseError):
            load_recording(path, format="csv")

    def test_csv_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("# rate=200 channels=a\n0.0\nnan\n")
        with pytest.raises(ParseError):
            load_recording(path, format="csv")

    def test_raw_f32_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 50)).astype(np.float32).astype(np.float64)
        rec = Recording(128.0, ["x", "y", "z"], data)
        path = tmp_path / "rec.f32"
        save_recording(rec, path, format="raw-f32")
        back = load_recording(path, format="raw-f32")
        assert np.array_equal(back.data, rec.data)
        assert back.channels == ["x", "y", "z"]

    def test_raw_f32_size_mismatch(self, tmp_path):
        path = tmp_path / "rec.f32"
        np.zeros(7, dtype="<f4").tofile(path)
        (tmp_path / "rec.f32.json").write_text(
            '{"rate": 100, "channels": ["a", "b"], "samples": 4}')
        with pytest.raises(ParseError):
            load_recording(path, format="raw-f32")


class TestBandpass:
    def test_passband_preserves_amplitude(self):
        rate = 200.0
        t = np.arange(400) / rate
        x = np.sin(2 * math.pi * 10.0 * t)
        y = bandpass(x, BANDS["alpha"], rate)
        mid = slice(100, 300)
        assert np.abs(y[mid]).max() > 0.95
        assert np.abs(y[mid]).max() < 1.05

    def test_stopband_attenuates(self):
        rate = 200.0
        t = np.arange(400) / rate
        x = np.sin(2 * math.pi * 10.0 * t)
        y = bandpass(x, BANDS["gamma"], rate)
        mid = slice(100, 300)
        rms_in = np.sqrt(np.mean(x[mid] ** 2))
        rms_out = np.sqrt(np.mean(y[mid] ** 2))
        assert rms_out < 0.02 * rms_in

    def test_zero_input_zero_output(self):
        y = bandpass(np.zeros(256), BANDS["beta"], 128.0)
        np.testing.assert_allclose(y, 0.0, atol=1e-300)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 256))
        band = BANDS["theta"]
        lhs = bandpass(2.5 * x - 1.5 * y, band, 128.0)
        rhs = 2.5 * bandpass(x, band, 128.0) - 1.5 * bandpass(y, band, 128.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_edge_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            bandpass(np.zeros(128), BandSpec("bad", 10.0, 40.0), 64.0)


class TestSynthGenerate:
    def test_single_alpha_component_power_in_band(self):
        spec = SynthSpec(sample_rate=128.0, duration=8.0, n_channels=1,
                         components_per_band={"alpha": 1},
                         amplitude_ranges={"alpha": (1.0, 1.0)},
                         noise_level=0.0, seed=5)
        rec = synth_generate(spec)
        mid = slice(rec.n_samples // 4, 3 * rec.n_samples // 4)
        total = np.mean(rec.data[0, mid] ** 2)
        in_band = bandpass(rec.data[0], BANDS["alpha"], 128.0)
        assert np.mean(in_band[mid] ** 2) > 0.95 * total

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(seed=9)
        a, b = synth_generate(spec), synth_generate(spec)
        assert np.array_equal(a.data, b.data)

    def test_zero_spec_all_zero(self):
        spec = SynthSpec(components_per_band={}, noise_level=0.0, seed=1,
                         duration=2.0, n_channels=2)
        rec = synth_generate(spec)
        np.testing.assert_array_equal(rec.data, 0.0)

    def test_out_of_band_leakage_small(self):
        spec = SynthSpec(sample_rate=128.0, duration=8.0, n_channels=1,
                         components_per_band={"theta": 2},
                         amplitude_ranges={"theta": (1.0, 1.0)},
                         noise_level=0.0, seed=11)
        rec = synth_generate(spec)
        mid = slice(rec.n_samples // 4, 3 * rec.n_samples // 4)
        rms_total = np.sqrt(np.mean(rec.data[0, mid] ** 2))
        for name in ("alpha", "beta", "gamma"):
            out = bandpass(rec.data[0], BANDS[name], 128.0)
            assert np.sqrt(np.mean(out[mid] ** 2)) < 0.05 * rms_total


def test_standard_bands_cover_expected_names():
    assert [b.name for b in STANDARD_BANDS] == ["delta", "theta", "alpha", "beta", "gamma"]
    low, high = BANDS["gamma"].edges(200.0)
    assert low == 30.0 and abs(high - 95.0) < 1e-12
