"""Spectrum round trips, phase-loss identities, and the composite objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok import autodiff as ad
from rvqtok.autodiff import Tensor, grad_check
from rvqtok.errors import ConfigError, ShapeError
from rvqtok.spectral import (PhasePrediction, SpectralTarget, chord_loss,
                             forward_spectrum, inverse_spectrum,
                             tokenizer_loss, unit_circle_loss)


def _pred_from_target(t: SpectralTarget) -> PhasePrediction:
    return PhasePrediction(t.log_amp.copy(), t.sin_phase.copy(), t.cos_phase.copy())


class TestForwardSpectrum:
    def test_pure_cosine_hits_single_bin(self):
        t = np.arange(200) / 200.0
        x = np.cos(2 * math.pi * 10.0 * t)
        tgt = forward_spectrum(x)
        amp = np.expm1(tgt.log_amp)
        assert abs(amp[10] - 1.0) < 1e-9
        assert abs(tgt.log_amp[10] - math.log(2.0)) < 1e-9
        mask = np.ones(101, bool)
        mask[10] = False
        assert np.abs(amp[mask]).max() < 1e-9
        assert abs(tgt.cos_phase[10] - 1.0) < 1e-9

    def test_zero_patch_zero_log_amp(self):
        tgt = forward_spectrum(np.zeros(64))
        np.testing.assert_array_equal(tgt.log_amp, 0.0)

    def test_pure_sine_phase_is_minus_half_pi(self):
        t = np.arange(200) / 200.0
        x = np.sin(2 * math.pi * 5.0 * t)
        tgt = forward_spectrum(x)
        assert abs(tgt.sin_phase[5] + 1.0) < 1e-9
        assert abs(tgt.cos_phase[5]) < 1e-9

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            forward_spectrum(np.zeros(63))

    def test_unit_norm_phase_invariant(self):
        rng = np.random.default_rng(0)
        tgt = forward_spectrum(rng.normal(size=64))
        np.testing.assert_allclose(tgt.sin_phase ** 2 + tgt.cos_phase ** 2, 1.0,
                                   atol=1e-9)


class TestInverseSpectrum:
    @pytest.mark.parametrize("w", [64, 200])
    def test_round_trip_many_patches(self, w):
        rng = np.random.default_rng(w)
        for _ in range(50):
            x = rng.normal(size=w)
            back = inverse_spectrum(forward_spectrum(x))
            assert np.abs(back - x).max() < 1e-6

    def test_all_zero_target(self):
        tgt = SpectralTarget(np.zeros(33), np.zeros(33), np.ones(33), 64)
        np.testing.assert_allclose(inverse_spectrum(tgt), 0.0, atol=1e-300)

    def test_pure_cosine_waveform(self):
        t = np.arange(200) / 200.0
        x = np.cos(2 * math.pi * 10.0 * t)
        back = inverse_spectrum(forward_spectrum(x))
        assert np.abs(back - x).max() < 1e-6

    def test_parseval_energy(self):
        rng = np.random.default_rng(2)
        for w in (64, 200):
            x = rng.normal(size=w)
            tgt = forward_spectrum(x)
            amp = np.expm1(tgt.log_amp)
            implied = amp[0] ** 2 + amp[-1] ** 2 + 0.5 * np.sum(amp[1:-1] ** 2)
            actual = np.mean(x ** 2)
            assert abs(implied - actual) / actual < 1e-6

    def test_negative_amplitude_clamped(self):
        pred = PhasePrediction(np.full(33, -2.0), np.zeros(33), np.ones(33))
        out = inverse_spectrum(pred, patch_length=64)
        np.testing.assert_allclose(out, 0.0, atol=1e-300)


class TestChordLoss:
    def test_equal_angles_zero(self):
        assert chord_loss(0.7, 0.7) == 0.0

    def test_right_angle(self):
        assert abs(chord_loss(0.0, math.pi / 2) - 2.0) < 1e-12

    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_matches_both_closed_forms(self, p1, p2):
        c = chord_loss(p1, p2)
        assert abs(c - (2.0 - 2.0 * math.cos(p1 - p2))) < 1e-12
        assert abs(c - 4.0 * math.sin((p1 - p2) / 2.0) ** 2) < 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_boundary_continuity(self, eps):
        assert chord_loss(math.pi - eps, -math.pi + eps) <= 5.0 * eps * eps


class TestUnitCircleLoss:
    def _target(self, phis, w=None):
        phis = np.asarray(phis, dtype=float)
        return SpectralTarget(np.zeros_like(phis), np.sin(phis), np.cos(phis),
                              w or 2 * (len(phis) - 1))

    def test_exact_prediction_zero_loss(self):
        rng = np.random.default_rng(3)
        tgt = self._target(rng.uniform(-math.pi, math.pi, size=17))
        pred = _pred_from_target(tgt)
        assert abs(unit_circle_loss(pred, tgt, 0.4).item()) < 1e-12

    def test_zero_prediction_penalty(self):
        tgt = self._target(np.zeros(9))
        pred = PhasePrediction(np.zeros(9), np.zeros(9), np.zeros(9))
        loss = unit_circle_loss(pred, tgt, lambda_circle=0.4).item()
        # alignment term contributes 1 (dot 0), penalty lambda * 1 per bin
        assert abs(loss - (1.0 + 0.4)) < 1e-9

    def test_boundary_continuity_through_loss(self):
        eps = 1e-3
        tgt = self._target([-math.pi + eps])
        pred = PhasePrediction(np.zeros(1), np.array([math.sin(math.pi - eps)]),
                               np.array([math.cos(math.pi - eps)]))
        loss = unit_circle_loss(pred, tgt, lambda_circle=0.4).item()
        assert abs(loss - (1.0 - math.cos(2 * eps))) < 1e-9
        assert loss < 5e-6

    def test_nonnegative_and_zero_only_when_aligned(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            phis = rng.uniform(-math.pi, math.pi, size=8)
            tgt = self._target(phis)
            scale = rng.uniform(0.2, 2.0)
            pred = PhasePrediction(np.zeros(8), scale * np.sin(phis), scale * np.cos(phis))
            loss = unit_circle_loss(pred, tgt, 0.4).item()
            assert loss >= -1e-12
            if abs(scale - 1.0) > 1e-6:
                assert loss > 0.0
            # the alignment term divides by |v| once, so it ignores the scale
            assert abs(unit_circle_loss(pred, tgt, 0.0).item()) < 1e-12

    def test_bin_permutation_invariance(self):
        rng = np.random.default_rng(7)
        phis = rng.uniform(-math.pi, math.pi, size=12)
        noise = rng.normal(size=(2, 12)) * 0.3
        tgt = self._target(phis)
        pred = PhasePrediction(np.zeros(12), np.sin(phis) + noise[0], np.cos(phis) + noise[1])
        base = unit_circle_loss(pred, tgt, 0.4).item()
        perm = rng.permutation(12)
        tgt_p = SpectralTarget(tgt.log_amp[perm], tgt.sin_phase[perm],
                               tgt.cos_phase[perm], tgt.patch_length)
        pred_p = PhasePrediction(np.zeros(12), (np.sin(phis) + noise[0])[perm],
                                 (np.cos(phis) + noise[1])[perm])
        assert abs(unit_circle_loss(pred_p, tgt_p, 0.4).item() - base) < 1e-12

    def test_length_mismatch_rejected(self):
        tgt = self._target(np.zeros(5))
        pred = PhasePrediction(np.zeros(4), np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeError):
            unit_circle_loss(pred, tgt, 0.4)


class TestTokenizerLoss:
    def test_exact_prediction_total_zero(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=64)
        tgt = forward_spectrum(x)
        total, parts = tokenizer_loss(_pred_from_target(tgt), tgt, x)
        assert abs(total.item()) < 1e-12
        assert abs(parts["total"] - (parts["log_amp"] + parts["unit"] + parts["temporal"])) < 1e-9

    def test_phase_flip_gives_unit_loss_two(self):
        t = np.arange(64) / 64.0
        x = np.cos(2 * math.pi * 8 * t)
        tgt = forward_spectrum(x)
        pred = PhasePrediction(tgt.log_amp.copy(), -tgt.sin_phase, -tgt.cos_phase)
        loss = unit_circle_loss(pred, tgt, lambda_circle=0.4).item()
        assert abs(loss - 2.0) < 1e-9

    def test_zero_pred_on_zero_patch(self):
        x = np.zeros(64)
        tgt = forward_spectrum(x)
        nb = 33
        # cos=1 keeps the phase vector on the circle; zero patch has phase 0
        pred = PhasePrediction(np.zeros(nb), np.zeros(nb), np.ones(nb))
        total, _ = tokenizer_loss(pred, tgt, x)
        assert abs(total.item()) < 1e-12

    def test_batched_patches(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 64))
        tgt = forward_spectrum(x)
        total, parts = tokenizer_loss(_pred_from_target(tgt), tgt, x)
        assert abs(total.item()) < 1e-12

    def test_gradients_through_all_terms(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=16)
        tgt = forward_spectrum(x)
        nb = 9

        def make(field):
            base = PhasePrediction(
                Tensor(0.3 * rng.normal(size=nb)),
                Tensor(0.5 + 0.3 * rng.normal(size=nb)),
                Tensor(0.5 + 0.3 * rng.normal(size=nb)))

            def f(t):
                kwargs = {
                    "log_amp_hat": base.log_amp_hat,
                    "sin_hat": base.sin_hat,
                    "cos_hat": base.cos_hat,
                }
                kwargs[field] = t
                total, _ = tokenizer_loss(PhasePrediction(**kwargs), tgt, x)
                return total

            return f

        for field in ("log_amp_hat", "sin_hat", "cos_hat"):
            start = {"log_amp_hat": 0.4 + 0.2 * rng.normal(size=nb),
                     "sin_hat": 0.6 + 0.2 * rng.normal(size=nb),
                     "cos_hat": 0.6 + 0.2 * rng.normal(size=nb)}[field]
            assert grad_check(make(field), Tensor(start)) < 1e-4

    def test_inverse_graph_matches_plain_inverse(self):
        rng = np.random.default_rng(19)
        la = np.abs(rng.normal(size=33)) * 0.5
        sin_p = rng.normal(size=33)
        cos_p = rng.normal(size=33)
        from rvqtok.spectral import _inverse_spectrum_graph
        graph = _inverse_spectrum_graph(Tensor(la), Tensor(sin_p), Tensor(cos_p), 64)
        plain = inverse_spectrum(PhasePrediction(la, sin_p, cos_p), patch_length=64)
        np.testing.assert_allclose(graph.data, plain, atol=1e-12)


def test_raw_phase_mse_baseline_discontinuity():
    # the squared-error-on-angles baseline blows up across the +-pi boundary
    eps = 1e-3
    raw = (math.pi - eps - (-math.pi + eps)) ** 2
    assert raw > 4 * math.pi ** 2 - 0.1
    assert chord_loss(math.pi - eps, -math.pi + eps) <= 5 * eps * eps
