"""Fourier-domain reconstruction targets and the tokenizer loss terms.

Amplitude convention: the one-sided magnitude spectrum is scaled so a
unit-amplitude in-bin cosine yields amplitude 1 at its bin (factor 2/w for
interior bins, 1/w at DC and Nyquist).  Targets are stored as log(1+A) and
the phase as its sine/cosine pair, which is what the prediction heads emit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

#: Norm floor in the phase-alignment denominator.
NORM_EPS = 1e-8


@dataclass
class SpectralTarget:
    """Per-patch reconstruction target: log-amplitude and unit phase vector."""

    log_amp: np.ndarray    # (..., w/2+1), log(1+A) >= 0
    sin_phase: np.ndarray
    cos_phase: np.ndarray
    patch_length: int


@dataclass
class PhasePrediction:
    """Raw head outputs; no unit-norm constraint (the loss enforces it softly)."""

    log_amp_hat: Tensor | np.ndarray
    sin_hat: Tensor | np.ndarray
    cos_hat: Tensor | np.ndarray


@dataclass
class LossWeights:
    """Weights for the composite tokenizer objective."""

    lambda_circle: float = 0.4

    def __post_init__(self):
        if self.lambda_circle < 0:
            raise ConfigError("lambda_circle must be non-negative")


def _one_sided_scale(w: int) -> np.ndarray:
    s = np.full(w // 2 + 1, 2.0 / w)
    s[0] = 1.0 / w
    s[-1] = 1.0 / w
    return s


def forward_spectrum(patch: np.ndarray) -> SpectralTarget:
    """Real-input DFT of a length-w patch (w even), as loss-ready arrays."""
    patch = np.asarray(patch, dtype=np.float64)
    w = patch.shape[-1]
    if w % 2 != 0:
        raise ConfigError(f"patch length must be even, got {w}")
    z = np.fft.rfft(patch, axis=-1)
    amp = _one_sided_scale(w) * np.abs(z)
    phi = np.angle(z)
    return SpectralTarget(np.log1p(amp), np.sin(phi), np.cos(phi), w)


def inverse_spectrum(target: SpectralTarget | PhasePrediction,
                     patch_length: int | None = None) -> np.ndarray:
    """Rebuild the waveform from log-amplitude and sine/cosine phase.

    Amplitudes are clamped at zero (unconstrained predictions can imply
    exp(log_amp)-1 < 0).  Accepts predictions as well; Tensor fields are
    read as plain values.
    """
    if isinstance(target, SpectralTarget):
        la, sin_p, cos_p = target.log_amp, target.sin_phase, target.cos_phase
        w = target.patch_length
    else:
        la = _value(target.log_amp_hat)
        sin_p = _value(target.sin_hat)
        cos_p = _value(target.cos_hat)
        if patch_length is None:
            raise ConfigError("patch_length required when inverting a prediction")
        w = patch_length
    la = np.asarray(la, dtype=np.float64)
    amp = np.maximum(np.expm1(la), 0.0)
    coeff = amp / _one_sided_scale(w)
    z = coeff * (np.asarray(cos_p) + 1j * np.asarray(sin_p))
    return np.fft.irfft(z, n=w, axis=-1)


def _value(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def chord_loss(phi1, phi2):
    """Squared distance between unit-circle points at the two angles."""
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    ds = np.sin(phi1) - np.sin(phi2)
    dc = np.cos(phi1) - np.cos(phi2)
    return ds * ds + dc * dc


def unit_circle_loss(pred: PhasePrediction, target: SpectralTarget,
                     lambda_circle: float = 0.4) -> Tensor:
    """Phase alignment on the unit circle plus an off-circle penalty.

    Mean over bins of ``1 - <(cos_hat, sin_hat), (cos, sin)> / max(|v|, eps)``
    plus ``lambda_circle * (|v|^2 - 1)^2``.  The alignment denominator is
    the predicted norm, not its square, so the term is the cosine of the
    phase error and does not depend on the predicted magnitude.
    """
    sin_hat = ad._as_tensor(pred.sin_hat)
    cos_hat = ad._as_tensor(pred.cos_hat)
    sin_t = np.asarray(target.sin_phase)
    cos_t = np.asarray(target.cos_phase)
    if sin_hat.shape != sin_t.shape or cos_hat.shape != cos_t.shape:
        raise ShapeError(
            f"phase arrays disagree: pred {sin_hat.shape}, target {sin_t.shape}")
    dot = ad.add(ad.mul(cos_hat, Tensor(cos_t)), ad.mul(sin_hat, Tensor(sin_t)))
    nsq = ad.add(ad.square(cos_hat), ad.square(sin_hat))
    # clamp before the root so the (0,0) prediction stays differentiable
    den = ad.sqrt(ad.clamp_min(nsq, NORM_EPS * NORM_EPS))
    align = ad.tmean(ad.div(dot, den))
    one = Tensor(np.asarray(1.0))
    penalty = ad.tmean(ad.square(ad.sub(nsq, Tensor(np.ones(nsq.shape)))))
    return ad.add(ad.sub(one, align),
                  ad.mul(Tensor(np.asarray(float(lambda_circle))), penalty))


def _inverse_spectrum_graph(log_amp: Tensor, sin_hat: Tensor, cos_hat: Tensor,
                            w: int) -> Tensor:
    """Differentiable waveform reconstruction used by the temporal loss term."""
    amp = ad.clamp_min(ad.expm1(log_amp), 0.0)
    inv_scale = Tensor(1.0 / _one_sided_scale(w))
    coeff = ad.mul(amp, inv_scale)
    re = ad.mul(coeff, cos_hat)
    im = ad.mul(coeff, sin_hat)
    return ad.irfft_onesided(re, im, w)


def tokenizer_loss(pred: PhasePrediction, target: SpectralTarget, x: np.ndarray,
                   weights: LossWeights | None = None) -> tuple[Tensor, dict[str, float]]:
    """Composite reconstruction objective (quantization loss added by the caller).

    Returns the scalar total and a per-term breakdown for logging:
    log-amplitude MSE, unit-circle phase loss, and the temporal MSE between
    the rebuilt waveform and the input patch.
    """
    weights = weights or LossWeights()
    la_hat = ad._as_tensor(pred.log_amp_hat)
    sin_hat = ad._as_tensor(pred.sin_hat)
    cos_hat = ad._as_tensor(pred.cos_hat)
    x = np.asarray(x)
    w = target.patch_length
    if la_hat.shape != target.log_amp.shape:
        raise ShapeError(
            f"log-amp arrays disagree: pred {la_hat.shape}, target {target.log_amp.shape}")
    if x.shape[-1] != w:
        raise ShapeError(f"patch length {x.shape[-1]} != target length {w}")

    log_amp_term = ad.tmean(ad.square(ad.sub(la_hat, Tensor(target.log_amp))))
    unit_term = unit_circle_loss(pred, target, weights.lambda_circle)
    recon = _inverse_spectrum_graph(la_hat, sin_hat, cos_hat, w)
    temporal_term = ad.tmean(ad.square(ad.sub(recon, Tensor(x))))
    total = ad.add(ad.add(log_amp_term, unit_term), temporal_term)
    breakdown = {"log_amp": log_amp_term.item(), "unit": unit_term.item(),
                 "temporal": temporal_term.item(), "total": total.item()}
    return total, breakdown
