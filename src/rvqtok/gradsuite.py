"""Finite-difference validation suite for every differentiable primitive and
for the composed tokenizer objective (with frozen code assignments)."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .encoder import BranchConfig, EncoderConfig
from .spectral import (PhasePrediction, SpectralTarget, forward_spectrum,
                       tokenizer_loss, unit_circle_loss)
from .tokenizer import TokenizerConfig, TokenizerModel


def _fixed(rng, shape):
    return Tensor(rng.normal(size=shape))


def _case_add(rng):
    c = _fixed(rng, (3, 4))
    return lambda t: ad.tsum(ad.square(ad.add(t, c))), rng.normal(size=(3, 4))


def _case_mul(rng):
    c = _fixed(rng, (3, 4))
    return lambda t: ad.tsum(ad.mul(ad.mul(t, c), t)), rng.normal(size=(3, 4))


def _case_linear(rng):
    w = _fixed(rng, (5, 3))
    b = _fixed(rng, (3,))
    return lambda t: ad.tsum(ad.gelu(ad.linear(t, w, b))), rng.normal(size=(2, 5))


def _case_conv1d(rng):
    w = _fixed(rng, (3, 2, 3))
    return (lambda t: ad.tsum(ad.square(ad.conv1d(ad.reshape(t, (1, 2, 5)), w,
                                                  padding=1))),
            rng.normal(size=10))


def _case_groupnorm(rng):
    gain = _fixed(rng, (4,))
    bias = _fixed(rng, (4,))
    return (lambda t: ad.tsum(ad.square(ad.groupnorm(ad.reshape(t, (1, 4, 3)),
                                                     gain, bias, groups=2))),
            rng.normal(size=12))


def _case_layernorm(rng):
    gain = _fixed(rng, (5,))
    bias = _fixed(rng, (5,))
    return (lambda t: ad.tsum(ad.square(ad.layernorm(t, gain, bias))),
            rng.normal(size=(3, 5)))


def _case_gelu(rng):
    return lambda t: ad.tsum(ad.gelu(t)), rng.normal(size=(4, 3))


def _case_avgpool1d(rng):
    return (lambda t: ad.tsum(ad.square(ad.avgpool1d(ad.reshape(t, (1, 2, 6)), 2))),
            rng.normal(size=12))


def _case_embedding(rng):
    idx = np.array([0, 2, 1, 2])
    return lambda t: ad.tsum(ad.square(ad.embedding_lookup(t, idx))), rng.normal(size=(3, 4))


def _case_concat(rng):
    return (lambda t: ad.tsum(ad.square(ad.concat([t, ad.mul(t, t)], axis=-1))),
            rng.normal(size=(2, 3)))


def _case_index(rng):
    c = _fixed(rng, (2, 4))
    return (lambda t: ad.tsum(ad.square(ad.mul(ad.index(t, 1), c))),
            rng.normal(size=(3, 2, 4)))


def _case_reshape(rng):
    return lambda t: ad.tsum(ad.square(ad.reshape(t, (6,)))), rng.normal(size=(2, 3))


def _case_sum(rng):
    return lambda t: ad.square(ad.tsum(t)), rng.normal(size=(2, 4))


def _case_mean(rng):
    return lambda t: ad.tsum(ad.square(ad.tmean(t, axis=0))), rng.normal(size=(3, 4))


def _case_attention(rng):
    w_out = _fixed(rng, (4, 4))

    def f(t):  # t stacks q, k and v
        att = ad.multihead_attention(*(ad.index(t, i) for i in range(3)), 2)
        return ad.tsum(ad.square(ad.linear(att, w_out)))

    return f, rng.normal(size=(3, 1, 3, 4))


def _case_cross_entropy(rng):
    labels = rng.integers(0, 5, size=(3,))
    return lambda t: ad.tsum(ad.cross_entropy_logits(t, labels)), rng.normal(size=(3, 5))


def _case_irfft(rng):
    im = _fixed(rng, (5,))
    return (lambda t: ad.tsum(ad.square(ad.irfft_onesided(t, im, 8))),
            rng.normal(size=5))


def _case_unit_circle(rng):
    phis = rng.uniform(-np.pi, np.pi, size=7)
    tgt = SpectralTarget(np.zeros(7), np.sin(phis), np.cos(phis), 12)
    sin_hat = _fixed(rng, (7,))

    def f(t):
        pred = PhasePrediction(Tensor(np.zeros(7)), sin_hat, t)
        return unit_circle_loss(pred, tgt, 0.4)

    return f, 0.5 + 0.3 * rng.normal(size=7)


PRIMITIVE_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "linear": _case_linear,
    "conv1d": _case_conv1d,
    "groupnorm": _case_groupnorm,
    "layernorm": _case_layernorm,
    "gelu": _case_gelu,
    "avgpool1d": _case_avgpool1d,
    "embedding_lookup": _case_embedding,
    "concat": _case_concat,
    "index": _case_index,
    "reshape": _case_reshape,
    "sum": _case_sum,
    "mean": _case_mean,
    "multihead_attention": _case_attention,
    "cross_entropy": _case_cross_entropy,
    "irfft": _case_irfft,
    "unit_circle_loss": _case_unit_circle,
}


def check_primitive(name: str, seeds: int = 20) -> float:
    """Max relative finite-difference error over the given number of seeds."""
    factory = PRIMITIVE_CASES[name]
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        f, x0 = factory(rng)
        worst = max(worst, grad_check(f, Tensor(np.asarray(x0))))
    return worst


def _tiny_tokenizer() -> tuple[TokenizerModel, np.ndarray, np.ndarray, np.ndarray]:
    enc = EncoderConfig(
        w=8, model_dim=8, S=1, depth=1, heads=2, mlp_dim=16,
        n_electrodes=2, max_slots=2,
        branches=[BranchConfig(kernels=(3, 3), paddings=(1, 1), pools=(2, 4))])
    cfg = TokenizerConfig(encoder=enc, levels=2, codebook_size=4, code_dim=4,
                          decoder_depth=1)
    model = TokenizerModel(cfg, seed=3)
    rng = np.random.default_rng(11)
    patches = rng.normal(size=(1, 2, 8))
    ch = np.zeros((1, 2), dtype=int)
    sl = np.array([[0, 1]])
    return model, patches, ch, sl


def check_composed_tokenizer_loss() -> float:
    """Gradient check through encoder -> RVQ -> decoder -> composite loss.

    Code assignments are frozen and the quantizer runs at its straight-through
    fixed point (codes = inputs), where the estimator is exact; the commitment
    term still pulls toward the frozen codewords.  Checks the input patches
    and a representative set of parameters.
    """
    model, patches, ch, sl = _tiny_tokenizer()
    _, assigns, _ = model.forward(patches, ch, sl)
    frozen = [a.indices for a in assigns]
    # spectral targets are labels: fixed while parameters are perturbed
    target = forward_spectrum(patches)

    def loss_fn():
        reps = model.encoder.forward(patches, ch, sl)
        quantized, _, lq = model.quantize_branches(reps, forced=frozen,
                                                   identity_codes=True)
        pred = model.decode(quantized)
        total, _ = tokenizer_loss(pred, target, patches, model.cfg.lambda_circle)
        return ad.add(total, lq)

    worst = 0.0
    by_name = {p.name: p for p in model.params()}
    chosen = ["encoder.branch0.stage1.conv.w", "encoder.branch0.stage2.gn.gain",
              "encoder.tf.block0.wq.w", "encoder.tf.block0.fc2.w",
              "encoder.tf.block0.ls1", "tables.temporal", "tables.spatial",
              "rvq0.down_proj", "rvq0.up_proj", "head.cos.w", "head.sin.b",
              "head.log_amp.w", "decoder.block0.fc1.w"]
    for name in chosen:
        param = by_name[name]
        orig = param.tensor

        def f_param(t, param=param, orig=orig):
            param.tensor = ad.reshape(t, orig.shape) if t.shape != orig.shape else t
            try:
                return loss_fn()
            finally:
                param.tensor = orig

        worst = max(worst, grad_check(f_param, Tensor(orig.data.copy())))
    return worst


def run_suite(seeds: int = 20) -> dict[str, float]:
    """Name -> max relative error for every primitive plus the composed loss."""
    report = {name: check_primitive(name, seeds) for name in sorted(PRIMITIVE_CASES)}
    report["tokenizer_loss_composed"] = check_composed_tokenizer_loss()
    return report
