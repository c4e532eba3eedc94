"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture) and asserts.
Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import time

import numpy as np
import pytest

from rvqtok import autodiff as ad
from rvqtok.autodiff import Tape, Tensor, backward
from rvqtok.cli import _corpus, cmd
from rvqtok.config import load_config
from rvqtok.gradsuite import run_suite
from rvqtok.pretrain import (BackboneModel, make_symmetric_masks, pretrain,
                             probe_corpus, run_linear_probe, teacher_tokens,
                             _view_loss)
from rvqtok.rvq import Codebook, RVQStack, normalize_rows, quantize_level
from rvqtok.spectral import chord_loss, forward_spectrum, inverse_spectrum
from rvqtok.tokenizer import (build_windows, eval_per_band, load_tokenizer,
                              save_tokenizer, train_tokenizer, TokenizerModel)


#: filled by _report; echoed in the terminal summary (see conftest.py)
REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    REPORT_LINES.append(line)
    print(line, flush=True)


# ---------------------------------------------------------------------------
# shared desk-scale artifacts


@pytest.fixture(scope="session")
def desk_cfg():
    return load_config()  # desk profile defaults


@pytest.fixture(scope="session")
def desk_corpus(desk_cfg):
    return _corpus(desk_cfg)


@pytest.fixture(scope="session")
def desk_training(desk_cfg, desk_corpus):
    """Trained desk tokenizer plus curves, untrained baseline, and timings."""
    tok_cfg = desk_cfg.tokenizer_config()
    untrained = TokenizerModel(tok_cfg, seed=desk_cfg.get("run", "seed"))
    t = desk_cfg.values["train"]
    t0 = time.time()
    model, curves = train_tokenizer(
        desk_corpus, tok_cfg, epochs=t["tokenizer_epochs"],
        slots_per_window=t["slots_per_window"], batch_size=t["batch_size"],
        base_lr=t["tokenizer_lr"], min_lr=t["tokenizer_min_lr"],
        weight_decay=t["tokenizer_weight_decay"],
        warmup_epochs=t["tokenizer_warmup_epochs"],
        seed=desk_cfg.get("run", "seed"))
    duration = time.time() - t0
    return {"model": model, "untrained": untrained, "curves": curves,
            "seconds": duration, "slots": t["slots_per_window"]}


@pytest.fixture(scope="session")
def tokenizer_ckpt(desk_training, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tokenizer.ckpt"
    save_tokenizer(desk_training["model"], path)
    return path


@pytest.fixture(scope="session")
def desk_pretraining(desk_cfg, desk_corpus, tokenizer_ckpt):
    tok_model = load_tokenizer(tokenizer_ckpt)
    result = pretrain(desk_corpus, desk_cfg.pretrain_config(), tok_model)
    return {"result": result, "teacher_model": tok_model}


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.time()
    report = run_suite(seeds=20)
    elapsed = time.time() - t0
    worst = max(report.values())
    ok = worst < 1e-4 and elapsed < 120.0
    _report(1, "gradient suite (incl. composed tokenizer loss)", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s, 20 seeds")
    assert worst < 1e-4
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. phase-loss identities


def test_criterion_2_phase_loss_identities():
    rng = np.random.default_rng(2024)
    p1 = rng.uniform(-math.pi, math.pi, size=10_000)
    p2 = rng.uniform(-math.pi, math.pi, size=10_000)
    c = chord_loss(p1, p2)
    err_cos = np.abs(c - (2.0 - 2.0 * np.cos(p1 - p2))).max()
    err_sin = np.abs(c - 4.0 * np.sin((p1 - p2) / 2.0) ** 2).max()
    boundary_ok = all(
        chord_loss(math.pi - eps, -math.pi + eps) <= 5.0 * eps * eps
        for eps in (1e-3, 1e-4, 1e-5))
    eps = 1e-3
    raw_phase_mse = (math.pi - eps - (-math.pi + eps)) ** 2
    baseline_ok = raw_phase_mse > 4.0 * math.pi ** 2 - 0.1
    ok = err_cos < 1e-12 and err_sin < 1e-12 and boundary_ok and baseline_ok
    _report(2, "phase-loss identities and boundary continuity", ok,
            f"closed-form errs {err_cos:.1e}/{err_sin:.1e}, "
            f"raw-phase baseline {raw_phase_mse:.3f}")
    assert err_cos < 1e-12 and err_sin < 1e-12
    assert boundary_ok
    assert baseline_ok


# ---------------------------------------------------------------------------
# 3. spectral round trip


def test_criterion_3_spectral_round_trip():
    rng = np.random.default_rng(3)
    worst_rt = 0.0
    worst_parseval = 0.0
    for w in (64, 200):
        for _ in range(500):
            x = rng.normal(size=w)
            tgt = forward_spectrum(x)
            back = inverse_spectrum(tgt)
            worst_rt = max(worst_rt, float(np.abs(back - x).max()))
            amp = np.expm1(tgt.log_amp)
            implied = amp[0] ** 2 + amp[-1] ** 2 + 0.5 * np.sum(amp[1:-1] ** 2)
            actual = np.mean(x ** 2)
            worst_parseval = max(worst_parseval, abs(implied - actual) / actual)
    ok = worst_rt < 1e-6 and worst_parseval < 1e-6
    _report(3, "spectral round trip on 1000 patches (w in {64, 200})", ok,
            f"max abs err {worst_rt:.2e}, Parseval rel {worst_parseval:.2e}")
    assert worst_rt < 1e-6
    assert worst_parseval < 1e-6


# ---------------------------------------------------------------------------
# 4. RVQ invariants


def test_criterion_4_rvq_invariants():
    rng = np.random.default_rng(4)
    worst_tel = 0.0
    for trial in range(50):
        stack = RVQStack.create(6, 4, levels=int(rng.integers(1, 5)),
                                entries=int(rng.integers(2, 32)),
                                rng=np.random.default_rng(400 + trial))
        p = rng.normal(size=(8, 6))
        projected = p @ stack.down_proj.data
        assign = stack.quantize_codes(projected)
        gap = np.abs(assign.codewords.sum(axis=0) + assign.residual - projected)
        worst_tel = max(worst_tel, float(gap.max()))

    mismatches = 0
    total = 0
    for trial in range(10):
        book = Codebook(np.random.default_rng(40 + trial).normal(size=(16, 5)))
        queries = np.random.default_rng(80 + trial).normal(size=(1000, 5))
        idx, _ = quantize_level(queries, book)
        vn = normalize_rows(book.entries)
        qn = normalize_rows(queries)
        for i in range(1000):
            dists = [float(((qn[i] - vn[j]) ** 2).sum()) for j in range(16)]
            mismatches += int(idx[i] != int(np.argmin(dists)))
            total += 1

    p = Tensor(np.random.default_rng(90).normal(size=(6,)), requires_grad=True)
    p_hat = Tensor(np.random.default_rng(91).normal(size=(6,)))
    with Tape() as tape:
        loss = ad.tsum(ad.straight_through(p, p_hat))
    backward(tape, loss)
    st_identity = np.array_equal(p.grad, np.ones(6))

    ok = worst_tel < 1e-10 and mismatches == 0 and st_identity
    _report(4, "RVQ telescoping, brute-force agreement, straight-through", ok,
            f"telescoping {worst_tel:.2e}, {total - mismatches}/{total} NN matches")
    assert worst_tel < 1e-10
    assert mismatches == 0
    assert st_identity


# ---------------------------------------------------------------------------
# 5. desk-scale tokenizer training


def test_criterion_5_desk_tokenizer_training(desk_training, desk_corpus):
    curves = desk_training["curves"]
    vals = [r for r in curves if r["split"] == "val"]
    first, last = vals[0]["total"], vals[-1]["total"]
    halving = last / first
    trained_rep = eval_per_band(desk_training["model"], desk_corpus,
                                slots_per_window=desk_training["slots"])
    untrained_rep = eval_per_band(desk_training["untrained"], desk_corpus,
                                  slots_per_window=desk_training["slots"])
    ratio = trained_rep.mse["raw"] / untrained_rep.mse["raw"]
    seconds = desk_training["seconds"]
    ok = halving <= 0.5 and ratio <= 0.1 and seconds < 900.0
    _report(5, "desk tokenizer: loss halving and 10x reconstruction gap", ok,
            f"val total {first:.3f}->{last:.3f} ({halving:.3f}), "
            f"raw MSE ratio {ratio:.4f}, {seconds:.0f}s")
    assert halving <= 0.5, f"final/epoch-1 val loss {halving}"
    assert ratio <= 0.1, f"trained/untrained raw MSE {ratio}"
    assert seconds < 900.0


# ---------------------------------------------------------------------------
# 6. codebook-depth sweep


def test_criterion_6_level_sweep(tmp_path):
    args = ["sweep-levels", "--out-dir", str(tmp_path),
            "--set", "synth.recordings=8",
            "--set", "train.tokenizer_epochs=8"]
    rc = cmd(args)
    rows = {}
    if rc == 0:
        lines = (tmp_path / "sweep_levels.csv").read_text().splitlines()
        assert lines[0] == "levels,val_raw_mse"
        for line in lines[1:]:
            n, mse = line.split(",")
            rows[int(n)] = float(mse)
    ok = rc == 0 and set(rows) == {2, 4, 8} and rows[8] <= rows[2]
    detail = ", ".join(f"N={n}: {rows.get(n, float('nan')):.4f}"
                       for n in (2, 4, 8))
    _report(6, "level sweep: MSE(N=8) <= MSE(N=2)", ok, detail)
    assert rc == 0
    assert set(rows) == {2, 4, 8}
    assert rows[8] <= rows[2]


# ---------------------------------------------------------------------------
# 7. masked pretraining sanity


def test_criterion_7_masked_pretraining(desk_cfg, desk_corpus, desk_pretraining):
    pcfg = desk_cfg.pretrain_config()
    K = pcfg.codebook_size
    tok_model = desk_pretraining["teacher_model"]
    windows = build_windows(desk_corpus, pcfg.encoder.w, pcfg.slots_per_window)
    val = windows.val
    teacher = teacher_tokens(val, tok_model)

    # initialization: per-head CE within 1% of ln K
    fresh = BackboneModel(pcfg, seed=pcfg.seed)
    reps = fresh.forward(val.patches, val.channel_idx, val.slot_idx)
    worst_ce_dev = 0.0
    for s, row in enumerate(fresh.heads):
        for n, head in enumerate(row):
            logits = head(reps[s])
            ce = ad.cross_entropy_logits(logits, teacher[:, :, s, n])
            dev = abs(float(ce.data.mean()) - math.log(K)) / math.log(K)
            worst_ce_dev = max(worst_ce_dev, dev)

    # initialization: masked accuracy within 3 sigma of 1/K
    rng = np.random.default_rng(77)
    plans = [make_symmetric_masks(val.patches.shape[1], pcfg.mask_ratio, rng)
             for _ in range(val.n_windows)]
    masks = np.stack([p.mask for p in plans])
    _, correct, masked, heads = _view_loss(fresh, val, masks, teacher)
    n_trials = heads * masked
    acc0 = correct / n_trials
    sigma = math.sqrt((1.0 / K) * (1.0 - 1.0 / K) / n_trials)
    init_acc_ok = abs(acc0 - 1.0 / K) <= 3.0 * sigma

    # after the desk-scale run: masked top-1 at least 10x chance
    curves = desk_pretraining["result"].curves
    train_rows = [r for r in curves if r["split"] == "train"]
    val_rows = [r for r in curves if r["split"] == "val"]
    final_acc = train_rows[-1]["masked_acc"]
    acc_ok = final_acc >= 10.0 / K
    val_improves = max(r["masked_acc"] for r in val_rows) > val_rows[0]["masked_acc"]

    # visible positions provably uninvolved in the loss
    backbone = desk_pretraining["result"].backbone
    batch = val.subset(np.arange(val.n_windows) < 2)
    tbatch = teacher[:2]
    bmasks = masks[:2]
    base, *_ = _view_loss(backbone, batch, bmasks, tbatch)
    perturbed = tbatch.copy()
    perturbed[~bmasks] = (perturbed[~bmasks] + 11) % K
    after, *_ = _view_loss(backbone, batch, bmasks, perturbed)
    visible_uninvolved = base.item() == after.item()

    ok = (worst_ce_dev < 0.01 and init_acc_ok and acc_ok and visible_uninvolved
          and val_improves)
    _report(7, "masked pretraining: init sanity, 10x chance, mask locality", ok,
            f"init CE dev {worst_ce_dev:.4f}, init acc {acc0:.4f} "
            f"(1/K={1 / K:.4f}), final masked acc {final_acc:.4f} "
            f">= {10 / K:.4f}")
    assert worst_ce_dev < 0.01
    assert init_acc_ok, f"init acc {acc0} vs 1/K {1 / K} (3 sigma {3 * sigma})"
    assert acc_ok, f"final masked accuracy {final_acc} < {10 / K}"
    assert visible_uninvolved
    assert val_improves


# ---------------------------------------------------------------------------
# 8. synthetic downstream probe


def test_criterion_8_linear_probe(desk_cfg, desk_pretraining):
    s = desk_cfg.values["synth"]
    recs, labels = probe_corpus(s["probe_recordings_per_class"], s["channels"],
                                s["sample_rate"], s["duration"],
                                seed=desk_cfg.get("run", "seed") * 10000 + 5000)
    result = run_linear_probe(desk_pretraining["result"].backbone, recs, labels,
                              desk_cfg.get("train", "pretrain_slots_per_window"))
    acc = result["held_out_accuracy"]
    ok = acc >= 0.9
    _report(8, "linear probe separates alpha- vs beta-dominant recordings", ok,
            f"held-out accuracy {acc:.3f} on {result['n_held_out']} recordings")
    assert acc >= 0.9


# ---------------------------------------------------------------------------
# 9. determinism


MICRO = [
    "--set", "model.w=16", "--set", "model.D=16", "--set", "model.S=2",
    "--set", "model.N=2", "--set", "model.K=16", "--set", "model.d_c=8",
    "--set", "model.encoder_depth=1", "--set", "model.decoder_depth=1",
    "--set", "model.heads=2", "--set", "model.mlp_dim=32",
    "--set", "model.n_electrodes=4", "--set", "synth.recordings=2",
    "--set", "synth.channels=2", "--set", "synth.duration=4",
    "--set", "synth.sample_rate=64", "--set", "train.tokenizer_epochs=2",
    "--set", "train.batch_size=2",
]


def test_criterion_9_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cmd(["train-tokenizer", "--out-dir", str(out), *MICRO]) == 0
        assert cmd(["synth-gen", "--out-dir", str(out), *MICRO]) == 0
        outs.append(out)
    same_curves = ((outs[0] / "tokenizer_curves.csv").read_bytes()
                   == (outs[1] / "tokenizer_curves.csv").read_bytes())
    same_ckpt = ((outs[0] / "tokenizer.ckpt").read_bytes()
                 == (outs[1] / "tokenizer.ckpt").read_bytes())
    recs_a = sorted((outs[0] / "recordings").glob("*.csv"))
    recs_b = sorted((outs[1] / "recordings").glob("*.csv"))
    same_recs = all(a.read_bytes() == b.read_bytes()
                    for a, b in zip(recs_a, recs_b))
    manifests_agree = True
    for name in ("manifest_train-tokenizer.json", "manifest_synth-gen.json"):
        ma = json.loads((outs[0] / name).read_text())["outputs"]
        mb = json.loads((outs[1] / name).read_text())["outputs"]
        manifests_agree &= ma == mb
    ok = same_curves and same_ckpt and same_recs and manifests_agree
    _report(9, "identical manifests reproduce byte-identical outputs", ok,
            "curves, checkpoint, recordings, and output hashes all match")
    assert same_curves and same_ckpt and same_recs
    assert manifests_agree
