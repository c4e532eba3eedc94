"""Symmetric masking, teacher tokens, masked-prediction training, the probe."""

import math

import numpy as np
import pytest

from rvqtok.checkpoint import load_arrays, save_arrays
from rvqtok.encoder import EncoderConfig
from rvqtok.errors import CompatibilityError, ConfigError
from rvqtok.pretrain import (BackboneModel, PretrainConfig, align_teacher,
                             check_teacher_compat, extract_features,
                             fit_linear_probe, make_symmetric_masks,
                             masked_metrics, pretrain, pretrain_step,
                             probe_corpus, run_linear_probe, load_backbone,
                             save_backbone, teacher_tokens)
from rvqtok.rvq import normalize_rows
from rvqtok.tokenizer import (_config_snapshot, build_windows,
                              train_tokenizer)
from tests.test_tokenizer import tiny_config, tiny_corpus


def tiny_pretrain_config(w=16, S=2, levels=2, K=16, depth=1, **kw):
    enc = EncoderConfig(w=w, model_dim=w, S=S, depth=depth, heads=2,
                        mlp_dim=2 * w, n_electrodes=4, max_slots=8,
                        layer_scale_init=0.1)
    return PretrainConfig(encoder=enc, levels=levels, codebook_size=K,
                          batch_size=2, slots_per_window=2, **kw)


class TestMaskPlans:
    def test_half_ratio_counts(self):
        plan = make_symmetric_masks(10, 0.5, seed=1)
        assert plan.mask.sum() == 5
        assert np.array_equal(plan.complement, ~plan.mask)

    def test_every_patch_masked_exactly_once_across_views(self):
        plan = make_symmetric_masks(9, 0.4, seed=2)
        assert np.all(plan.mask ^ plan.complement)

    def test_same_seed_identical(self):
        a = make_symmetric_masks(12, 0.25, seed=3)
        b = make_symmetric_masks(12, 0.25, seed=3)
        assert np.array_equal(a.mask, b.mask)

    def test_degenerate_ratios_rejected(self):
        with pytest.raises(ConfigError):
            make_symmetric_masks(8, 0.01, seed=0)   # rounds to 0 masked
        with pytest.raises(ConfigError):
            make_symmetric_masks(8, 0.99, seed=0)   # rounds to all masked
        with pytest.raises(ConfigError):
            make_symmetric_masks(1, 0.5, seed=0)

    def test_monte_carlo_frequency(self):
        rng = np.random.default_rng(4)
        hits = np.zeros(8)
        n = 10_000
        for _ in range(n):
            hits += make_symmetric_masks(8, 0.5, rng).mask
        freq = hits / n
        assert np.all(np.abs(freq - 0.5) < 0.02)


@pytest.fixture(scope="module")
def trained_pair():
    recs = tiny_corpus(n=3, channels=2, seconds=6.0, seed=40)
    tok_model, _ = train_tokenizer(recs, tiny_config(), epochs=1,
                                   slots_per_window=2, batch_size=2, seed=0)
    return recs, tok_model


class TestTeacherTokens:
    def test_deterministic_and_in_range(self, trained_pair):
        recs, tok_model = trained_pair
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        a = teacher_tokens(wins, tok_model)
        b = teacher_tokens(wins, tok_model)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 16
        assert a.shape == (wins.n_windows, 4, 2, 2)

    def test_matches_bruteforce_requantization(self, trained_pair):
        recs, tok_model = trained_pair
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        sel = np.arange(wins.n_windows) < 3
        chunk = wins.subset(sel)
        got = teacher_tokens(chunk, tok_model)
        # independent pass: encoder reps -> down-projection -> per-level
        # normalized nearest-neighbor scan
        reps = tok_model.encoder.forward(chunk.patches, chunk.channel_idx,
                                         chunk.slot_idx)
        for s, stack in enumerate(tok_model.stacks):
            flat = reps[s].data.reshape(-1, reps[s].shape[-1])
            resid = flat @ stack.down_proj.data
            for n, book in enumerate(stack.codebooks):
                qn = normalize_rows(resid)
                vn = normalize_rows(book.entries)
                expect = np.array([
                    int(np.argmin(((qn[i] - vn) ** 2).sum(axis=1)))
                    for i in range(qn.shape[0])])
                np.testing.assert_array_equal(
                    got[:, :, s, n].reshape(-1), expect)
                resid = resid - book.entries[expect]

    def test_compat_check_names_field(self, trained_pair):
        _, tok_model = trained_pair
        cfg = tiny_pretrain_config(K=99)
        with pytest.raises(CompatibilityError) as err:
            check_teacher_compat(_config_snapshot(tok_model.cfg), cfg)
        assert "codebook_size" in str(err.value)


class TestAlignTeacher:
    def test_remaps_between_window_lengths(self, trained_pair):
        recs, tok_model = trained_pair
        wide = build_windows(recs, 16, 4, val_fraction=0.0)
        narrow = build_windows(recs, 16, 2, val_fraction=0.0)
        t_idx = teacher_tokens(narrow, tok_model)
        mapped = align_teacher(wide, narrow, t_idx)
        # spot-check one patch by provenance
        wi, pi = 1, 5
        key = (wide.rec_idx[wi, pi], wide.channel_idx[wi, pi], wide.abs_slot[wi, pi])
        hits = [(w2, p2) for w2 in range(narrow.n_windows)
                for p2 in range(narrow.patches.shape[1])
                if (narrow.rec_idx[w2, p2], narrow.channel_idx[w2, p2],
                    narrow.abs_slot[w2, p2]) == key]
        assert len(hits) == 1
        np.testing.assert_array_equal(mapped[wi, pi], t_idx[hits[0][0], hits[0][1]])


class TestPretrainStep:
    def test_chance_accuracy_with_random_labels(self, trained_pair):
        recs, _ = trained_pair
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=0)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 16, size=(wins.n_windows, 4, 2, 2))
        ce, acc = masked_metrics(backbone, wins, labels, rho=0.5, seed=9)
        K = 16
        n = 4 * (wins.n_windows * 4 // 2)  # heads x masked positions
        sigma = math.sqrt((1 / K) * (1 - 1 / K) / n)
        assert abs(acc - 1 / K) < 3 * sigma + 1e-12
        assert abs(ce - math.log(K)) / math.log(K) < 0.01

    def test_visible_position_labels_do_not_change_loss(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=1)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        sel = np.arange(wins.n_windows) < 2
        batch = wins.subset(sel)
        teacher = teacher_tokens(batch, tok_model)
        masks = np.stack([make_symmetric_masks(4, 0.5, seed=5).mask
                          for _ in range(batch.n_windows)])
        from rvqtok.pretrain import _view_loss

        base, *_ = _view_loss(backbone, batch, masks, teacher)
        perturbed = teacher.copy()
        perturbed[~masks] = (perturbed[~masks] + 7) % 16
        after, *_ = _view_loss(backbone, batch, masks, perturbed)
        assert base.item() == after.item()

    def test_step_runs_and_reports(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=2)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        batch = wins.subset(np.arange(wins.n_windows) < 2)
        teacher = teacher_tokens(batch, tok_model)
        masks = np.stack([make_symmetric_masks(4, 0.5, seed=6).mask
                          for _ in range(batch.n_windows)])
        loss, acc = pretrain_step(batch, masks, backbone, teacher, lr=1e-3)
        assert math.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_mask_shape_mismatch_rejected(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=3)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        batch = wins.subset(np.arange(wins.n_windows) < 2)
        teacher = teacher_tokens(batch, tok_model)
        with pytest.raises(ConfigError):
            pretrain_step(batch, np.zeros((1, 4), bool), backbone, teacher, lr=1e-3)


class TestPretrainLoop:
    def test_zero_epochs_returns_untrained(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=0, seed=0)
        result = pretrain(recs, cfg, tok_model)
        fresh = BackboneModel(cfg, seed=cfg.seed)
        for a, b in zip(result.backbone.params(), fresh.params()):
            assert np.array_equal(a.data, b.data)
        assert result.curves == []

    def test_same_seed_identical_curves(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=2, seed=4)
        a = pretrain(recs, cfg, tok_model).curves
        b = pretrain(recs, cfg, tok_model).curves
        assert a == b

    def test_teacher_indices_stable_across_epochs(self, trained_pair):
        recs, tok_model = trained_pair
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        before = teacher_tokens(wins, tok_model)
        cfg = tiny_pretrain_config(epochs=1, seed=0)
        pretrain(recs, cfg, tok_model)
        after = teacher_tokens(wins, tok_model)
        assert np.array_equal(before, after)


class TestFeaturesAndProbe:
    def test_extract_features_extents_and_determinism(self, trained_pair):
        recs, _ = trained_pair
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=5)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        a = extract_features(backbone, wins)
        b = extract_features(backbone, wins)
        assert a.shape == (wins.n_windows * 4, cfg.encoder.S * 16)
        assert np.array_equal(a, b)

    def test_extract_features_concatenates_branches_in_order(self, trained_pair):
        recs, _ = trained_pair
        cfg = tiny_pretrain_config(S=3, seed=0)
        backbone = BackboneModel(cfg, seed=5)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        reps = backbone.forward(wins.patches, wins.channel_idx, wins.slot_idx)
        expected = np.concatenate([r.data for r in reps], axis=-1)
        got = extract_features(backbone, wins, batch_size=2)
        D = cfg.encoder.model_dim
        assert got.shape == (wins.n_windows * 4, 3 * D)
        np.testing.assert_allclose(got, expected.reshape(-1, 3 * D),
                                   rtol=1e-5, atol=1e-6)

    def test_probe_corpus_deterministic(self):
        a, la = probe_corpus(2, channels=2, sample_rate=64.0, duration=4.0, seed=77)
        b, lb = probe_corpus(2, channels=2, sample_rate=64.0, duration=4.0, seed=77)
        assert np.array_equal(la, lb)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.data, rb.data)

    def test_probe_separates_band_dominance(self):
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=6)
        recs, labels = probe_corpus(6, channels=2, sample_rate=64.0,
                                    duration=4.0, seed=88)
        result = run_linear_probe(backbone, recs, labels, slots_per_window=2)
        assert result["held_out_accuracy"] >= 0.9

    def test_probe_intercept_on_unbalanced_split(self):
        # 9 negatives at 0 and 3 positives at 1 train; the least-squares
        # boundary is x = 0.5, while dropping the intercept puts it at the
        # training mean 0.25 and misclassifies the negative at 0.4
        x = np.array([0.0] * 9 + [1.0] * 3 + [0.4, 0.6])
        labels = np.array([0] * 9 + [1] * 3 + [0, 1])
        result = fit_linear_probe(x[:, None], labels, train_fraction=12 / 14,
                                  ridge=1e-2)
        assert (result["n_train"], result["n_held_out"]) == (12, 2)
        assert result["train_accuracy"] == 1.0
        assert result["held_out_accuracy"] == 1.0


class TestBackboneCheckpoint:
    def test_round_trip(self, tmp_path, trained_pair):
        cfg = tiny_pretrain_config(seed=0)
        backbone = BackboneModel(cfg, seed=7)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_backbone(backbone, p1)
        loaded = load_backbone(p1)
        save_backbone(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        recs, _ = trained_pair
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        np.testing.assert_array_equal(extract_features(loaded, wins),
                                      extract_features(loaded, wins))

    def test_window_length_round_trips(self, tmp_path):
        cfg = tiny_pretrain_config(seed=0)
        cfg.slots_per_window = 3
        save_backbone(BackboneModel(cfg, seed=7), tmp_path / "a.ckpt")
        loaded = load_backbone(tmp_path / "a.ckpt")
        assert loaded.cfg.slots_per_window == 3

    def test_parameter_shape_mismatch_named(self, tmp_path):
        backbone = BackboneModel(tiny_pretrain_config(seed=0), seed=7)
        path = tmp_path / "a.ckpt"
        save_backbone(backbone, path)
        kind, snap, arrays = load_arrays(path)
        arrays["param.mask_token"] = np.zeros(5, dtype=np.float32)
        save_arrays(path, kind, snap, arrays)
        with pytest.raises(CompatibilityError) as err:
            load_backbone(path)
        assert "mask_token" in str(err.value)


def test_desk_models_run_in_float64(monkeypatch):
    """Every parameter of the desk tokenizer and backbone, and the output of
    every tape entry of one training step of each, is float64."""
    from rvqtok import autodiff as ad
    from rvqtok import pretrain as pt
    from rvqtok import tokenizer as tk
    from rvqtok.config import load_config
    from rvqtok.signals import SynthSpec, synth_generate

    tapes = []

    def keep_tape(tape, loss):
        tapes.append(tape)
        return ad.backward(tape, loss)

    monkeypatch.setattr(tk, "backward", keep_tape)
    monkeypatch.setattr(pt, "backward", keep_tape)
    cfg = load_config(profile="desk")
    tc, pc = cfg.tokenizer_config(), cfg.pretrain_config()
    recs = [synth_generate(SynthSpec(seed=s, n_channels=8, duration=2.0,
                                     sample_rate=128.0)) for s in range(2)]
    wins = build_windows(recs, tc.encoder.w, pc.slots_per_window, val_fraction=0.0)
    batch = wins.subset(np.arange(wins.n_windows) < 2)
    W, P = batch.patches.shape[:2]
    tokenizer, backbone = tk.TokenizerModel(tc, seed=0), pt.BackboneModel(pc, seed=0)
    params = [p for model in (tokenizer, backbone) for p in model.params()]

    tk.train_step(batch, tokenizer, tk.TrainState(total_steps=1, warmup_steps=0))
    rng = np.random.default_rng(0)
    teacher = rng.integers(0, pc.codebook_size, size=(W, P, pc.encoder.S, pc.levels))
    masks = np.stack([make_symmetric_masks(P, pc.mask_ratio, rng).mask
                      for _ in range(W)])
    pretrain_step(batch, masks, backbone, teacher, lr=1e-3)

    assert all(p.data.dtype == np.float64 for p in params)
    assert len(tapes) == 2
    for tape in tapes:
        odd = [e.name for e in tape.entries if e.output.dtype != np.float64]
        assert not odd, f"{len(odd)} of {len(tape.entries)} entries not float64: {odd[:5]}"
