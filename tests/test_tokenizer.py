"""Windowing, tokenizer assembly, training steps, band evaluation, checkpoints."""

import math

import numpy as np
import pytest

from rvqtok.encoder import EncoderConfig
from rvqtok.errors import CompatibilityError, ConfigError, NumericError
from rvqtok.signals import Recording, SynthSpec, synth_generate
from rvqtok.tokenizer import (TokenizerConfig, TokenizerModel,
                              TrainState, build_windows, eval_per_band,
                              evaluate, load_tokenizer, save_tokenizer,
                              train_step, train_tokenizer)


def tiny_config(w=16, S=2, levels=2, K=16, code_dim=8, depth=1, heads=2):
    enc = EncoderConfig(w=w, model_dim=w, S=S, depth=depth, heads=heads,
                        mlp_dim=2 * w, n_electrodes=4, max_slots=8)
    return TokenizerConfig(encoder=enc, levels=levels, codebook_size=K,
                           code_dim=code_dim, decoder_depth=1)


def tiny_corpus(n=2, channels=2, seconds=4.0, seed=7):
    return [synth_generate(SynthSpec(seed=seed + i, n_channels=channels,
                                     duration=seconds, sample_rate=64.0))
            for i in range(n)]


class TestBuildWindows:
    def test_counts_and_split(self):
        recs = tiny_corpus(n=2)
        # 4 s at 64 Hz, w=16 -> 16 slots; 2-slot windows -> 8 per recording
        wins = build_windows(recs, 16, 2)
        assert wins.n_windows == 16
        # last 10% of 16 slots -> slots >= ceil(0.9*16)=15; no window starts there
        assert wins.val.n_windows == 0
        wins = build_windows(recs, 16, 2, val_fraction=0.25)
        # val windows start at slot >= 12 -> starts 12, 14 per recording
        assert wins.val.n_windows == 4

    def test_channel_major_order_within_window(self):
        rec = Recording(64.0, ["a", "b"], np.arange(2 * 64, dtype=float).reshape(2, 64))
        wins = build_windows([rec], 16, 2, val_fraction=0.0)
        assert wins.n_windows == 2
        np.testing.assert_array_equal(wins.channel_idx[0], [0, 0, 1, 1])
        np.testing.assert_array_equal(wins.slot_idx[0], [0, 1, 0, 1])
        np.testing.assert_array_equal(wins.abs_slot[1], [2, 3, 2, 3])

    def test_mismatched_channel_counts_rejected(self):
        recs = [Recording(64.0, ["a"], np.zeros((1, 64))),
                Recording(64.0, ["a", "b"], np.zeros((2, 64)))]
        with pytest.raises(ConfigError):
            build_windows(recs, 16, 2)

    def test_too_short_recording_rejected(self):
        with pytest.raises(ConfigError):
            build_windows([Recording(64.0, ["a"], np.zeros((1, 20)))], 16, 2)


class TestBatches:
    """WindowSet.batches against the boolean-mask batch loop it replaced."""

    @staticmethod
    def _mask_loop(windows, bs, order):
        for lo in range(0, windows.n_windows, bs):
            sel = np.zeros(windows.n_windows, dtype=bool)
            sel[order[lo:lo + bs]] = True
            yield sel, windows.subset(sel)

    def test_every_window_once_with_short_last_batch(self):
        wins = build_windows(tiny_corpus(n=2), 16, 2, val_fraction=0.0)
        assert wins.n_windows == 16
        got = list(wins.batches(5))
        assert [len(idx) for idx, _ in got] == [5, 5, 5, 1]
        np.testing.assert_array_equal(np.concatenate([idx for idx, _ in got]),
                                      np.arange(16))
        for idx, chunk in got:
            np.testing.assert_array_equal(chunk.patches, wins.patches[idx])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_permutation_matches_mask_loop(self, seed):
        wins = build_windows(tiny_corpus(n=2), 16, 2, val_fraction=0.0)
        order = np.random.default_rng(seed).permutation(wins.n_windows)
        got = list(wins.batches(3, order))
        want = list(self._mask_loop(wins, 3, order))
        assert len(got) == len(want) == 6
        np.testing.assert_array_equal(np.sort(np.concatenate([i for i, _ in got])),
                                      np.arange(16))
        for (idx, chunk), (sel, ref) in zip(got, want):
            np.testing.assert_array_equal(idx, np.flatnonzero(sel))
            for name in ("patches", "channel_idx", "slot_idx", "rec_idx",
                         "abs_slot", "val_mask"):
                np.testing.assert_array_equal(getattr(chunk, name), getattr(ref, name))


class TestModel:
    def test_head_widths_paper_patch_length(self):
        enc = EncoderConfig(w=200, model_dim=32, S=1, depth=0, heads=2,
                            mlp_dim=64, n_electrodes=2, max_slots=2)
        cfg = TokenizerConfig(encoder=enc, levels=1, codebook_size=8, code_dim=8,
                              decoder_depth=0)
        model = TokenizerModel(cfg, seed=0)
        assert model.head_log_amp.w.data.shape == (32, 101)

    def test_decode_zero_heads_zero_predictions(self):
        from rvqtok.autodiff import Tensor

        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=1)
        for head in (model.head_log_amp, model.head_sin, model.head_cos):
            head.w.tensor.data = np.zeros_like(head.w.data)
            head.b.tensor.data = np.zeros_like(head.b.data)
        pred = model.decode([Tensor(np.zeros((1, 2, 16)))] * 2)
        np.testing.assert_array_equal(pred.log_amp_hat.data, 0.0)
        np.testing.assert_array_equal(pred.sin_hat.data, 0.0)
        np.testing.assert_array_equal(pred.cos_hat.data, 0.0)

    def test_decode_deterministic(self):
        from rvqtok.autodiff import Tensor

        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=2)
        reps = np.random.default_rng(3).normal(size=(2, 3, 16))
        a = model.decode([Tensor(r[None]) for r in reps])
        b = model.decode([Tensor(r[None]) for r in reps])
        assert np.array_equal(a.log_amp_hat.data, b.log_amp_hat.data)

    def test_token_indices_extents(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=4)
        recs = tiny_corpus()
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        idx = model.token_indices(wins.patches[:3], wins.channel_idx[:3],
                                  wins.slot_idx[:3])
        assert idx.shape == (3, 4, 2, 2)  # (W, P, S, N)
        assert idx.min() >= 0 and idx.max() < 16


class TestTrainStep:
    def _setup(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=5)
        recs = tiny_corpus()
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        batch = wins.subset(np.arange(wins.n_windows) < 4)
        state = TrainState(total_steps=10, warmup_steps=2, base_lr=1e-3)
        return model, batch, state

    def test_identical_runs_identical_losses(self):
        traces = []
        for _ in range(2):
            model, batch, state = self._setup()
            trace = [train_step(batch, model, state)["total"] for _ in range(2)]
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_loss_decomposition(self):
        model, batch, state = self._setup()
        parts = train_step(batch, model, state)
        total = parts["log_amp"] + parts["unit"] + parts["temporal"] + parts["lq"]
        assert abs(parts["total"] - total) < 1e-9

    def test_warmup_lr_below_base(self):
        state = TrainState(total_steps=100, warmup_steps=10, base_lr=5e-5)
        assert state.lr() < 5e-5

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        model, batch, state = self._setup()
        model.head_log_amp.w.tensor.data = np.full_like(
            model.head_log_amp.w.data, np.nan)
        with pytest.raises(NumericError) as err:
            train_step(batch, model, state)
        assert "log_amp" in str(err.value)


class TestTrainTokenizer:
    def test_zero_epochs_returns_initial_model(self):
        cfg = tiny_config()
        model, curves = train_tokenizer(tiny_corpus(), cfg, epochs=0)
        assert curves == []
        fresh = TokenizerModel(cfg, seed=0)
        for a, b in zip(model.params(), fresh.params()):
            assert np.array_equal(a.data, b.data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_tokenizer([], tiny_config(), epochs=1)

    def test_same_seed_identical_curves(self):
        recs = tiny_corpus(n=3, seconds=6.0)
        results = []
        for _ in range(2):
            _, curves = train_tokenizer(recs, tiny_config(), epochs=2,
                                        slots_per_window=2, batch_size=2, seed=9)
            results.append(curves)
        assert len(results[0]) == len(results[1])
        for a, b in zip(results[0], results[1]):
            assert a.keys() == b.keys()
            for k in a:
                va, vb = a[k], b[k]
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb, k

    def test_overfit_single_batch(self):
        # gradient-path sanity: loss on one repeated batch collapses
        cfg = tiny_config(w=16, S=2, levels=2, K=8, code_dim=8)
        model = TokenizerModel(cfg, seed=11)
        recs = tiny_corpus(n=1, channels=2, seconds=2.0)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        batch = wins.subset(np.arange(wins.n_windows) < 4)
        state = TrainState(total_steps=1000, warmup_steps=20, base_lr=3e-3)
        first = train_step(batch, model, state)["total"]
        final = first
        for _ in range(999):
            final = train_step(batch, model, state)["total"]
            if final < 0.1 * first:
                break
        assert final < 0.1 * first, f"{final} vs initial {first}"


class TestEvalPerBand:
    def test_identity_oracle_zero_mse(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=12)
        model.reconstruct = lambda p, c, s: p.copy()
        recs = tiny_corpus(n=2, seconds=8.0)
        report = eval_per_band(model, recs, split="all", slots_per_window=2)
        for band, mse in report.mse.items():
            assert mse == 0.0, band

    def test_report_covers_expected_bands(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=13)
        report = eval_per_band(model, tiny_corpus(seconds=8.0), split="all",
                               slots_per_window=2)
        assert list(report.mse) == ["raw", "delta", "theta", "alpha", "beta", "gamma"]
        rows = report.rows()
        assert all(r[0] == "all" for r in rows)

    def test_patch_order_invariance(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=14)
        recs = tiny_corpus(n=2, seconds=8.0)
        a = eval_per_band(model, recs, split="all", slots_per_window=2)
        b = eval_per_band(model, list(reversed(recs)), split="all",
                          slots_per_window=2)
        assert a.mse["raw"] == pytest.approx(b.mse["raw"], rel=1e-12)


class TestCheckpointRoundTrip:
    def test_save_load_save_identical(self, tmp_path):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=15)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_tokenizer(model, p1)
        loaded = load_tokenizer(p1)
        save_tokenizer(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_tokenizes_identically(self, tmp_path):
        recs = tiny_corpus(seconds=4.0)
        model, _ = train_tokenizer(recs, tiny_config(), epochs=1, batch_size=2)
        path = tmp_path / "tok.ckpt"
        save_tokenizer(model, path)
        loaded = load_tokenizer(path)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        a = model.token_indices(wins.patches, wins.channel_idx, wins.slot_idx)
        b = loaded.token_indices(wins.patches, wins.channel_idx, wins.slot_idx)
        assert np.array_equal(a, b)

    def test_config_mismatch_named(self, tmp_path):
        model = TokenizerModel(tiny_config(), seed=16)
        path = tmp_path / "tok.ckpt"
        save_tokenizer(model, path)
        other = tiny_config(K=32)
        with pytest.raises(CompatibilityError) as err:
            load_tokenizer(path, expected=other)
        assert "codebook_size" in str(err.value)


def test_evaluate_reports_raw_mse():
    cfg = tiny_config()
    model = TokenizerModel(cfg, seed=17)
    wins = build_windows(tiny_corpus(seconds=4.0), 16, 2, val_fraction=0.0)
    metrics = evaluate(model, wins)
    assert set(metrics) >= {"log_amp", "unit", "temporal", "lq", "total", "raw_mse"}
    assert metrics["raw_mse"] >= 0.0
