"""Windowing, tokenizer assembly, training steps, band evaluation, checkpoints."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok.encoder import EncoderConfig
from rvqtok.errors import CompatibilityError, ConfigError, NumericError
from rvqtok.optim import cosine_warmup_lr
from rvqtok.signals import STANDARD_BANDS, Recording, SynthSpec, synth_generate
from rvqtok.tokenizer import (TokenizerConfig, TokenizerModel,
                              build_windows, eval_per_band,
                              evaluate, load_tokenizer, save_tokenizer,
                              train_step, train_tokenizer)


def tiny_config(w=16, S=2, levels=2, K=16, code_dim=8, depth=1, heads=2):
    enc = EncoderConfig(w=w, model_dim=w, S=S, depth=depth, heads=heads,
                        mlp_dim=2 * w, n_electrodes=4, max_slots=8)
    return TokenizerConfig(encoder=enc, levels=levels, codebook_size=K,
                           code_dim=code_dim, decoder_depth=1)


def schedule(**changes):
    """``train_tokenizer``'s schedule arguments for tiny runs, with
    ``changes`` applied."""
    return {"slots_per_window": 2, "batch_size": 8, "base_lr": 1e-3,
            "min_lr": 1e-5, "weight_decay": 1e-4, "warmup_epochs": 1,
            "seed": 0, **changes}


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
        # window 1 holds slots 2 and 3: each patch starts at its slot's sample
        np.testing.assert_array_equal(wins.patches[1, :, 0], [32, 48, 96, 112])

    def test_mismatched_channel_counts_rejected(self):
        recs = [Recording(64.0, ["a"], np.zeros((1, 64))),
                Recording(64.0, ["a", "b"], np.zeros((2, 64)))]
        with pytest.raises(ConfigError):
            build_windows(recs, 16, 2)

    def test_too_short_recording_rejected(self):
        with pytest.raises(ConfigError):
            build_windows([Recording(64.0, ["a"], np.zeros((1, 20)))], 16, 2)

    @staticmethod
    def _window_loop(recordings, w, slots_per_window, val_fraction):
        """The per-window cut build_windows replaced, kept as its oracle."""
        n_ch = recordings[0].n_channels
        electrodes: list[str] = []
        for rec in recordings:
            for name in rec.channels:
                if name not in electrodes:
                    electrodes.append(name)
        blocks = {k: [] for k in ("patches", "channel_idx", "slot_idx", "val")}
        for rec in recordings:
            total_slots = rec.n_samples // w
            n_win = total_slots // slots_per_window
            val_start = math.ceil((1.0 - val_fraction) * total_slots)
            chan_rows = np.array([electrodes.index(c) for c in rec.channels])
            data = rec.data[:, :n_win * slots_per_window * w].reshape(
                n_ch, n_win, slots_per_window, w)
            for wi in range(n_win):
                blocks["patches"].append(data[:, wi].reshape(n_ch * slots_per_window, w))
                blocks["channel_idx"].append(np.repeat(chan_rows, slots_per_window))
                blocks["slot_idx"].append(np.tile(np.arange(slots_per_window), n_ch))
                blocks["val"].append(wi * slots_per_window >= val_start)
        return {"patches": np.stack(blocks["patches"]),
                "channel_idx": np.stack(blocks["channel_idx"]),
                "slot_idx": np.stack(blocks["slot_idx"]),
                "val_mask": np.asarray(blocks["val"], dtype=bool)}

    @staticmethod
    @st.composite
    def _corpora(draw):
        n_ch = draw(st.integers(1, 3))
        w = draw(st.sampled_from([4, 8, 16]))
        slots = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        recs = []
        for _ in range(draw(st.integers(1, 3))):
            # names drawn from a shared pool in a per-recording order, so
            # later recordings both reorder and add electrode rows
            names = draw(st.permutations(["Cz", "Pz", "Fz", "Oz"]))[:n_ch]
            n_samples = draw(st.integers(slots * w, 5 * slots * w + w - 1))
            recs.append(Recording(64.0, list(names), rng.normal(size=(n_ch, n_samples))))
        val_fraction = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
        return recs, w, slots, val_fraction

    @given(_corpora())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_window_loop_byte_for_byte(self, corpus):
        recs, w, slots, val_fraction = corpus
        got = build_windows(recs, w, slots, val_fraction=val_fraction)
        want = self._window_loop(recs, w, slots, val_fraction)
        for name, ref in want.items():
            arr = getattr(got, name)
            assert arr.dtype == ref.dtype, name
            assert arr.shape == ref.shape, name
            assert arr.tobytes() == ref.tobytes(), name


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
            for name in ("patches", "channel_idx", "slot_idx", "val_mask"):
                np.testing.assert_array_equal(getattr(chunk, name), getattr(ref, name))

    def test_schedule_draws_each_order_as_its_epoch_starts(self):
        wins = build_windows(tiny_corpus(n=2), 16, 2, val_fraction=0.0)
        rng = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        epochs = wins.schedule(2, 5, rng, base_lr=1.0, min_lr=0.1, warmup_epochs=1)
        for epoch in (1, 2):
            n, batches = next(epochs)
            order = ref.permutation(16)
            # the batches draw nothing; the caller's draws between epochs
            # come before the next epoch's order
            after_order = rng.bit_generator.state
            got = list(batches)
            assert rng.bit_generator.state == after_order
            assert n == epoch
            want = list(wins.batches(5, order))
            for (idx, _, _), (ref_idx, _) in zip(got, want, strict=True):
                np.testing.assert_array_equal(idx, ref_idx)
            steps = range(4 * (epoch - 1), 4 * epoch)
            assert [lr for *_, lr in got] == [cosine_warmup_lr(s, 8, 4, 1.0, 0.1)
                                              for s in steps]
            rng.random(), ref.random()
        assert next(epochs, None) is None


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

    def test_token_indices_skip_the_commitment_loss(self, monkeypatch):
        import rvqtok.tokenizer as tokenizer

        calls = []
        loss = tokenizer.quantization_loss
        monkeypatch.setattr(tokenizer, "quantization_loss",
                            lambda *args: calls.append(1) or loss(*args))
        model = TokenizerModel(tiny_config(), seed=4)
        wins = build_windows(tiny_corpus(), 16, 2, val_fraction=0.0)
        batch = (wins.patches[:3], wins.channel_idx[:3], wins.slot_idx[:3])
        idx = model.token_indices(*batch)
        assert calls == []
        _, assigns, _ = model.quantize_branches(model.encoder.forward(*batch))
        assert len(calls) == len(assigns)
        want = np.stack([a.indices.reshape(3, 4, -1) for a in assigns], axis=2)
        assert idx.tobytes() == want.tobytes()


class TestTrainStep:
    def _setup(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=5)
        recs = tiny_corpus()
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        batch = wins.subset(np.arange(wins.n_windows) < 4)
        return model, batch

    def test_identical_runs_identical_losses(self):
        traces = []
        for _ in range(2):
            model, batch = self._setup()
            trace = [train_step(batch, model, cosine_warmup_lr(step, 10, 2, 1e-3, 1e-5),
                                1e-4)["total"] for step in range(2)]
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_loss_decomposition(self):
        model, batch = self._setup()
        parts = train_step(batch, model, 5e-4, 1e-4)
        total = parts["log_amp"] + parts["unit"] + parts["temporal"] + parts["lq"]
        assert abs(parts["total"] - total) < 1e-9

    def test_warmup_lr_below_base(self):
        assert cosine_warmup_lr(0, 100, 10, 5e-5, 1e-5) < 5e-5

    @pytest.mark.parametrize("total, warmup", [(100, 10), (7, 1), (12, 5)])
    def test_schedule_endpoints(self, total, warmup):
        base, floor = 3e-3, 1e-5
        ramp = [cosine_warmup_lr(s, total, warmup, base, floor) for s in range(warmup)]
        assert ramp == sorted(ramp) and ramp[-1] == pytest.approx(base, rel=1e-12)
        assert cosine_warmup_lr(warmup, total, warmup, base,
                                floor) == pytest.approx(base, rel=1e-12)
        assert cosine_warmup_lr(total, total, warmup, base, floor) == floor
        assert cosine_warmup_lr(total + 5, total, warmup, base, floor) == floor

    @pytest.mark.parametrize("total", [0, -3])
    def test_schedule_without_steps_is_base(self, total):
        assert cosine_warmup_lr(0, total, 2, 3e-3, 1e-5) == 3e-3
        assert cosine_warmup_lr(9, total, 0, 3e-3, 1e-5) == 3e-3

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        model, batch = self._setup()
        model.head_log_amp.w.tensor.data = np.full_like(
            model.head_log_amp.w.data, np.nan)
        with pytest.raises(NumericError) as err:
            train_step(batch, model, 5e-4, 1e-4)
        assert "log_amp" in str(err.value)


class TestTrainTokenizer:
    def test_zero_epochs_returns_initial_model(self):
        cfg = tiny_config()
        model, curves = train_tokenizer(tiny_corpus(), cfg, epochs=0,
                                        **schedule())
        assert curves == []
        fresh = TokenizerModel(cfg, seed=0)
        for a, b in zip(model.params(), fresh.params()):
            assert np.array_equal(a.data, b.data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_tokenizer([], tiny_config(), epochs=1, **schedule())

    def test_whole_corpus_windows_freed_by_first_step(self, monkeypatch):
        import rvqtok.tokenizer as tk

        cuts, alive = [], []
        real_build, real_step = tk.build_windows, tk.train_step

        def build(*args, **kwargs):
            windows = real_build(*args, **kwargs)
            cuts.append(weakref.ref(windows))
            return windows

        def step(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in cuts))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(tk, "build_windows", build)
        monkeypatch.setattr(tk, "train_step", step)
        train_tokenizer(tiny_corpus(n=3, seconds=6.0), tiny_config(), epochs=1,
                        **schedule(batch_size=2))
        assert len(cuts) == 1
        assert alive and alive[0] == 0

    def test_kmeans_setup_arrays_freed_by_first_step(self, monkeypatch):
        # the leading windows k-means seeds from and their encoder outputs
        import rvqtok.tokenizer as tk
        from rvqtok.encoder import MultiScaleEncoder

        refs, alive = [], []
        real_forward, real_step = MultiScaleEncoder.forward, tk.train_step

        def forward(self, patches, *args):
            reps = real_forward(self, patches, *args)
            if not alive:  # before the first step: the set-up's forward
                refs.extend(weakref.ref(a) for a in [patches] + [r.data for r in reps])
            return reps

        def step(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(MultiScaleEncoder, "forward", forward)
        monkeypatch.setattr(tk, "train_step", step)
        train_tokenizer(tiny_corpus(n=3, seconds=6.0), tiny_config(), epochs=1,
                        **schedule(batch_size=2))
        assert len(refs) == 1 + tiny_config().encoder.S
        assert alive and alive[0] == 0

    def test_same_seed_identical_curves(self):
        recs = tiny_corpus(n=3, seconds=6.0)
        results = []
        for _ in range(2):
            _, curves = train_tokenizer(recs, tiny_config(), epochs=2,
                                        **schedule(batch_size=2, seed=9))
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

        def step(i):
            lr = cosine_warmup_lr(i, 1000, 20, 3e-3, 1e-5)
            return train_step(batch, model, lr, 1e-4)["total"]

        first = step(0)
        final = first
        for i in range(1, 1000):
            final = step(i)
            if final < 0.1 * first:
                break
        assert final < 0.1 * first, f"{final} vs initial {first}"


class TestEvalPerBand:
    def test_identity_oracle_zero_mse(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=12)
        model.reconstruct = lambda p, c, s: p.copy()
        recs = tiny_corpus(n=2, seconds=8.0)
        report = eval_per_band(model, recs, STANDARD_BANDS, split="all",
                               slots_per_window=2)
        for band, mse in report.mse.items():
            assert mse == 0.0, band

    def test_report_covers_expected_bands(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=13)
        report = eval_per_band(model, tiny_corpus(seconds=8.0), STANDARD_BANDS,
                               split="all", slots_per_window=2)
        assert list(report.mse) == ["raw", "delta", "theta", "alpha", "beta", "gamma"]
        rows = report.rows()
        assert all(r[0] == "all" for r in rows)

    # 4 s gives 8 two-slot windows per recording, all starting before slot
    # ceil(0.9 * 16) = 15, so none is held out; 8 s holds out one each
    @pytest.mark.parametrize("seconds, label, windows", [(4.0, "all", 16),
                                                         (8.0, "validation", 2)])
    def test_validation_label_names_the_windows_measured(self, seconds, label, windows):
        model = TokenizerModel(tiny_config(), seed=13)
        recs = tiny_corpus(n=2, seconds=seconds)
        report = eval_per_band(model, recs, STANDARD_BANDS, split="validation",
                               slots_per_window=2)
        assert report.split == label
        assert report.patches == windows * 2 * 2  # 2 channels x 2 slots

    def test_patch_order_invariance(self):
        cfg = tiny_config()
        model = TokenizerModel(cfg, seed=14)
        recs = tiny_corpus(n=2, seconds=8.0)
        a = eval_per_band(model, recs, STANDARD_BANDS, split="all",
                          slots_per_window=2)
        b = eval_per_band(model, list(reversed(recs)), STANDARD_BANDS,
                          split="all", slots_per_window=2)
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
        model, _ = train_tokenizer(recs, tiny_config(), epochs=1,
                                   **schedule(batch_size=2))
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


def test_evaluate_raw_mse_is_the_reconstruction_mse():
    """At desk w, raw_mse is the mean square error of ``reconstruct`` over
    the set: exactly for one window, to rounding across batches."""
    model = TokenizerModel(tiny_config(w=64), seed=18)
    wins = build_windows(tiny_corpus(seconds=8.0), 64, 2, val_fraction=0.0)
    recon = np.concatenate([model.reconstruct(c.patches, c.channel_idx, c.slot_idx)
                            for _, c in wins.batches(2)])
    want = np.mean((recon - wins.patches) ** 2)
    assert evaluate(model, wins, batch_size=3)["raw_mse"] == pytest.approx(
        want, rel=1e-12, abs=0)
    one = wins.subset(np.arange(wins.n_windows) < 1)
    recon = model.reconstruct(one.patches, one.channel_idx, one.slot_idx)
    assert evaluate(model, one)["raw_mse"] == np.mean((recon - one.patches) ** 2)
