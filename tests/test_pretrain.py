"""Symmetric masking, teacher tokens, masked-prediction training, the probe."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rvqtok import autodiff as ad
from rvqtok import pretrain as pt
from rvqtok import tokenizer as tk
from rvqtok.autodiff import Tape, Tensor, backward
from rvqtok.checkpoint import config_header, save_arrays
from rvqtok.config import load_config
from rvqtok.encoder import EncoderConfig
from rvqtok.errors import CompatibilityError, ConfigError
from rvqtok.pretrain import (BackboneModel, PretrainConfig, check_teacher_compat,
                             extract_features, fit_linear_probe, make_symmetric_masks,
                             masked_metrics, pretrain, pretrain_step,
                             probe_corpus, run_linear_probe, load_backbone,
                             save_backbone, teacher_tokens)
from rvqtok.rvq import normalize_rows
from rvqtok.signals import SynthSpec, synth_generate
from rvqtok.tokenizer import build_windows, train_tokenizer
from tests.helpers import load_arrays
from tests.test_autodiff import retained_backward
from tests.test_tokenizer import schedule, tiny_config, tiny_corpus


def tiny_pretrain_config(w=16, S=2, levels=2, K=16, depth=1, **kw):
    enc = EncoderConfig(w=w, model_dim=w, S=S, depth=depth, heads=2,
                        mlp_dim=2 * w, n_electrodes=4, max_slots=8,
                        layer_scale_init=0.1)
    return PretrainConfig(encoder=enc, levels=levels, codebook_size=K,
                          batch_size=2, slots_per_window=2, **kw)


def _window_keys(windows):
    """Each window's patch values and channel rows, as bytes: the inputs its
    tokens depend on besides the slot indices every window shares."""
    return [(windows.patches[i].tobytes(), windows.channel_idx[i].tobytes())
            for i in range(windows.n_windows)]


def _tokens_by_window(windows, tokens):
    """Each window's (P, S, N) tokens keyed by :func:`_window_keys`."""
    return dict(zip(_window_keys(windows), tokens))


def desk_batch():
    """The desk profile and a batch of its first two windows."""
    cfg = load_config(profile="desk")
    pc = cfg.pretrain_config()
    recs = [synth_generate(SynthSpec(seed=s, n_channels=8, duration=2.0,
                                     sample_rate=128.0)) for s in range(2)]
    wins = build_windows(recs, pc.encoder.w, pc.slots_per_window, val_fraction=0.0)
    return cfg, wins.subset(np.arange(wins.n_windows) < 2)


def step_inputs(pc, batch, seed=0, rho=None):
    """Random teacher tokens and symmetric masks (ratio ``rho``, default the
    config's) for one step on ``batch``."""
    W, P = batch.patches.shape[:2]
    rng = np.random.default_rng(seed)
    teacher = rng.integers(0, pc.codebook_size, size=(W, P, pc.encoder.S, pc.levels))
    masks = np.stack([make_symmetric_masks(P, rho or pc.mask_ratio, rng).mask
                      for _ in range(W)])
    return teacher, masks


@pytest.fixture
def kept_tapes(monkeypatch):
    """The entries of each tape training and pretraining steps pass to
    backward, in order, copied before the walk empties the tape."""
    tapes = []

    def keep_tape(tape, loss):
        tapes.append(list(tape.entries))
        return ad.backward(tape, loss)

    monkeypatch.setattr(tk, "backward", keep_tape)
    monkeypatch.setattr(pt, "backward", keep_tape)
    return tapes


def two_pass_step(backbone, batch, masks, teacher):
    """Reference for the one-pass step: branch features per view, one view at
    a time, each view's masked CE divided by its own masked count.  Returns
    (loss, accuracy, gradient per parameter name) and leaves the parameters
    and their gradients as they were."""
    w = backbone.cfg.encoder.w
    n_heads = sum(len(row) for row in backbone.heads)

    def view(mask):
        t = ad._as_tensor(batch.patches)
        token = ad.reshape(backbone.mask_token.tensor, (1, 1, w))
        features = ad.add(ad.mul(backbone.encoder.branch_features(t),
                                 Tensor((~mask)[..., None])),
                          ad.mul(token, Tensor(mask[..., None])))
        reps = backbone.encoder.forward(t, batch.channel_idx, batch.slot_idx,
                                        features=features)
        n_masked = float(mask.sum())
        total, correct = None, 0
        for s, row in enumerate(backbone.heads):
            for n, head in enumerate(row):
                logits = head(reps[s])
                labels = teacher[:, :, s, n]
                ce = ad.cross_entropy_logits(logits, labels)
                masked_ce = ad.div(ad.tsum(ad.mul(ce, Tensor(mask.astype(float)))),
                                   Tensor(np.asarray(n_masked)))
                total = masked_ce if total is None else ad.add(total, masked_ce)
                correct += int(((logits.data.argmax(-1) == labels) & mask).sum())
        return ad.mul(Tensor(np.asarray(1.0 / n_heads)), total), correct, n_masked

    with Tape() as tape:
        loss_a, correct_a, masked_a = view(masks)
        loss_b, correct_b, masked_b = view(~masks)
        total = ad.mul(Tensor(np.asarray(0.5)), ad.add(loss_a, loss_b))
    backward(tape, total)
    grads = {p.name: p.tensor.grad for p in backbone.params()}
    for p in backbone.params():
        p.zero_grad()
    acc = (correct_a + correct_b) / (n_heads * (masked_a + masked_b))
    return total.item(), acc, grads


class TestMaskPlans:
    def test_half_ratio_counts(self):
        plan = make_symmetric_masks(10, 0.5, seed=1)
        assert plan.mask.sum() == 5

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
                                   **schedule(batch_size=2))
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
            check_teacher_compat(config_header(tok_model.cfg), cfg)
        assert "codebook_size" in str(err.value)


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


class TestOnePassStep:
    """The step computes the branch features once and runs the mask view and
    its complement through the backbone as one batch."""

    @staticmethod
    def _tiny_batch():
        recs = tiny_corpus(n=2, channels=2, seconds=4.0, seed=41)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        return wins.subset(np.arange(wins.n_windows) < 2)

    @pytest.mark.parametrize("profile", ["tiny", "desk"])
    def test_step_matches_two_pass_reference(self, monkeypatch, profile):
        if profile == "tiny":
            pc, batch = tiny_pretrain_config(seed=0), self._tiny_batch()
        else:
            cfg, batch = desk_batch()
            pc = cfg.pretrain_config()
        # a ratio off 0.5 gives the two views different masked counts
        teacher, masks = step_inputs(pc, batch, seed=3, rho=0.25)
        backbone = BackboneModel(pc, seed=0)
        want_loss, want_acc, want_grads = two_pass_step(backbone, batch, masks, teacher)

        seen = {}

        def capture(params, **kwargs):
            seen.update({p.name: p.tensor.grad.copy() for p in params})

        monkeypatch.setattr(pt, "adamw_step", capture)
        loss, acc = pretrain_step(batch, masks, backbone, teacher, lr=1e-3)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        assert acc == want_acc
        assert seen.keys() == want_grads.keys()
        for name, grad in want_grads.items():
            np.testing.assert_allclose(seen[name], grad, rtol=1e-9, err_msg=name)

    def test_two_view_loss_matches_finite_differences(self):
        """mask_token and the stage-1 convolution receive their gradients
        summed over both views through the shared features."""
        pc = tiny_pretrain_config(seed=0)
        batch = self._tiny_batch()
        teacher, masks = step_inputs(pc, batch, seed=4)
        backbone = BackboneModel(pc, seed=1)
        views = np.stack([masks, ~masks])
        by_name = {p.name: p for p in backbone.params()}
        worst = 0.0
        for name in ("mask_token", "backbone.branch0.stage1.conv.w"):
            param = by_name[name]
            orig = param.tensor

            def loss(t, param=param, orig=orig):
                param.tensor = t
                try:
                    return pt._view_loss(backbone, batch, views, teacher)[0]
                finally:
                    param.tensor = orig

            worst = max(worst, ad.grad_check(loss, Tensor(orig.data.copy())))
        assert worst < 1e-4  # the gradient suite's bound (criterion 1)

    def test_desk_step_runs_each_branch_convolution_once(self, kept_tapes):
        cfg, batch = desk_batch()
        pc = cfg.pretrain_config()
        teacher, masks = step_inputs(pc, batch)
        pretrain_step(batch, masks, BackboneModel(pc, seed=0), teacher, lr=1e-3)
        convs = sum(e.name == "conv1d" for e in kept_tapes[0])
        assert convs == 2 * pc.encoder.S  # two conv stages per branch

    def test_desk_step_frees_the_graph_during_backward(self, monkeypatch):
        """Traced peak of one desk step with the draining walk against a walk
        that keeps every entry and gradient; both give the same update."""
        cfg, batch = desk_batch()
        pc = cfg.pretrain_config()
        teacher, masks = step_inputs(pc, batch)

        def traced_step():
            backbone = BackboneModel(pc, seed=0)
            tracemalloc.start()
            try:
                pretrain_step(batch, masks, backbone, teacher, lr=1e-3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, [p.data.tobytes() for p in backbone.params()]

        drained, params = traced_step()
        monkeypatch.setattr(pt, "backward", retained_backward)
        retained, want = traced_step()
        assert params == want
        assert drained <= 0.6 * retained, (drained, retained)

    def test_stacked_views_equal_single_view_calls(self):
        pc = tiny_pretrain_config(S=3, seed=0)
        batch = self._tiny_batch()
        backbone = BackboneModel(pc, seed=2)
        rng = np.random.default_rng(5)
        B, P = batch.patches.shape[:2]
        views = rng.random((3, B, P)) < 0.5
        # rows that differ between windows, so the views' order shows
        args = (batch.patches, rng.integers(0, 4, (B, P)), rng.integers(0, 8, (B, P)))
        stacked = backbone.forward(*args, mask=views)
        singles = [backbone.forward(*args, mask=v) for v in views]
        for s, rep in enumerate(stacked):
            want = np.concatenate([single[s].data for single in singles])
            np.testing.assert_allclose(rep.data, want, rtol=1e-12, atol=1e-12)

    def test_unmasked_forward_is_the_encoder_path(self):
        pc = tiny_pretrain_config(seed=0)
        batch = self._tiny_batch()
        backbone = BackboneModel(pc, seed=3)
        args = (batch.patches, batch.channel_idx, batch.slot_idx)
        features = backbone.encoder.branch_features(Tensor(batch.patches))
        want = backbone.encoder.forward(*args, features=features)
        got = backbone.forward(*args)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)


class TestPretrainLoop:
    def test_zero_epochs_returns_untrained(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=0, seed=0)
        backbone, curves = pretrain(recs, cfg, tok_model)
        fresh = BackboneModel(cfg, seed=cfg.seed)
        for a, b in zip(backbone.params(), fresh.params()):
            assert np.array_equal(a.data, b.data)
        assert curves == []

    def test_same_seed_identical_curves(self, trained_pair):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=2, seed=4)
        _, a = pretrain(recs, cfg, tok_model)
        _, b = pretrain(recs, cfg, tok_model)
        assert a == b

    @staticmethod
    def _run_checking_labels(monkeypatch, recs, cfg, tok_model, by_window):
        """Run ``pretrain``, check that every training batch and the
        validation set used the tokens ``by_window`` holds for their
        windows, and return the curves."""
        seen = []
        real_step, real_metrics = pt.pretrain_step, pt.masked_metrics

        def check(windows, teacher):
            want = np.stack([by_window[k] for k in _window_keys(windows)])
            np.testing.assert_array_equal(teacher.reshape(want.shape), want)
            seen.append(windows.n_windows)

        def step(batch, masks, backbone, teacher, lr):
            check(batch, teacher)
            return real_step(batch, masks, backbone, teacher, lr)

        def metrics(backbone, windows, teacher, *args, **kwargs):
            check(windows, teacher)
            return real_metrics(backbone, windows, teacher, *args, **kwargs)

        monkeypatch.setattr(pt, "pretrain_step", step)
        monkeypatch.setattr(pt, "masked_metrics", metrics)
        _, curves = pt.pretrain(recs, cfg, tok_model)
        windows = build_windows(recs, 16, cfg.slots_per_window)
        assert sum(seen) == cfg.epochs * windows.n_windows
        return curves

    @pytest.mark.parametrize("slots", [2, 4])
    def test_equal_window_lengths_train_on_direct_teacher_tokens(
            self, trained_pair, monkeypatch, slots):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=2, seed=0)
        cfg.slots_per_window = slots
        windows = build_windows(recs, 16, slots)
        # 24 slots per recording: 2-slot windows leave one validation window
        # each, 4-slot windows none, so both branches of the loop run
        assert (windows.val.n_windows > 0) == (slots == 2)
        # the oracle tokenizes the train and val sets directly
        by_window = {}
        for split in (windows.train, windows.val):
            if split.n_windows:
                by_window.update(_tokens_by_window(split, teacher_tokens(split, tok_model)))
        curves = self._run_checking_labels(monkeypatch, recs, cfg, tok_model,
                                           by_window)
        assert [r["epoch"] for r in curves if r["split"] == "train"] == [1, 2]
        assert all(math.isfinite(r["ce_loss"]) for r in curves)

    def test_whole_corpus_windows_freed_by_first_step(self, trained_pair,
                                                     monkeypatch):
        recs, tok_model = trained_pair
        cfg = tiny_pretrain_config(epochs=1, seed=0)
        cuts, alive = [], []
        real_build, real_step = pt.build_windows, pt.pretrain_step

        def build(*args, **kwargs):
            windows = real_build(*args, **kwargs)
            cuts.append(weakref.ref(windows))
            return windows

        def step(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in cuts))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(pt, "build_windows", build)
        monkeypatch.setattr(pt, "pretrain_step", step)
        pt.pretrain(recs, cfg, tok_model)
        # the corpus is cut once, and the cut is gone once split
        assert len(cuts) == 1
        assert alive and alive[0] == 0

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

    def test_extract_features_concatenates_branches_in_order(self, trained_pair,
                                                            monkeypatch):
        recs, _ = trained_pair
        cfg = tiny_pretrain_config(S=3, seed=0)
        backbone = BackboneModel(cfg, seed=5)
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        reps = backbone.forward(wins.patches, wins.channel_idx, wins.slot_idx)
        expected = np.concatenate([r.data for r in reps], axis=-1)
        monkeypatch.setattr(pt, "INFERENCE_BATCH", 2)  # several batches
        got = extract_features(backbone, wins)
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


def test_desk_models_run_in_float64(kept_tapes):
    """Every parameter of the desk tokenizer and backbone, and the output of
    every tape entry of one training step of each, is float64."""
    cfg, batch = desk_batch()
    tc, pc = cfg.tokenizer_config(), cfg.pretrain_config()
    tokenizer, backbone = tk.TokenizerModel(tc, seed=0), pt.BackboneModel(pc, seed=0)
    params = [p for model in (tokenizer, backbone) for p in model.params()]

    tk.train_step(batch, tokenizer, lr=1e-3, weight_decay=1e-4)
    teacher, masks = step_inputs(pc, batch)
    pretrain_step(batch, masks, backbone, teacher, lr=1e-3)

    assert all(p.data.dtype == np.float64 for p in params)
    assert len(kept_tapes) == 2
    for entries in kept_tapes:
        assert entries
        odd = [e.name for e in entries if e.output.dtype != np.float64]
        assert not odd, f"{len(odd)} of {len(entries)} entries not float64: {odd[:5]}"
