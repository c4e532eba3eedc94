"""Branch shape law, embedding handling, and the shared transformer."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok import autodiff as ad
from rvqtok.autodiff import Tensor, grad_check
from rvqtok.encoder import (BranchConfig, EncoderConfig, MultiScaleEncoder,
                            TemporalBranch, default_branch_configs)
from rvqtok.errors import ConfigError


def _encoder(w=64, D=64, S=2, depth=1, heads=4, seed=0, **kw):
    cfg = EncoderConfig(w=w, model_dim=D, S=S, depth=depth, heads=heads,
                        mlp_dim=4 * D, **kw)
    return MultiScaleEncoder(cfg, np.random.default_rng(seed))


def _window(enc, patches, ch, sl):
    """Encode one window given as (P, w) patches; returns an (S, P, D) array."""
    reps = enc.forward(patches[None], ch[None], sl[None])
    return np.stack([r.data[0] for r in reps])


class TestBranchConfig:
    def test_paper_scale_shapes(self):
        # stock ladder at w=200: 8 channels x 25 steps after /2 then /4 pooling
        for cfg in default_branch_configs(4):
            cfg.validate(200)
            assert cfg.stage_lengths(200)[1] == 25

    def test_desk_scale_shapes(self):
        for cfg in default_branch_configs(4):
            cfg.validate(64)
            assert cfg.stage_lengths(64)[1] == 8

    def test_flatten_mismatch_rejected_at_construction(self):
        bad = BranchConfig(filters=(8, 4))  # 4 x 8 = 32 != 64
        with pytest.raises(ConfigError):
            TemporalBranch(bad, 64, np.random.default_rng(0), "b")

    def test_no_stock_configs_beyond_four(self):
        with pytest.raises(ConfigError):
            default_branch_configs(5)


class TestBranchForward:
    def test_zero_patch_zero_feature(self):
        branch = TemporalBranch(BranchConfig(), 64, np.random.default_rng(1), "b")
        out = branch(Tensor(np.zeros((1, 64))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_output_length_matches_patch(self):
        rng = np.random.default_rng(2)
        for w, cfg in ((200, default_branch_configs(1)[0]),
                       (64, default_branch_configs(2)[1])):
            branch = TemporalBranch(cfg, w, np.random.default_rng(3), "b")
            out = branch(Tensor(rng.normal(size=(3, w))))
            assert out.shape == (3, w)

    def test_batch_locality(self):
        # patches are independent batch rows: changing one leaves others alone
        rng = np.random.default_rng(4)
        branch = TemporalBranch(BranchConfig(), 64, np.random.default_rng(5), "b")
        x = rng.normal(size=(3, 64))
        base = branch(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[1] += 1.0
        out = branch(Tensor(x2)).data
        np.testing.assert_array_equal(out[0], base[0])
        np.testing.assert_array_equal(out[2], base[2])
        assert not np.array_equal(out[1], base[1])


class TestEmbeddings:
    """SE[channel] + TE[slot] as MultiScaleEncoder.forward adds them: at depth 0
    and w == D the forward pass is features + embeddings."""

    def _encoder(self, zero=False):
        enc = _encoder(w=8, D=8, S=2, depth=0, heads=2, seed=6,
                       n_electrodes=4, max_slots=6,
                       branches=[BranchConfig(kernels=(3, 3), paddings=(1, 1),
                                              pools=(2, 4))] * 2)
        if zero:
            enc.tables.spatial.tensor.data = np.zeros_like(enc.tables.spatial.data)
            enc.tables.temporal.tensor.data = np.zeros_like(enc.tables.temporal.data)
        return enc

    @staticmethod
    def _embed(enc, feats, ch, sl):
        return enc.forward(None, ch, sl, features=Tensor(feats))

    def test_zero_tables_leave_features(self):
        enc = self._encoder(zero=True)
        feats = np.random.default_rng(7).normal(size=(2, 1, 3, 8))
        out = self._embed(enc, feats, np.zeros((1, 3), int), np.zeros((1, 3), int))
        for s in range(2):
            np.testing.assert_array_equal(out[s].data, feats[s])

    def test_same_channel_same_row(self):
        enc = self._encoder()
        out = self._embed(enc, np.zeros((2, 1, 2, 8)), np.array([[2, 2]]),
                          np.array([[0, 1]]))
        te = enc.tables.temporal.data
        for s in range(2):
            diff = out[s].data[0, 0] - out[s].data[0, 1]
            np.testing.assert_allclose(diff, te[0] - te[1], atol=1e-12)

    def test_swapping_slots_swaps_te_rows(self):
        enc = self._encoder()
        feats = np.zeros((2, 1, 2, 8))
        a = self._embed(enc, feats, np.array([[0, 1]]), np.array([[3, 5]]))
        b = self._embed(enc, feats, np.array([[0, 1]]), np.array([[5, 3]]))
        te = enc.tables.temporal.data
        np.testing.assert_allclose(a[1].data[0, 0] - b[1].data[0, 0],
                                   te[3] - te[5], atol=1e-12)

    def test_out_of_range_index(self):
        enc = self._encoder()
        with pytest.raises(ConfigError, match="model.n_electrodes"):
            self._embed(enc, np.zeros((2, 1, 1, 8)), np.array([[9]]), np.array([[0]]))
        with pytest.raises(ConfigError, match="model.max_slots"):
            self._embed(enc, np.zeros((2, 1, 1, 8)), np.array([[0]]), np.array([[6]]))


class TestTransformer:
    def test_depth_zero_identity_after_projection(self):
        enc = _encoder(w=16, D=8, S=1, depth=0, heads=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3, 16))
        ch = np.zeros((1, 3), int)
        reps = enc.forward(x, ch, ch)
        feats = enc.branch_features(Tensor(x)).data[0]
        shift = enc.tables.spatial.data[ch] + enc.tables.temporal.data[ch]
        expect = (feats + shift) @ enc.input_proj.w.data + enc.input_proj.b.data
        np.testing.assert_allclose(reps[0].data, expect, atol=1e-12)

    def test_single_patch_attention_reduces_to_value_path(self):
        enc = _encoder(w=64, D=64, S=1, depth=1, heads=4)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 1, 64))
        reps = enc.forward(x, np.zeros((1, 1), int), np.zeros((1, 1), int))
        assert reps[0].shape == (1, 1, 64)

    def test_shared_weights_branch_permutation(self):
        enc = _encoder(w=64, D=32, S=3, depth=1, heads=4)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 4, 64))
        ch = np.zeros((1, 4), int)
        sl = np.tile(np.arange(4), (1, 1))
        feats = enc.branch_features(Tensor(x)).data
        out_a = enc.forward(None, ch, sl, features=Tensor(feats))
        perm = [2, 0, 1]
        out_b = enc.forward(None, ch, sl, features=Tensor(feats[perm]))
        for i, j in enumerate(perm):
            np.testing.assert_array_equal(out_b[i].data, out_a[j].data)

    def test_transformer_runs_once_per_forward(self, workers):
        """A recorded forward makes one batched call; without a tape each
        branch's B sequences are a call of their own, with equal values."""
        workers(2)
        enc = _encoder(w=16, D=16, S=4, depth=1, heads=2, seed=3)
        calls = []
        stack = enc.transformer
        enc.transformer = lambda x: calls.append(x.shape) or stack(x)
        rng = np.random.default_rng(4)
        args = (rng.normal(size=(2, 3, 16)), rng.integers(0, 8, size=(2, 3)),
                rng.integers(0, 3, size=(2, 3)))
        with ad.Tape():
            taped = enc.forward(*args)
        assert calls == [(4 * 2, 3, 16)]
        calls.clear()
        free = enc.forward(*args)
        assert calls == [(2, 3, 16)] * 4
        for a, b in zip(taped, free):
            assert np.array_equal(a.data, b.data)


def _per_branch_reference(enc, x, ch, sl):
    """One branch at a time: branch -> embeddings -> projection -> transformer."""
    B, P, w = x.shape
    shift = ad.add(ad.embedding_lookup(enc.tables.spatial.tensor, ch),
                   ad.embedding_lookup(enc.tables.temporal.tensor, sl))
    out = []
    for br in enc.branches:
        f = ad.reshape(br(ad.reshape(Tensor(x), (B * P, w))), (B, P, w))
        f = ad.add(f, shift)
        if enc.input_proj is not None:
            f = enc.input_proj(f)
        out.append(enc.transformer(f).data)
    return out


class TestBatchedBranches:
    @given(seed=st.integers(0, 2 ** 31 - 1), S=st.sampled_from([1, 4]),
           project=st.booleans())
    @settings(max_examples=24, deadline=None)
    def test_matches_per_branch_loop(self, seed, S, project):
        rng = np.random.default_rng(seed)
        enc = _encoder(w=16, D=8 if project else 16, S=S, depth=2, heads=2,
                       seed=seed % 1000, n_electrodes=3, max_slots=4,
                       branches=[BranchConfig(kernels=(3, 3), paddings=(1, 1),
                                              pools=(2, 4))] * S,
                       layer_scale_init=0.5)
        B, P = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        x = rng.normal(size=(B, P, 16))
        ch = rng.integers(0, 3, size=(B, P))
        sl = rng.integers(0, 4, size=(B, P))
        got = enc.forward(x, ch, sl)
        want = _per_branch_reference(enc, x, ch, sl)
        assert len(got) == S
        for g, r in zip(got, want):
            assert g.shape == r.shape == (B, P, enc.cfg.model_dim)
            np.testing.assert_allclose(g.data, r, rtol=1e-12, atol=0)


class TestMultiScale:
    def test_paper_scale_extents(self):
        # 4 branches at w = D = 200 emit (4, P, 200); depth kept shallow for speed
        enc = _encoder(w=200, D=200, S=4, depth=1, heads=10, seed=21,
                       n_electrodes=4, max_slots=4)
        reps = _window(enc, np.random.default_rng(22).normal(size=(3, 200)),
                       np.array([0, 1, 2]), np.array([0, 0, 0]))
        assert reps.shape == (4, 3, 200)
        assert enc.input_proj is None  # identity projection at w == D

    def test_output_extents(self):
        enc = _encoder(w=64, D=48, S=4, depth=1, heads=4)
        reps = _window(enc, np.random.default_rng(11).normal(size=(6, 64)),
                       np.array([0, 0, 0, 1, 1, 1]), np.array([0, 1, 2, 0, 1, 2]))
        assert reps.shape == (4, 6, 48)

    def test_patch_length_mismatch(self):
        enc = _encoder(w=64, D=32, S=1, depth=0)
        with pytest.raises(ConfigError):
            _window(enc, np.zeros((2, 32)), np.zeros(2, int), np.arange(2))

    def test_patch_permutation_equivariance(self):
        enc = _encoder(w=64, D=32, S=2, depth=2, heads=4, seed=12)
        rng = np.random.default_rng(13)
        patches = rng.normal(size=(5, 64))
        ch = np.array([0, 1, 2, 0, 1])
        sl = np.array([0, 0, 0, 1, 1])
        base = _window(enc, patches, ch, sl)
        perm = np.array([3, 1, 4, 0, 2])
        permuted = _window(enc, patches[perm], ch[perm], sl[perm])
        np.testing.assert_allclose(permuted, base[:, perm, :], atol=1e-10)

    def test_deterministic_construction(self):
        a = _encoder(seed=99)
        b = _encoder(seed=99)
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_params_leave_no_reference_cycle(self):
        # a model's parameters go when the model does, without waiting for
        # the cyclic collector (a paper tokenizer's are 57 MiB)
        enc = _encoder(seed=3)
        params = enc.params()
        assert len(params) == len({id(p) for p in params}) > 0
        gone = weakref.ref(params[0].data)
        gc.disable()
        try:
            del enc, params
            assert gone() is None
        finally:
            gc.enable()

    def test_gradient_flow_through_full_encoder(self):
        cfg = EncoderConfig(w=8, model_dim=8, S=1, depth=1, heads=2, mlp_dim=16,
                            branches=[BranchConfig(kernels=(3, 3), paddings=(1, 1),
                                                   pools=(2, 4))],
                            n_electrodes=2, max_slots=2)
        enc = MultiScaleEncoder(cfg, np.random.default_rng(14))
        ch = np.zeros((1, 2), int)
        sl = np.array([[0, 1]])

        def f(t):
            reps = enc.forward(ad.reshape(t, (1, 2, 8)), ch, sl)
            return ad.tsum(ad.square(reps[0]))

        err = grad_check(f, Tensor(np.random.default_rng(15).normal(size=16)))
        assert err < 1e-4
