"""Nearest-neighbor quantization, residual cascades, EMA learning, k-means init."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok import autodiff as ad
from rvqtok import rvq
from rvqtok.autodiff import Tape, Tensor, backward
from rvqtok.errors import ConfigError, ShapeError
from rvqtok.optim import Parameter
from rvqtok.rvq import (Codebook, RVQStack, begin_epoch, end_epoch_reinit,
                        ema_update, kmeans_init, kmeans_init_stack,
                        nearest_rows, normalize_rows, quantization_loss,
                        quantize_level, straight_through, update_centers)


def _stack(model_dim=6, code_dim=4, levels=2, entries=8, seed=0, identity=False):
    rng = np.random.default_rng(seed)
    stack = RVQStack.create(model_dim, code_dim, levels, entries, rng)
    if identity:
        assert model_dim == code_dim
        stack.down_proj = Parameter(np.eye(model_dim), "down")
        stack.up_proj = Parameter(np.eye(model_dim), "up")
    return stack


def _quantize(p, stack, forced_indices=None):
    """Down-project (B, D) inputs, cascade the levels, up-project the code sum."""
    assign = stack.quantize_codes(np.atleast_2d(p) @ stack.down_proj.data,
                                  forced_indices)
    return assign, assign.reconstruction @ stack.up_proj.data


class TestQuantizeLevel:
    def test_exact_entry_selected(self):
        p = np.array([0.3, -0.7, 0.2])
        entries = np.vstack([p + 5.0, p, p - 9.0])
        idx, z = quantize_level(p, Codebook(entries))
        assert idx == 1
        np.testing.assert_array_equal(z, p)

    def test_collinear_wins_under_normalized_metric(self):
        book = Codebook(np.array([[2.0, 0.0], [0.0, 3.0]]))
        idx, z = quantize_level(np.array([1.0, 0.0]), book)
        assert idx == 0
        np.testing.assert_array_equal(z, [2.0, 0.0])

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(42)
        book = Codebook(rng.normal(size=(16, 5)))
        queries = rng.normal(size=(100, 5))
        idx, _ = quantize_level(queries, book)
        vn = normalize_rows(book.entries)
        for i, q in enumerate(queries):
            qn = q / np.linalg.norm(q)
            dists = [float(((qn - vn[j]) ** 2).sum()) for j in range(16)]
            assert idx[i] == int(np.argmin(dists))

    def test_zero_query_falls_back_to_raw_distance(self):
        book = Codebook(np.array([[5.0, 0.0], [0.1, 0.1]]))
        idx, z = quantize_level(np.zeros(2), book)
        assert idx == 1  # nearest raw entry, not the unit-normalized tie

    def test_tie_breaks_to_lowest_index(self):
        book = Codebook(np.array([[1.0, 0.0], [2.0, 0.0]]))  # same direction
        idx, _ = quantize_level(np.array([3.0, 0.0]), book)
        assert idx == 0

    def test_empty_codebook_rejected(self):
        with pytest.raises(ConfigError):
            Codebook(np.zeros((0, 3)))


def _broadcast_nearest(x, table):
    """The brute-force oracle: argmin over an explicit (B, K, d) tensor."""
    return np.argmin(((x[:, None, :] - table[None, :, :]) ** 2).sum(axis=-1), axis=1)


def _broadcast_quantize(q, entries):
    """quantize_level's picks from (B, K, d) tensors: normalized distances,
    raw distances for queries that normalize to zero."""
    d = ((normalize_rows(q)[:, None, :] - normalize_rows(entries)[None, :, :]) ** 2
         ).sum(axis=-1)
    zero = np.linalg.norm(q, axis=-1) == 0.0
    d[zero] = ((q[zero][:, None, :] - entries[None, :, :]) ** 2).sum(axis=-1)
    return np.argmin(d, axis=1)


@st.composite
def _search_cases(draw):
    """A table with duplicate, collinear and all-zero rows; queries that are
    zero, codewords or multiples of codewords; a search block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    K, d, B = draw(st.integers(1, 24)), draw(st.integers(1, 6)), draw(st.integers(0, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    grid = draw(st.booleans())  # small-integer grids tie often
    table = rng.normal(size=(K, d)) * 2.0
    x = rng.normal(size=(B, d)) * 2.0
    if grid:
        table, x = np.round(table), np.round(x)
    table, x = table * scale, x * scale
    for kind in draw(st.lists(st.sampled_from(["dup", "collinear", "zero"]),
                              max_size=6)):
        i, j = rng.integers(0, K, size=2)
        table[i] = {"dup": table[j], "collinear": table[j] * rng.uniform(0.25, 4.0),
                    "zero": 0.0}[kind]
    for r in range(B):
        kind = draw(st.sampled_from(["free", "zero", "codeword", "multiple"]))
        j = rng.integers(0, K)
        if kind == "zero":
            x[r] = 0.0
        elif kind == "codeword":
            x[r] = table[j]
        elif kind == "multiple":
            x[r] = table[j] * draw(st.sampled_from([0.5, 2.0, 3.0]))
    block = draw(st.integers(1, 64))  # SEARCH_BLOCK: rows per block = block // K
    return x, table, block


class TestNearestRows:
    @given(_search_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_broadcast_oracle(self, case):
        x, table, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rvq, "SEARCH_BLOCK", block)
            got = nearest_rows(x, table)
        np.testing.assert_array_equal(got, _broadcast_nearest(x, table))

    @given(_search_cases())
    @settings(max_examples=300, deadline=None)
    def test_quantize_level_matches_broadcast_oracle(self, case):
        q, table, block = case
        book = Codebook(table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rvq, "SEARCH_BLOCK", block)
            idx, z = quantize_level(q, book)
        want = _broadcast_quantize(q, table)
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(z, table[want])

    def test_batch_crosses_default_block(self):
        rng = np.random.default_rng(11)
        table = np.round(rng.normal(size=(4096, 2)) * 3.0)  # many exact duplicates
        x = np.round(rng.normal(size=(rvq.SEARCH_BLOCK // 4096 + 100, 2)) * 3.0)
        np.testing.assert_array_equal(nearest_rows(x, table),
                                      _broadcast_nearest(x, table))

    def test_paper_batch_memory_bounded(self):
        # 32 windows x 64 patches against a K=8192, d_c=128 book: a (B, K, d)
        # tensor would be 16 GiB and one (B, K) distance matrix is 128 MB
        rng = np.random.default_rng(12)
        x, table = rng.normal(size=(2048, 128)), rng.normal(size=(8192, 128))
        tracemalloc.start()
        try:
            nearest_rows(x, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestRVQQuantize:
    def test_single_level_exact_reconstruction_in_code_space(self):
        stack = _stack(model_dim=4, code_dim=4, levels=1, entries=4, identity=True)
        p = np.array([0.5, -0.25, 1.0, 0.0])
        stack.codebooks[0].entries[2] = p
        assign, p_hat = _quantize(p, stack)
        assert assign.indices.tolist() == [[2]]
        np.testing.assert_allclose(assign.residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(p_hat[0], p, atol=1e-12)

    def test_two_orthogonal_levels(self):
        stack = _stack(model_dim=2, code_dim=2, levels=2, entries=2, identity=True)
        stack.codebooks[0].entries = np.array([[3.0, 0.0], [0.0, 1.0]])
        stack.codebooks[1].entries = np.array([[3.0, 0.0], [0.0, 1.0]])
        p = np.array([3.0, 1.0])
        assign, _ = _quantize(p, stack)
        # level 1 takes the dominant axis-aligned entry, level 2 the remainder
        assert assign.indices[0, 0] == 0
        assert assign.indices[0, 1] == 1
        np.testing.assert_allclose(assign.residual, 0.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_telescoping_identity(self, seed):
        rng = np.random.default_rng(seed)
        stack = RVQStack.create(6, 4, levels=3, entries=8, rng=rng)
        p = rng.normal(size=(5, 6))
        assign, _ = _quantize(p, stack)
        projected = p @ stack.down_proj.data
        rebuilt = assign.codewords.sum(axis=0) + assign.residual
        assert np.abs(rebuilt - projected).max() < 1e-10

    def test_index_determinism(self):
        stack = _stack(seed=3)
        rng = np.random.default_rng(5)
        p = rng.normal(size=(7, 6))
        a1, _ = _quantize(p, stack)
        a2, _ = _quantize(p, stack)
        assert np.array_equal(a1.indices, a2.indices)

    def test_forced_indices_bypass_search(self):
        stack = _stack(levels=2, entries=4)
        p = np.random.default_rng(9).normal(size=(3, 6))
        forced = np.array([[1, 2], [0, 0], [3, 1]])
        assign, _ = _quantize(p, stack, forced_indices=forced)
        assert np.array_equal(assign.indices, forced)


class TestStraightThrough:
    def test_forward_bit_exact(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        p_hat = Tensor(rng.normal(size=(4, 3)))
        out = straight_through(p, p_hat)
        assert np.array_equal(out.data, p_hat.data)

    def test_identity_backward(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.normal(size=(5,)), requires_grad=True)
        p_hat = Tensor(rng.normal(size=(5,)))
        with Tape() as tape:
            loss = ad.tsum(straight_through(p, p_hat))
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, np.ones(5))

    def test_gradient_matches_loss_at_phat(self):
        # d/dp f(straight_through(p, p_hat)) == f'(p_hat) with identity backward
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(4,)), requires_grad=True)
        p_hat = Tensor(rng.normal(size=(4,)))
        with Tape() as tape:
            loss = ad.tsum(ad.square(straight_through(p, p_hat)))
        backward(tape, loss)
        np.testing.assert_allclose(p.grad, 2.0 * p_hat.data, atol=1e-12)


def _per_level_commitment(p, codewords, beta):
    """The commitment loss written level by level: the mean of
    beta * mean((r_i - z_i)^2) over levels, r_i the residual level i sees."""
    total, prefix = None, np.zeros_like(codewords[0])
    for z in codewords:
        r = p if total is None else ad.sub(p, Tensor(prefix))
        term = ad.tmean(ad.square(ad.sub(r, Tensor(z))))
        total = term if total is None else ad.add(total, term)
        prefix = prefix + z
    return ad.mul(Tensor(np.asarray(beta / len(codewords))), total)


class TestQuantizationLoss:
    def test_zero_when_codewords_match(self):
        # level 1 picks the input itself, level 2 the zero residual
        p = np.array([[1.0, 2.0]])
        codewords = np.stack([p, np.zeros_like(p)])
        assert quantization_loss(p, codewords, beta=0.25).item() == 0.0

    def test_hand_computed_value(self):
        loss = quantization_loss(np.array([[1.0, 0.0]]), np.zeros((1, 1, 2)),
                                 beta=0.25)
        assert abs(loss.item() - 0.125) < 1e-12

    def test_beta_linearity(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(3, 2))
        z = rng.normal(size=(1, 3, 2))
        l1 = quantization_loss(p, z, beta=0.25).item()
        l2 = quantization_loss(p, z, beta=0.5).item()
        assert abs(l2 - 2.0 * l1) < 1e-12

    def test_gradient_flows_to_inputs_not_codewords(self):
        rng = np.random.default_rng(5)
        p = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        z = rng.normal(size=(2, 2, 3))
        with Tape() as tape:
            loss = quantization_loss(p, z, beta=1.0)
        grads = backward(tape, loss)
        assert p in grads
        # the codewords are constants: p's gradient is that of
        # mean over (levels, rows, dims) of (p - cumsum(z))^2
        want = 2.0 * (p.data - np.cumsum(z, axis=0)).sum(axis=0) / z.size
        np.testing.assert_allclose(p.grad, want, rtol=1e-12)

    def test_misaligned_codewords_rejected(self):
        with pytest.raises(ShapeError):
            quantization_loss(np.zeros((2, 3)), np.zeros((2, 3)))

    @given(seed=st.integers(0, 2 ** 31 - 1), N=st.integers(1, 4),
           B=st.integers(1, 6), d=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_level_form(self, seed, N, B, d):
        rng = np.random.default_rng(seed)
        p0, z = rng.normal(size=(B, d)), rng.normal(size=(N, B, d))
        results = []
        for form in (quantization_loss, _per_level_commitment):
            p = Tensor(p0, requires_grad=True)
            with Tape() as tape:
                loss = form(p, z, 0.25)
            backward(tape, loss)
            results.append((loss.item(), p.grad))
        (value, grad), (want_value, want_grad) = results
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0)


class TestEMA:
    def test_converges_to_constant_input(self):
        book = Codebook(np.random.default_rng(0).normal(size=(4, 3)))
        u = np.array([0.3, -1.2, 0.7])
        for _ in range(600):
            ema_update(book, np.zeros(8, dtype=int), np.tile(u, (8, 1)), decay=0.99)
        assert np.abs(book.entries[0] - u).max() < 1e-3

    def test_no_assignments_leave_entries_unchanged(self):
        rng = np.random.default_rng(1)
        book = Codebook(rng.normal(size=(4, 3)))
        book.ema_size = np.ones(4)
        before = book.entries.copy()
        sizes_before = book.ema_size.copy()
        ema_update(book, np.zeros(0, dtype=int), np.zeros((0, 3)), decay=0.9)
        np.testing.assert_array_equal(book.entries, before)
        np.testing.assert_allclose(book.ema_size, 0.9 * sizes_before)

    def test_entries_stay_finite_under_tiny_clusters(self):
        book = Codebook(np.random.default_rng(2).normal(size=(8, 2)))
        rng = np.random.default_rng(3)
        for _ in range(200):
            ema_update(book, rng.integers(0, 2, size=4), rng.normal(size=(4, 2)),
                       decay=0.5)
        assert np.isfinite(book.entries).all()

    def test_dead_code_reinit_only_after_full_epoch(self):
        rng = np.random.default_rng(4)
        book = Codebook(rng.normal(size=(4, 2)))
        begin_epoch(book)
        # entry 0 heavily used early in the epoch, then silent
        ema_update(book, np.zeros(16, dtype=int), rng.normal(size=(16, 2)), decay=0.5)
        for _ in range(30):
            ema_update(book, np.full(4, 1, dtype=int), rng.normal(size=(4, 2)), decay=0.5)
        samples = rng.normal(size=(10, 2))
        n = end_epoch_reinit(book, samples, rng)
        # entries 0 and 1 were both alive at some point this epoch; 2 and 3 never
        assert n == 2

    def test_decay_validation(self):
        book = Codebook(np.zeros((2, 2)) + 1.0)
        with pytest.raises(ConfigError):
            ema_update(book, np.zeros(1, dtype=int), np.zeros((1, 2)), decay=1.5)


def _broadcast_kmeans_init(book, samples, iters, rng):
    """kmeans_init with (n, K, d) broadcast assignments and a per-cluster
    centre loop."""
    K = book.K
    distinct = np.unique(samples, axis=0)
    if distinct.shape[0] < K:
        deficit = K - distinct.shape[0]
        picks = rng.integers(0, distinct.shape[0], size=deficit)
        jitter = 1e-4 * rng.standard_normal((deficit, book.dim))
        samples = np.vstack([samples, distinct[picks] + jitter])
    sn = normalize_rows(samples)
    centers = np.empty((K, book.dim))
    centers[0] = sn[rng.integers(0, sn.shape[0])]
    d2 = ((sn - centers[0]) ** 2).sum(axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            pick = rng.integers(0, sn.shape[0])
        else:
            pick = rng.choice(sn.shape[0], p=d2 / total)
        centers[j] = sn[pick]
        d2 = np.minimum(d2, ((sn - centers[j]) ** 2).sum(axis=1))
    assign = _broadcast_nearest(sn, centers)
    for _ in range(iters):
        for j in range(K):
            members = assign == j
            if members.any():
                centers[j] = sn[members].mean(axis=0)
        new_assign = _broadcast_nearest(sn, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    counts = np.bincount(assign, minlength=K).astype(np.float64)
    raw_sums = np.zeros((K, book.dim))
    np.add.at(raw_sums, assign, samples)
    for j in range(K):
        if counts[j] > 0:
            book.entries[j] = raw_sums[j] / counts[j]
        else:
            book.entries[j] = samples[rng.integers(0, samples.shape[0])]
            counts[j] = 1.0
            raw_sums[j] = book.entries[j]
    book.ema_size = counts
    book.ema_sum = raw_sums
    return book


class TestKMeansInit:
    @given(seed=st.integers(0, 2 ** 31 - 1), K=st.integers(1, 12),
           d=st.integers(1, 5), extra=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_update_centers_matches_member_loop(self, seed, K, d, extra):
        rng = np.random.default_rng(seed)
        n = K + extra
        points = normalize_rows(rng.normal(size=(n, d)))
        points[rng.random(n) < 0.2] = 0.0
        if d > 1:
            points[:, 0] = -0.0  # numpy's mean turns a column of -0.0 into 0.0
        assign = rng.integers(0, max(1, K // 2 + 1), size=n)  # empty clusters
        centers = rng.normal(size=(K, d))
        want = centers.copy()
        for j in range(K):
            members = assign == j
            if members.any():
                want[j] = points[members].mean(axis=0)
        update_centers(centers, points, assign)
        assert centers.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("padded", [False, True])
    def test_matches_broadcast_form(self, seed, padded):
        rng = np.random.default_rng(seed)
        K, d = 16, 4
        if padded:  # fewer distinct samples than codewords
            samples = np.repeat(rng.normal(size=(6, d)), 4, axis=0)
        else:  # duplicates and clumps leave clusters empty
            samples = np.vstack([rng.normal(size=(24, d)),
                                 np.repeat(rng.normal(size=(3, d)), 8, axis=0)])
        books = []
        for init in (kmeans_init, _broadcast_kmeans_init):
            book = Codebook(np.zeros((K, d)) + 0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                init(book, samples, iters=10, rng=np.random.default_rng(seed))
            books.append(book)
        got, want = books
        for field in ("entries", "ema_size", "ema_sum"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


    def test_recovers_separated_cluster_means(self):
        rng = np.random.default_rng(5)
        a = np.array([10.0, 0.0]) + 0.01 * rng.normal(size=(40, 2))
        b = np.array([0.0, -8.0]) + 0.01 * rng.normal(size=(40, 2))
        samples = np.vstack([a, b])
        book = Codebook(np.zeros((2, 2)) + 0.1)
        kmeans_init(book, samples, iters=50, rng=np.random.default_rng(0))
        means = {tuple(np.round(a.mean(axis=0), 6)), tuple(np.round(b.mean(axis=0), 6))}
        got = {tuple(np.round(e, 6)) for e in book.entries}
        for g, m in zip(sorted(got), sorted(means)):
            assert np.abs(np.array(g) - np.array(m)).max() < 1e-6

    def test_k_equals_samples_is_permutation(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(5, 3))
        book = Codebook(np.zeros((5, 3)) + 0.5)
        kmeans_init(book, samples, iters=20, rng=np.random.default_rng(1))
        got = sorted(map(tuple, np.round(book.entries, 9)))
        expect = sorted(map(tuple, np.round(samples, 9)))
        assert got == expect

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(50, 4))
        books = []
        for _ in range(2):
            book = Codebook(np.zeros((8, 4)) + 0.5)
            kmeans_init(book, samples, iters=10, rng=np.random.default_rng(99))
            books.append(book.entries.copy())
        assert np.array_equal(books[0], books[1])

    def test_duplicate_padding_warns(self):
        samples = np.tile(np.array([[1.0, 2.0]]), (6, 1))
        book = Codebook(np.zeros((4, 2)) + 0.5)
        with pytest.warns(UserWarning):
            kmeans_init(book, samples, iters=5, rng=np.random.default_rng(2))

    def test_too_few_samples_rejected(self):
        book = Codebook(np.zeros((4, 2)) + 0.5)
        with pytest.raises(ConfigError):
            kmeans_init(book, np.zeros((2, 2)), rng=np.random.default_rng(0))

    def test_stack_init_reduces_residual(self):
        rng = np.random.default_rng(8)
        stack = RVQStack.create(6, 4, levels=3, entries=16, rng=rng)
        p = rng.normal(size=(200, 6))
        p_code = p @ stack.down_proj.data
        kmeans_init_stack(stack, p_code, iters=10, rng=np.random.default_rng(3))
        assign = stack.quantize_codes(p_code)
        norms = [np.linalg.norm(assign.level_inputs[i], axis=1).mean()
                 for i in range(3)]
        norms.append(np.linalg.norm(assign.residual, axis=1).mean())
        # residual magnitude decays across trained levels
        assert norms[-1] < norms[0]
        assert norms[1] < norms[0]
