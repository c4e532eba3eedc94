"""Nearest-neighbor quantization, residual cascades, EMA learning, k-means init."""

import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqtok import autodiff as ad
from rvqtok import rvq
from rvqtok.autodiff import Tape, Tensor, backward, straight_through
from rvqtok.errors import ConfigError, NumericError, ShapeError
from rvqtok.optim import Parameter
from rvqtok.rvq import (Codebook, RVQStack, begin_epoch, end_epoch_reinit,
                        ema_update, kmeans_init, kmeans_init_stack,
                        nearest_rows, normalize_rows, quantization_loss,
                        quantize_level, update_centers, weighted_index)
from tests.test_tokenizer import schedule


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rows_rejected(self, bad):
        rng = np.random.default_rng(0)
        book = Codebook(rng.normal(size=(8, 8)))
        queries = rng.normal(size=(8, 8))
        queries[3, 5] = bad
        with pytest.raises(NumericError, match="non-finite query rows"):
            quantize_level(queries, book)

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


def _at_each_cap(search, block=None):
    """``search()``'s results at the default ``SHORTLIST_CAP`` and at 0, where
    every row the float32 pass leaves unsure goes through the float64 pass;
    ``block``, if given, is the ``SEARCH_BLOCK`` of both."""
    results = []
    for cap in (rvq.SHORTLIST_CAP, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rvq, "SHORTLIST_CAP", cap)
            if block is not None:
                mp.setattr(rvq, "SEARCH_BLOCK", block)
            results.append(search())
    return results


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
        want = _broadcast_nearest(x, table)
        for got in _at_each_cap(lambda: nearest_rows(x, table), block):
            np.testing.assert_array_equal(got, want)

    @given(_search_cases())
    @settings(max_examples=300, deadline=None)
    def test_quantize_level_matches_broadcast_oracle(self, case):
        q, table, block = case
        book = Codebook(table)
        want = _broadcast_quantize(q, table)
        for idx, z in _at_each_cap(lambda: quantize_level(q, book), block):
            np.testing.assert_array_equal(idx, want)
            np.testing.assert_array_equal(z, table[want])

    def test_batch_crosses_default_block(self):
        rng = np.random.default_rng(11)
        table = np.round(rng.normal(size=(4096, 2)) * 3.0)  # many exact duplicates
        x = np.round(rng.normal(size=(rvq.SEARCH_BLOCK // 4096 + 100, 2)) * 3.0)
        np.testing.assert_array_equal(nearest_rows(x, table),
                                      _broadcast_nearest(x, table))

    @given(_search_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_quantize_level_matches_oracle_at_extreme_magnitudes(self, case, data):
        # 1e-170 rows square to 0 although nonzero, so normalize_rows leaves
        # them as they are; 1e160 rows square to inf and normalize to zero;
        # float32 squares underflow or overflow at 1e+-19 and 1e+-25
        q, table, block = case
        scales = st.sampled_from([1.0, 1e-170, 1e160, 1e19, 1e-19, 1e25, 1e-25])
        table = table * np.array(data.draw(st.lists(
            scales, min_size=len(table), max_size=len(table))))[:, None]
        q = q * np.array(data.draw(st.lists(
            scales, min_size=len(q), max_size=len(q))))[:, None]
        book = Codebook(table)
        with np.errstate(over="ignore"):
            got = _at_each_cap(lambda: quantize_level(q, book), block)
            want = _broadcast_quantize(q, table)
        for idx, _ in got:
            np.testing.assert_array_equal(idx, want)

    def test_window_search_holds_no_copy_of_the_book(self):
        # one paper-profile window: 64 queries against a K=8192, d_c=128 book
        rng = np.random.default_rng(13)
        book = Codebook(rng.normal(size=(8192, 128)))
        q = rng.normal(size=(64, 128))
        tracemalloc.start()
        try:
            quantize_level(q, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < book.entries.nbytes

    def test_all_zero_codewords_memory_bounded(self):
        # dead-code reinit can reseed a level with the zero residuals of
        # inputs the level above reproduced exactly.  All-zero codewords tie
        # for every query, so only the first can win; when each was a
        # candidate of every row, a window against 4096 of them peaked at
        # 529 MiB.  Queries that are nonzero codewords pick those, the rest
        # the first zero.
        rng = np.random.default_rng(14)
        table = rng.normal(size=(8192, 128))
        zero = rng.choice(8192, 4096, replace=False)
        table[zero] = 0.0
        live = np.setdiff1d(np.arange(8192), zero)
        q = rng.normal(size=(64, 128))
        q[:16] = 3.0 * table[live[:16]]
        book = Codebook(table)
        tracemalloc.start()
        try:
            idx, _ = quantize_level(q, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.concatenate([_broadcast_quantize(q[i:i + 1], table)
                               for i in range(len(q))])
        assert set(want[16:]) == {zero.min()}
        np.testing.assert_array_equal(idx, want)
        assert peak < 16 * 2 ** 20

    def test_duplicate_codewords_memory_bounded(self):
        # dead-code reinit can reseed several entries from one reservoir row.
        # Exact copies tie for every query, so only the lowest-index one can
        # win; when a row re-ranked every copy, these 64 queries, 48 of them
        # near one row copied 4096 times, peaked at 391 MiB.
        rng = np.random.default_rng(15)
        table = rng.normal(size=(8192, 128))
        copies = rng.choice(8192, 4096, replace=False)
        table[copies] = table[copies[-1]]
        q = rng.normal(size=(64, 128))
        q[:48] = 3.0 * table[copies[0]] + 1e-3 * rng.normal(size=(48, 128))
        book = Codebook(table)
        tracemalloc.start()
        try:
            idx, _ = quantize_level(q, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.concatenate([_broadcast_quantize(q[i:i + 1], table)
                               for i in range(len(q))])
        assert set(want[:48]) == {copies.min()}
        np.testing.assert_array_equal(idx, want)
        assert peak < 16 * 2 ** 20

    def test_collinear_codewords_memory_bounded(self):
        # positive multiples of one codeword tie in the unit metric but are
        # not exact copies, so a query near them re-ranks every one in the
        # float64 pass; when that re-rank gathered all (row, candidate)
        # pairs at once, these 64 queries, 48 of them near 4096 multiples of
        # one row, peaked at 391 MiB.
        rng = np.random.default_rng(16)
        table = rng.normal(size=(8192, 128))
        multiples = rng.choice(8192, 4096, replace=False)
        table[multiples] = (rng.uniform(0.5, 2.0, size=(4096, 1))
                            * table[multiples[0]])
        q = rng.normal(size=(64, 128))
        q[:48] = 3.0 * table[multiples[0]] + 1e-3 * rng.normal(size=(48, 128))
        book = Codebook(table)
        tracemalloc.start()
        try:
            idx, _ = quantize_level(q, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.concatenate([_broadcast_quantize(q[i:i + 1], table)
                               for i in range(len(q))])
        np.testing.assert_array_equal(idx, want)
        assert peak < 32 * 2 ** 20

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


def _f32_magnitudes(draw, n):
    """Per-row scales, mostly 1, else where float32 squares underflow or
    overflow."""
    return np.array(draw(st.lists(st.sampled_from(
        [1.0, 1.0, 1.0, 1e19, 1e-19, 1e25, 1e-25]),
        min_size=n, max_size=n)))[:, None]


@st.composite
def _float32_cases(draw):
    """Searches that stress the float32 shortlist: K up to 1024 and d up to
    128, tables of near-duplicate codewords, queries within relative 1e-9
    to 1e-4 of a codeword (on both sides of float32 resolution) or
    equidistant from two codewords up to rounding, and rows of the table
    and the queries at extreme magnitudes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 8, 32, 128]))
    K = draw(st.integers(1, 1024))
    B = min(draw(st.integers(1, 48)), max(1, (1 << 21) // (K * d)))
    rel = 10.0 ** rng.uniform(-9, -4, size=(K, 1))
    if draw(st.booleans()):  # clusters of codewords a relative 1e-9..1e-4 apart
        centres = rng.normal(size=(max(1, K // 8), d))
        table = centres[rng.integers(0, len(centres), size=K)]
        table = table * (1.0 + rel * rng.standard_normal((K, d)))
    else:
        table = rng.normal(size=(K, d))
    unit = normalize_rows(table)
    x = rng.normal(size=(B, d))
    for r in range(B):
        i, j = rng.integers(0, K, size=2)
        kind = draw(st.sampled_from(["near", "between", "between-unit", "free"]))
        if kind == "near":
            x[r] = table[i] * (1.0 + 10.0 ** rng.uniform(-9, -4)
                               * rng.standard_normal(d))
        elif kind == "between":  # equidistant from rows i and j
            x[r] = 0.5 * (table[i] + table[j])
        elif kind == "between-unit":  # the same after normalization
            x[r] = unit[i] + unit[j]
    if draw(st.booleans()):
        table = table * _f32_magnitudes(draw, K)
        x = x * _f32_magnitudes(draw, B)
    return x, table


def _accumulation_ties(d, unit):
    """64 queries and a K = 256 table whose entries 0 and 1 tie (exactly in
    the raw metric, to ~1e-13 with ``unit``) with opposite float32 rounding:
    after a leading term in [1, 2), every product of entry 0 lies just below
    half a float32 ulp and every product of entry 1 just above it, so a
    dot product summed in order loses (d - 1) half-ulps on one entry and
    gains them on the other, about 90% of the slack.  Entry 0 is the pick."""
    rng = np.random.default_rng(d)
    delta = 2.0 ** -8
    lead = 17.0 / 16.0 if unit else 1.0  # the unit query's lead is lead / ||x||
    q = np.sqrt(lead) * 2.0 ** -12       # products q * q / lead = 2^-24
    x = np.full((64, d), q)
    x[:, 0] = lead
    # far from every query, and shorter than entries 0 and 1, which set the
    # raw metric's slack
    table = -0.5 * normalize_rows(rng.random((256, d)))
    table[0] = q * (1.0 - delta + (2.0 ** -20 if unit else 0.0))
    table[1] = q * (1.0 + delta)
    table[:2, 0] = lead
    return x, table


class TestFloat32Tier:
    @given(_float32_cases())
    @settings(max_examples=200, deadline=None)
    def test_nearest_rows_matches_broadcast_oracle(self, case):
        x, table = case
        want = _broadcast_nearest(x, table)
        for got in _at_each_cap(lambda: nearest_rows(x, table)):
            np.testing.assert_array_equal(got, want)

    @given(_float32_cases())
    @settings(max_examples=200, deadline=None)
    def test_quantize_level_matches_broadcast_oracle(self, case):
        q, table = case
        book = Codebook(table)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _broadcast_quantize(q, table)
            got = _at_each_cap(lambda: quantize_level(q, book))
        for idx, z in got:
            np.testing.assert_array_equal(idx, want)
            np.testing.assert_array_equal(z, table[want])

    @pytest.mark.parametrize("unit", [False, True])
    @pytest.mark.parametrize("d", [32, 128])
    def test_opposite_float32_rounding_on_a_tie(self, d, unit):
        x, table = _accumulation_ties(d, unit)
        if unit:
            want = _broadcast_quantize(x, table)
            got = _at_each_cap(lambda: quantize_level(x, Codebook(table))[0])
        else:
            want = _broadcast_nearest(x, table)
            got = _at_each_cap(lambda: nearest_rows(x, table))
        assert (want == 0).all()
        for idx in got:
            np.testing.assert_array_equal(idx, want)

    @pytest.mark.parametrize("kind", ["zero", "nonzero"])
    def test_degenerate_kmeans_memory_bounded(self, kind):
        # a deep level's k-means input at desk shape: ~1000 copies of one
        # sample, padded by 255 rows of 1e-4 jitter around it.  Every
        # normalized row then lies within float32 rounding of every centre,
        # so the float32 pass must hand the rows to the float64 pass
        # instead of re-ranking all 256 candidates of each.  Before the
        # float32 tier the peak was 3.65 MB (zero sample) and 4.62 MB
        # (nonzero); the bound allows 2 MB on top of the larger.
        rng = np.random.default_rng(3)
        base = np.zeros(32) if kind == "zero" else rng.normal(size=32)
        samples = np.tile(base, (1000, 1))
        book = Codebook(np.zeros((256, 32)) + 0.5)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kmeans_init(book, samples, iters=8, rng=np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4.62 + 2.0) * 2 ** 20


@pytest.fixture(scope="module")
def desk_books():
    """One desk epoch from k-means init: the corpus, the stacks as k-means
    seeded them, and the trained model.  The seeded books hold zero
    codewords (levels whose inputs had at most K distinct rows leave zero
    residuals) and 1e-4 padding jitter, the trained ones duplicates from
    reseeding."""
    from rvqtok import tokenizer as tk
    from rvqtok.config import load_config
    from rvqtok.signals import SynthSpec, synth_generate

    cfg = load_config(profile="desk").tokenizer_config()
    recs = [synth_generate(SynthSpec(seed=50 + i, n_channels=8, duration=12.0,
                                     sample_rate=128.0)) for i in range(6)]
    seeded = []
    real_step = tk.train_step

    def step(batch, model, *args):
        if not seeded:
            seeded.extend(copy.deepcopy(model.stacks))
        return real_step(batch, model, *args)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(tk, "train_step", step)
        warnings.simplefilter("ignore")
        model, _ = tk.train_tokenizer(recs, cfg, epochs=1,
                                      **schedule(batch_size=4))
    return recs, seeded, model


def test_trained_desk_books_match_broadcast_oracle(desk_books):
    from rvqtok import tokenizer as tk

    recs, seeded, model = desk_books
    cfg = model.cfg
    books = [b.entries for stack in seeded for b in stack.codebooks]
    assert any((b == 0.0).all(axis=1).any() for b in books)
    trained = [b.entries for stack in model.stacks for b in stack.codebooks]
    assert any(np.unique(b, axis=0).shape[0] < b.shape[0] for b in trained)
    val = tk.build_windows(recs, cfg.encoder.w, 2).val
    assert val.n_windows > 0
    reps = model.encoder.forward(val.patches, val.channel_idx, val.slot_idx)
    for stacks in (seeded, model.stacks):
        for rep, stack in zip(reps, stacks):
            p = rep.data.reshape(-1, rep.shape[-1]) @ stack.down_proj.data
            assign = stack.quantize_codes(p)
            for i, book in enumerate(stack.codebooks):
                np.testing.assert_array_equal(
                    assign.indices[:, i],
                    _broadcast_quantize(assign.level_inputs[i], book.entries))


def test_loaded_desk_books_match_the_same_values_in_float64(desk_books,
                                                           tmp_path, monkeypatch):
    # the seeded and trained desk models, saved and loaded: each stack's
    # float32 books cascade to the indices, codewords and residuals of
    # float64 books holding the same values, and each book searched with its
    # own entries picks as they do, level by level.  One seeded level is
    # padded from a single nonzero input, as k-means pads a level whose
    # inputs repeat: its 256 entries lie within float32 rounding of each
    # other, so its rows reach the float64 pass with the float32 table.
    from rvqtok import tokenizer as tk

    recs, seeded, model = desk_books
    val = tk.build_windows(recs, model.cfg.encoder.w, 2).val
    searched = []  # the table dtypes that reach the float64 pass
    real_shortlist = rvq._shortlist

    def shortlist(x, rows, idx, table, unit_table, dtype, *args):
        if dtype is np.float64 and rows.size:
            searched.append(table.dtype)
        return real_shortlist(x, rows, idx, table, unit_table, dtype, *args)

    seeded_model = copy.copy(model)
    seeded_model.stacks = copy.deepcopy(seeded)
    padded = seeded_model.stacks[0].codebooks[-1]
    one = np.random.default_rng(4).normal(size=(1, padded.dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kmeans_init(padded, np.repeat(one, 2 * padded.K, axis=0), iters=10,
                    rng=np.random.default_rng(4))
    for n, trained in enumerate((seeded_model, model)):
        tk.save_tokenizer(trained, tmp_path / f"{n}.ckpt")
        loaded = tk.load_tokenizer(tmp_path / f"{n}.ckpt")
        reps = loaded.encoder.forward(val.patches, val.channel_idx, val.slot_idx)
        for rep, stack in zip(reps, loaded.stacks):
            wide = RVQStack([Codebook(b.entries.astype(np.float64))
                             for b in stack.codebooks],
                            stack.down_proj, stack.up_proj)
            p = rep.data.reshape(-1, rep.shape[-1]) @ stack.down_proj.data
            monkeypatch.setattr(rvq, "_shortlist", shortlist)
            got = stack.quantize_codes(p)
            own = [quantize_level(w.entries, b)
                   for w, b in zip(wide.codebooks, stack.codebooks)]
            monkeypatch.setattr(rvq, "_shortlist", real_shortlist)
            want = wide.quantize_codes(p)
            for name in ("indices", "codewords", "level_inputs", "residual"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            for i, book in enumerate(wide.codebooks):
                np.testing.assert_array_equal(
                    got.indices[:, i],
                    _broadcast_quantize(got.level_inputs[i], book.entries))
                for a, b in zip(own[i], quantize_level(book.entries, book)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                np.testing.assert_array_equal(
                    own[i][0], _broadcast_quantize(book.entries, book.entries))
    assert np.dtype(np.float32) in searched


def test_training_a_loaded_tokenizer_widens_its_books(desk_books, tmp_path):
    # two steps and a dead-code reset on a loaded desk tokenizer write what
    # they write on the same model with its books widened by hand
    from rvqtok import tokenizer as tk

    recs, _, model = desk_books
    tk.save_tokenizer(model, tmp_path / "tok.ckpt")
    held, wide = (tk.load_tokenizer(tmp_path / "tok.ckpt") for _ in range(2))
    for stack in wide.stacks:
        stack.codebooks = [Codebook(b.entries.astype(np.float64))
                           for b in stack.codebooks]
    batches = [b for _, b in tk.build_windows(recs, model.cfg.encoder.w, 2)
               .train.batches(4)][:2]
    for m in (held, wide):
        for batch in batches:
            tk.train_step(batch, m, 1e-3, 1e-4)
        for stack in m.stacks:
            for book in stack.codebooks:
                end_epoch_reinit(book, rng=np.random.default_rng(7))
    for a, b in zip(held.params(), wide.params()):
        for x, y in ((a.data, b.data), (a.m, b.m), (a.v, b.v)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), a.name
    for sa, sb in zip(held.stacks, wide.stacks):
        for a, b in zip(sa.codebooks, sb.codebooks):
            assert a.entries.dtype == np.float64 and a.norms is None
            for name in ("entries", "ema_sum", "ema_size"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestHeldFloat32Book:
    """A paper-shape (8192 x 128) book held as float32, as a load holds it."""

    @staticmethod
    def _book(rng):
        book = Codebook(rng.normal(size=(8192, 128)).astype(np.float32))
        book.hold_norms()
        return book

    def test_matches_the_same_values_in_float64(self):
        rng = np.random.default_rng(14)
        held = self._book(rng)
        wide = Codebook(held.entries.astype(np.float64))
        wide_rows = wide.entries
        np.testing.assert_array_equal(held.norms,
                                      np.einsum("ij,ij->i", wide_rows, wide_rows))
        assert held.norms.dtype == np.float64
        q = rng.normal(size=(64, 128))
        near = rng.integers(0, 8192, size=32)
        q[:32] = wide_rows[near] * (1.0 + 1e-7 * rng.standard_normal((32, 128)))
        q[32] = 0.0
        for a, b in zip(quantize_level(q, held), quantize_level(q, wide)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(nearest_rows(q, held.entries),
                                      nearest_rows(q, wide_rows))

    def test_window_search_copies_no_table(self):
        # one paper-profile window: the float32 book is the shortlist GEMM's
        # operand as it is, where a float64 book is narrowed to a 4 MB copy
        rng = np.random.default_rng(13)
        book = self._book(rng)
        q = rng.normal(size=(64, 128))
        tracemalloc.start()
        try:
            quantize_level(q, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < book.entries.nbytes


@pytest.mark.parametrize("write", ["ema", "reinit", "kmeans"])
def test_writes_widen_a_held_book_first(write):
    # a held float32 table is read-only; every training write widens it to
    # float64 and drops its norms first, leaving untouched entries' values
    rng = np.random.default_rng(15)
    book = Codebook(rng.normal(size=(16, 4)).astype(np.float32))
    book.hold_norms()
    with pytest.raises(ValueError):
        book.entries[0] = 0.0
    stored = book.entries
    if write == "ema":
        ema_update(book, np.array([3, 3, 9]), rng.normal(size=(3, 4)), 0.99)
        touched = [3, 9]
    elif write == "reinit":
        book.epoch_peak_size[:] = 5.0
        book.epoch_peak_size[[2, 7]] = 0.0
        book.reservoir = rng.normal(size=(5, 4))
        end_epoch_reinit(book, rng)
        touched = [2, 7]
    else:
        kmeans_init(book, rng.normal(size=(40, 4)), iters=2, rng=rng)
        touched = list(range(16))
    assert book.entries.dtype == np.float64 and book.norms is None
    assert book.ema_sum.dtype == np.float64
    kept = np.ones(16, dtype=bool)
    kept[touched] = False
    np.testing.assert_array_equal(book.entries[kept], stored[kept])


@pytest.mark.parametrize("duplicate", ["deepcopy", "pickle"])
def test_written_copy_of_a_held_book_does_not_use_its_old_norms(duplicate):
    # a copy of a held book has a writable table that still carries the
    # held norms; once the copy is written they are stale, and the search
    # must not use them
    book = Codebook(np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=np.float32))
    book.hold_norms()
    dup = (copy.deepcopy(book) if duplicate == "deepcopy"
           else pickle.loads(pickle.dumps(book)))
    assert dup.entries.flags.writeable and dup.norms is not None
    dup.entries[1] = [0, 5]
    q = np.array([[0.8, 0.6]])
    idx, _ = quantize_level(q, dup)
    assert idx.tolist() == _broadcast_quantize(q, dup.entries).tolist() == [2]
    # the held book itself keeps its norms and its picks
    assert quantize_level(q, book)[0].tolist() == [2]


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
            quantization_loss(np.zeros((2, 3)), np.zeros((2, 3)), 0.25)

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

    def test_non_finite_update_raises_numeric_error(self):
        book = Codebook(np.zeros((4, 2)))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="non-finite codewords"):
            ema_update(book, np.zeros(2, dtype=int), np.full((2, 2), 1e308),
                       decay=0.5)

    def test_dead_code_reinit_only_after_full_epoch(self):
        rng = np.random.default_rng(4)
        book = Codebook(rng.normal(size=(4, 2)))
        begin_epoch(book)
        # entry 0 heavily used early in the epoch, then silent
        ema_update(book, np.zeros(16, dtype=int), rng.normal(size=(16, 2)), decay=0.5)
        for _ in range(30):
            ema_update(book, np.full(4, 1, dtype=int), rng.normal(size=(4, 2)), decay=0.5)
        book.reservoir = rng.normal(size=(10, 2))
        n = end_epoch_reinit(book, rng)
        # entries 0 and 1 were both alive at some point this epoch; 2 and 3 never
        assert n == 2

    def test_sums_start_at_first_update_bit_for_bit(self):
        # the EMA sums start as a copy of the entries when training first
        # touches them, which is where an eagerly made copy would stand
        rng = np.random.default_rng(6)
        entries = rng.normal(size=(8, 3))
        lazy, eager = Codebook(entries.copy()), Codebook(entries.copy())
        assert lazy.ema_sum is None
        eager.ema_sum = entries.copy()
        for book in (lazy, eager):
            step = np.random.default_rng(7)
            for _ in range(3):
                ema_update(book, step.integers(0, 4, size=6),
                           step.normal(size=(6, 3)), decay=0.9)
            book.reservoir = step.normal(size=(5, 3))
            end_epoch_reinit(book, step)
        for field in ("entries", "ema_size", "ema_sum"):
            assert getattr(lazy, field).tobytes() == getattr(eager, field).tobytes()
        reinit_first = Codebook(entries.copy())
        reinit_first.reservoir = rng.normal(size=(5, 3))
        end_epoch_reinit(reinit_first, rng)
        assert reinit_first.ema_sum is not None

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


@pytest.mark.parametrize("kind", ["zeros", "single"])
def test_weighted_index_matches_choice_draw_for_draw(kind):
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        if kind == "zeros":
            w = rng.random(n)
            w[rng.random(n) < 0.4] = 0.0
            w[rng.integers(0, n)] = rng.random() + 0.1
        else:
            w = np.zeros(n)
            w[rng.integers(0, n)] = rng.random() + 0.1
        p = w / w.sum()
        ours, numpy_ = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(4):
            pick = weighted_index(ours, p)
            assert pick == numpy_.choice(n, p=p)
            assert p[pick] > 0
        assert ours.random() == numpy_.random()  # the streams stay in step


def test_weighted_index_draw_on_a_boundary_skips_zero_weights():
    class Draws:  # a generator whose next uniform draw is given
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    p = np.array([0.0, 0.25, 0.0, 0.25, 0.5, 0.0])
    # choice searches the cumulative sums to the right: a draw equal to one
    # lands on the next entry with weight
    for u, want in [(0.0, 1), (0.25, 3), (0.5, 4), (0.75, 4)]:
        assert weighted_index(Draws(u), p) == want


def _kmeans_samples(kind, rng, K, d):
    """Samples that stress the seeding's exact distances: repeated rows, zero
    rows, exact ties, padding, and rows that normalize to one unit vector."""
    if kind == "duplicates":
        x = rng.normal(size=(K + 4, d))
        return np.vstack([x, x[rng.integers(0, K + 4, size=K)]])
    if kind == "near-duplicates":  # unit rows ~1e-10 apart: d2 ~ 1e-20
        m = max(1, K // 4)
        x = rng.normal(size=(m, d))[rng.integers(0, m, size=2 * K)]
        return x * (1.0 + 1e-10 * rng.standard_normal(x.shape))
    if kind == "zeros":
        x = rng.normal(size=(2 * K + 2, d))
        x[rng.random(2 * K + 2) < 0.3] = 0.0
        return x
    if kind == "grid":
        return rng.integers(-2, 3, size=(3 * K, d)).astype(np.float64)
    if kind == "padded":
        m = max(1, K // 3)
        return np.tile(rng.normal(size=(m, d)), (K // m + 1, 1))
    if kind == "one-distinct":
        return np.tile(rng.normal(size=(1, d)), (K + 2, 1))
    # collinear: 5 directions at scales 2^0..2^7 normalize to 5 unit vectors
    scales = 2.0 ** np.arange(8)
    return (rng.normal(size=(5, 1, d)) * scales[:, None]).reshape(-1, d)


def _assert_seeds_like_full_pass(samples, K, seed):
    """kmeans_init stores the same bytes as the broadcast-form copy of the
    full difference-form seeding loop, on the same samples and seed."""
    books = []
    for init in (kmeans_init, _broadcast_kmeans_init):
        book = Codebook(np.zeros((K, samples.shape[1])) + 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            init(book, samples, iters=10, rng=np.random.default_rng(seed))
        books.append(book)
    got, want = books
    for field in ("entries", "ema_size", "ema_sum"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


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


    @given(seed=st.integers(0, 2 ** 31 - 1), K=st.integers(1, 16),
           d=st.integers(1, 6),
           kind=st.sampled_from(["duplicates", "near-duplicates", "zeros", "grid",
                                 "padded", "one-distinct", "collinear"]))
    @settings(max_examples=150, deadline=None)
    def test_seeding_matches_full_pass_on_ties(self, seed, K, d, kind):
        samples = _kmeans_samples(kind, np.random.default_rng(seed), K, d)
        _assert_seeds_like_full_pass(samples, K, seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_seeding_matches_full_pass_on_collinear_rows(self, seed, d):
        # 40 distinct rows but 5 unit vectors: after 5 centres every exact
        # distance is 0 and the seeding falls back to uniform picks
        samples = _kmeans_samples("collinear", np.random.default_rng(seed), 32, d)
        assert np.unique(samples, axis=0).shape[0] == 40
        _assert_seeds_like_full_pass(samples, 32, seed)

    def test_non_finite_samples_rejected(self):
        samples = np.random.default_rng(0).normal(size=(8, 2))
        for bad in (np.nan, np.inf):
            samples[3, 1] = bad
            with pytest.raises(NumericError, match="level 2"):
                kmeans_init(Codebook(np.zeros((4, 2)) + 0.5), samples, iters=10,
                            rng=np.random.default_rng(0), label="level 2")

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

    def test_padding_warning_names_stack_and_level(self):
        rng = np.random.default_rng(9)
        stack = RVQStack.create(2, 2, levels=2, entries=4, rng=rng, name="rvq3")
        samples = np.tile(np.array([[1.0, 2.0], [-1.0, 0.5]]), (3, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kmeans_init_stack(stack, samples, iters=3, rng=np.random.default_rng(2))
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "stack rvq3, level 0" in messages[0]
        assert "2 distinct samples for 4 codewords" in messages[0]
        assert "stack rvq3, level 1" in messages[1]

    def test_too_few_samples_rejected(self):
        book = Codebook(np.zeros((4, 2)) + 0.5)
        with pytest.raises(ConfigError):
            kmeans_init(book, np.zeros((2, 2)), iters=10, rng=np.random.default_rng(0))

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
