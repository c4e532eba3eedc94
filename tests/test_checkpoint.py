"""The binary checkpoint container, and tokenizer and backbone checkpoints."""

import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from rvqtok.checkpoint import (FORMAT_VERSION, ZeroDraws, config_from_header,
                               config_header, require_fields, save_arrays)
from rvqtok.config import load_config
from rvqtok.errors import CompatibilityError, ParseError
from rvqtok.pretrain import (BackboneModel, PretrainConfig, extract_features,
                             load_backbone, save_backbone)
from rvqtok.tokenizer import (TokenizerConfig, TokenizerModel, build_windows,
                              load_tokenizer, save_tokenizer, train_tokenizer)
from tests.helpers import load_arrays
from tests.test_pretrain import tiny_pretrain_config
from tests.test_tokenizer import schedule, tiny_config, tiny_corpus


def test_round_trip_preserves_f32_values(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a.w": rng.normal(size=(3, 4)).astype(np.float32),
              "b": rng.normal(size=7).astype(np.float32),
              "scalarish": np.array([2.5], dtype=np.float32)}
    path = tmp_path / "model.ckpt"
    save_arrays(path, "tokenizer", {"w": 64, "S": 4}, arrays)
    kind, config, back = load_arrays(path)
    assert kind == "tokenizer"
    assert config == {"w": 64, "S": 4}
    for name, arr in arrays.items():
        assert np.array_equal(back[name], arr)


def test_save_load_save_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"x": rng.normal(size=(5, 5))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_arrays(p1, "k", {"v": 1}, arrays)
    _, cfg, loaded = load_arrays(p1)
    save_arrays(p2, "k", cfg, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ParseError):
        load_arrays(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_arrays(path, "k", {}, {"x": np.ones((4, 4))})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        load_arrays(path)


def test_version_mismatch_rejected(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    save_arrays(path, "k", {}, {"x": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CompatibilityError):
        load_arrays(path)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_arrays(tmp_path / "nope.ckpt")


def test_require_field_names_the_field():
    want = {"w": 200, "levels": 4}
    with pytest.raises(CompatibilityError) as err:
        require_fields({"w": 64, "levels": 4}, want, ("levels", "w"))
    assert "'w' is 64, runtime expects 200" in str(err.value)
    with pytest.raises(CompatibilityError) as err:
        require_fields({"w": 200}, want, ("w", "levels"))
    assert "missing config field 'levels'" in str(err.value)
    require_fields({"w": 64, "levels": 4}, want, ("levels",))  # no raise


def test_negative_shape_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_arrays(path, "k", {}, {"x": np.ones(2)})
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = raw[20:20 + hlen].replace(b'"shape": [2]', b'"shape": [-2]')
    path.write_bytes(raw[:12] + struct.pack("<Q", len(header)) + header
                     + raw[20 + hlen:])
    with pytest.raises(ParseError, match="has shape"):
        load_arrays(path)


def test_directory_rejected_naming_the_path(tmp_path):
    with pytest.raises(ParseError, match="cannot read checkpoint") as err:
        load_arrays(tmp_path)
    assert str(tmp_path) in str(err.value)


@pytest.fixture(scope="module")
def trained():
    """A tokenizer trained for one epoch, and its corpus."""
    recs = tiny_corpus(seconds=4.0)
    model, _ = train_tokenizer(recs, tiny_config(), epochs=1,
                               **schedule(batch_size=2))
    return recs, model


def _tokens(model, recs):
    wins = build_windows(recs, 16, 2, val_fraction=0.0)
    return model.token_indices(wins.patches, wins.channel_idx, wins.slot_idx)


def _save(kind, path, trained):
    if kind == "tokenizer":
        save_tokenizer(trained[1], path)
    else:
        save_backbone(BackboneModel(tiny_pretrain_config(), seed=3), path)


LOADERS = {"tokenizer": load_tokenizer, "backbone": load_backbone}


class TestModelCheckpoints:
    def test_loaded_models_hold_no_training_state(self, tmp_path, trained):
        _, model = trained
        assert all(p.m is not None for p in model.params())
        loaded = []
        for kind, load in LOADERS.items():
            _save(kind, tmp_path / kind, trained)
            loaded.append(load(tmp_path / kind))
        tok, backbone = loaded
        assert all(b.ema_sum is None for s in tok.stacks for b in s.codebooks)
        assert all(p.m is None and p.v is None and p.data.dtype == np.float64
                   for p in tok.params() + backbone.params())

    def test_loaded_tokenizer_holds_books_as_stored(self, tmp_path, trained):
        # parameters widen to float64; each book stays the stored float32
        # array, read-only, with squared norms computed once over its rows
        # widened to float64, bit for bit as a search of them computes
        _, model = trained
        save_tokenizer(model, tmp_path / "a.ckpt")
        loaded = load_tokenizer(tmp_path / "a.ckpt")
        assert all(p.data.dtype == np.float64 for p in loaded.params())
        for stack, ref in zip(loaded.stacks, model.stacks):
            for book, ref_book in zip(stack.codebooks, ref.codebooks):
                assert book.entries.dtype == np.float32
                assert not book.entries.flags.writeable
                np.testing.assert_array_equal(book.entries,
                                              ref_book.entries.astype(np.float32))
                wide = book.entries.astype(np.float64)
                want = np.einsum("ij,ij->i", wide, wide)
                assert book.norms.dtype == want.dtype
                assert book.norms.tobytes() == want.tobytes()

    def test_trained_tokenizer_save_load_save_byte_identical(self, tmp_path, trained):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_tokenizer(trained[1], p1)
        save_tokenizer(load_tokenizer(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stores_parameters_and_codebook_entries_only(self, tmp_path, trained):
        _, model = trained
        save_tokenizer(model, tmp_path / "a.ckpt")
        _, _, arrays = load_arrays(tmp_path / "a.ckpt")
        books = [f"codebook.{s}.{i}.entries" for s in range(2) for i in range(2)]
        assert list(arrays) == [f"param.{p.name}" for p in model.params()] + books

    def test_file_with_ema_arrays_loads_and_tokenizes_identically(self, tmp_path,
                                                                  trained):
        # the earlier layout stored each book's EMA sizes and sums after its
        # entries; loading skips them
        recs, model = trained
        arrays = {f"param.{p.name}": p.data for p in model.params()}
        for s, stack in enumerate(model.stacks):
            for i, book in enumerate(stack.codebooks):
                arrays[f"codebook.{s}.{i}.entries"] = book.entries
                arrays[f"codebook.{s}.{i}.ema_size"] = book.ema_size
                arrays[f"codebook.{s}.{i}.ema_sum"] = book.ema_sum
        old, new, again = (tmp_path / n for n in ("old.ckpt", "new.ckpt", "again.ckpt"))
        save_arrays(old, "tokenizer", config_header(model.cfg), arrays)
        save_tokenizer(model, new)
        from_old = load_tokenizer(old)
        assert np.array_equal(_tokens(from_old, recs),
                              _tokens(load_tokenizer(new), recs))
        save_tokenizer(from_old, again)
        assert again.read_bytes() == new.read_bytes()


def _rewrite(path, change):
    kind, snap, arrays = load_arrays(path)
    change(arrays)
    save_arrays(path, kind, snap, arrays)


def _bad_magic(path):
    path.write_bytes(b"NOTACKPT" + path.read_bytes()[8:])


def _next_version(path):
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _trailing(path):
    path.write_bytes(path.read_bytes() + b"\x00")


def _drop_last(path):
    _rewrite(path, lambda arrays: arrays.pop(list(arrays)[-1]))


def _reshape_first(path):
    _rewrite(path, lambda arrays: arrays.update({list(arrays)[0]: np.zeros(5)}))


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("damage, error", [
    (_bad_magic, ParseError), (_next_version, CompatibilityError),
    (_truncate, ParseError), (_trailing, ParseError),
    (_drop_last, CompatibilityError), (_reshape_first, CompatibilityError)])
def test_damaged_model_checkpoint_rejected(tmp_path, trained, kind, damage, error):
    path = tmp_path / "model.ckpt"
    _save(kind, path, trained)
    names = list(load_arrays(path)[2])
    damage(path)
    with pytest.raises(error) as err:
        LOADERS[kind](path)
    if damage is _drop_last:
        assert names[-1] in str(err.value)
    if damage is _reshape_first:
        assert names[0] in str(err.value)


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, -1])  # a tokenizer's first weight, last codebook
def test_non_finite_values_rejected_naming_the_array(tmp_path, trained, kind, bad, at):
    path = tmp_path / "model.ckpt"
    _save(kind, path, trained)
    name = list(load_arrays(path)[2])[at]

    def damage(arrays):
        arrays[name].flat[0] = bad

    _rewrite(path, damage)
    with pytest.raises(ParseError, match=f"non-finite values in array '{name}'"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", list(LOADERS))
def test_wrong_kind_rejected(tmp_path, trained, kind):
    other = "backbone" if kind == "tokenizer" else "tokenizer"
    _save(other, tmp_path / "model.ckpt", trained)
    with pytest.raises(CompatibilityError, match=f"expected '{kind}'"):
        LOADERS[kind](tmp_path / "model.ckpt")


def _parent_format(kind, path, trained, **header):
    """Rewrite a saved checkpoint as the earlier layout wrote it: the header
    also stored ``dtype``, ``qk_norm`` and, for a tokenizer, ``fusion``."""
    _save(kind, path, trained)
    stored_kind, snap, arrays = load_arrays(path)
    dropped = {"dtype": "float32", "qk_norm": True,
               **({"fusion": "sum"} if kind == "tokenizer" else {})}
    if header.get("fusion") == "concat":
        # a concat tokenizer also stored its fusion projection, S * D -> D
        d = snap["model_dim"]
        arrays["param.fuse.w"] = np.ones((snap["S"] * d, d))
        arrays["param.fuse.b"] = np.zeros(d)
    save_arrays(path, stored_kind, {**snap, **dropped, **header}, arrays)


@pytest.mark.parametrize("kind, key, value", [("tokenizer", "fusion", "concat"),
                                              ("tokenizer", "qk_norm", False),
                                              ("backbone", "qk_norm", False)])
def test_dropped_setting_at_another_value_rejected_naming_it(tmp_path, trained,
                                                            kind, key, value):
    path = tmp_path / "old.ckpt"
    _parent_format(kind, path, trained, **{key: value})
    with pytest.raises(CompatibilityError, match=f"'{key}' is {value!r}"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", list(LOADERS))
def test_dropped_setting_at_the_implemented_value_loads_identically(tmp_path, trained,
                                                                   kind):
    recs = trained[0]
    old, new, again = (tmp_path / n for n in ("old.ckpt", "new.ckpt", "again.ckpt"))
    _parent_format(kind, old, trained)
    _save(kind, new, trained)
    from_old, from_new = LOADERS[kind](old), LOADERS[kind](new)
    if kind == "tokenizer":
        assert np.array_equal(_tokens(from_old, recs), _tokens(from_new, recs))
        save_tokenizer(from_old, again)
    else:
        wins = build_windows(recs, 16, 2, val_fraction=0.0)
        assert np.array_equal(extract_features(from_old, wins),
                              extract_features(from_new, wins))
        save_backbone(from_old, again)
    assert again.read_bytes() == new.read_bytes()


def test_paper_tokenizer_load_memory_bounded(tmp_path):
    # a paper-profile checkpoint: 4 stacks of 8 books of 8192 x 128 and
    # 15M parameters.  The values do not change what a load allocates, so
    # the model is built zeroed.  Traced peak of the load: 327.7 MiB with
    # every book widened to float64, 201.5 MiB with the books held as the
    # stored float32 (193.5 MiB of it kept).
    cfg = load_config(profile="paper").tokenizer_config()
    path = tmp_path / "paper.ckpt"
    save_tokenizer(TokenizerModel(cfg, rng=ZeroDraws()), path)
    tracemalloc.start()
    try:
        load_tokenizer(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * 2 ** 20


# ---------------------------------------------------------------------------
# the config header codec

#: The desk profile's config headers as the on-disk format stores them.
DESK_HEADERS = {
    "tokenizer": {
        "S": 4, "branches": [
            {"filters": [8, 8], "groups": 4, "kernels": [21, 9], "paddings": [10, 4],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [15, 7], "paddings": [7, 3],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [9, 5], "paddings": [4, 2],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [5, 3], "paddings": [2, 1],
             "pools": [2, 4]}],
        "code_dim": 32, "codebook_size": 256, "commitment_beta": 0.25,
        "decoder_depth": 1, "depth": 2, "ema_decay": 0.99, "heads": 4,
        "lambda_circle": 0.4, "layer_scale_init": 0.001, "levels": 4, "max_slots": 8,
        "mlp_dim": 256, "model_dim": 64, "n_electrodes": 8, "w": 64},
    "backbone": {
        "S": 4, "branches": [
            {"filters": [8, 8], "groups": 4, "kernels": [21, 9], "paddings": [10, 4],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [15, 7], "paddings": [7, 3],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [9, 5], "paddings": [4, 2],
             "pools": [2, 4]},
            {"filters": [8, 8], "groups": 4, "kernels": [5, 3], "paddings": [2, 1],
             "pools": [2, 4]}],
        "codebook_size": 256, "depth": 4, "heads": 4, "layer_scale_init": 0.1,
        "levels": 4, "mask_ratio": 0.5, "max_slots": 8, "mlp_dim": 256,
        "model_dim": 64, "n_electrodes": 8, "slots_per_window": 2, "w": 64},
}
#: SHA-256 of the desk checkpoints' whole JSON header: kind, config and the
#: manifest of array names and shapes.
DESK_HEADER_SHA256 = {
    "tokenizer": "3eee6119b556f7b1f15c6c29a673d184ab6906f75e0560f52d26c389d122ded3",
    "backbone": "72fa256f12e23d79723b205fc8dd5f8348ad57c15abd0c97937a4a0fec8cb361",
}


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_config_header_round_trips_through_json(profile):
    cfg = load_config(profile=profile)
    tok = cfg.tokenizer_config()
    header = json.loads(json.dumps(config_header(tok)))
    assert config_from_header(TokenizerConfig, header) == tok
    pre = cfg.pretrain_config()
    back = config_from_header(PretrainConfig, json.loads(json.dumps(config_header(pre))))
    assert back.encoder == pre.encoder
    for name in PretrainConfig.HEADER_FIELDS:
        assert getattr(back, name) == getattr(pre, name)


@pytest.mark.parametrize("kind", list(LOADERS))
def test_desk_header_format_pinned(tmp_path, kind):
    cfg = load_config(profile="desk")
    path = tmp_path / "desk.ckpt"
    if kind == "tokenizer":
        save_tokenizer(TokenizerModel(cfg.tokenizer_config(), rng=ZeroDraws()), path)
    else:
        save_backbone(BackboneModel(cfg.pretrain_config(), rng=ZeroDraws()), path)
    assert load_arrays(path)[1] == DESK_HEADERS[kind]
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    assert hashlib.sha256(raw[20:20 + hlen]).hexdigest() == DESK_HEADER_SHA256[kind]


def _header_keys(kind):
    header = DESK_HEADERS[kind]
    return ([(kind, key, False) for key in header]
            + [(kind, key, True) for key in header["branches"][0]])


@pytest.mark.parametrize("kind, key, in_branch",
                         _header_keys("tokenizer") + _header_keys("backbone"))
def test_missing_header_field_rejected_naming_it(tmp_path, trained, kind, key,
                                                 in_branch):
    path = tmp_path / "model.ckpt"
    _save(kind, path, trained)
    stored_kind, header, arrays = load_arrays(path)
    del (header["branches"][-1] if in_branch else header)[key]
    save_arrays(path, stored_kind, header, arrays)
    with pytest.raises(CompatibilityError,
                       match=f"checkpoint missing config field '{key}'"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind, key, value, in_branch", [
    ("tokenizer", "commitment_beta", "x", False),
    ("tokenizer", "ema_decay", [1], False),
    ("tokenizer", "layer_scale_init", "0.1", False),
    ("tokenizer", "levels", True, False),
    ("tokenizer", "codebook_size", 16.0, False),
    ("tokenizer", "lambda_circle", float("nan"), False),
    ("tokenizer", "kernels", [3], True),
    ("tokenizer", "pools", [2, True], True),
    ("backbone", "groups", "2", True),
    ("backbone", "mask_ratio", float("inf"), False)])
def test_header_value_of_the_wrong_type_rejected_naming_the_path(
        tmp_path, trained, kind, key, value, in_branch):
    path = tmp_path / "model.ckpt"
    _save(kind, path, trained)
    stored_kind, header, arrays = load_arrays(path)
    (header["branches"][0] if in_branch else header)[key] = value
    save_arrays(path, stored_kind, header, arrays)
    with pytest.raises(ParseError,
                       match=f"{re.escape(str(path))}: malformed config header .*{key}"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", list(LOADERS))
def test_integer_value_of_a_float_field_loads(tmp_path, trained, kind):
    # JSON writes a float field holding a whole number as an integer
    path = tmp_path / "model.ckpt"
    _save(kind, path, trained)
    stored_kind, header, arrays = load_arrays(path)
    header["layer_scale_init"] = 1
    save_arrays(path, stored_kind, header, arrays)
    assert LOADERS[kind](path).cfg.encoder.layer_scale_init == 1
