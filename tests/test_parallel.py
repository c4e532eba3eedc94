"""The thread pool of inference: the ``parallel_map`` contract, and equal
results on one thread and on several."""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from rvqtok import autodiff as ad
from rvqtok import pretrain as pt
from rvqtok import tokenizer as tk
from rvqtok.config import load_config
from rvqtok.errors import ShapeError
from rvqtok.signals import SynthSpec, synth_generate

#: Seconds a test waits for a map that must not deadlock.
TIMEOUT = 30.0


def _in_thread(fn):
    """Run ``fn`` on a thread of its own; return its result or raise its
    exception, failing if it has not finished within ``TIMEOUT``."""
    box = {}

    def run():
        try:
            box["out"] = fn()
        except BaseException as exc:  # handed to the test's thread below
            box["exc"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(TIMEOUT)
    assert not t.is_alive(), f"no result within {TIMEOUT} s"
    if "exc" in box:
        raise box["exc"]
    return box["out"]


class TestParallelMap:
    def test_results_in_input_order(self, workers):
        workers(3)

        def slow_square(i):
            time.sleep(0.002 * (7 - i))
            return i * i

        assert _in_thread(lambda: ad.parallel_map(slow_square, range(7))) == \
            [i * i for i in range(7)]

    def test_uses_at_most_workers_threads_caller_included(self, workers):
        workers(2)
        seen = []
        barrier = threading.Barrier(2, timeout=TIMEOUT)

        def item(i):
            seen.append(threading.get_ident())
            if i in (0, 2):  # the first item of each group
                barrier.wait()
            return i

        caller = _in_thread(lambda: (ad.parallel_map(item, range(4)),
                                     threading.get_ident()))[1]
        assert len(set(seen)) == 2 and caller in seen
        assert ad._pool._max_workers == 1

    def test_under_a_tape_runs_in_order_on_the_caller(self, workers):
        workers(3)
        seen = []

        def taped():
            with ad.Tape():
                out = ad.parallel_map(
                    lambda i: seen.append((i, threading.get_ident())) or i, range(6))
            return out, threading.get_ident()

        out, caller = _in_thread(taped)
        assert out == list(range(6))
        assert seen == [(i, caller) for i in range(6)]

    def test_nested_call_runs_serially_without_deadlock(self, workers):
        workers(2)

        def inner(i):
            me = threading.get_ident()
            picks = ad.parallel_map(lambda j: (j, threading.get_ident()), range(3))
            assert all(t == me for _, t in picks)
            return [i * 10 + j for j, _ in picks]

        got = _in_thread(lambda: ad.parallel_map(inner, range(4)))
        assert got == [[i * 10 + j for j in range(3)] for i in range(4)]

    def test_worker_exception_reaches_the_caller(self, workers):
        workers(2)
        where = {}

        def item(i):
            if i == 3:  # in the second group, which a pool thread runs
                where["thread"] = threading.get_ident()
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 3"):
            _in_thread(lambda: ad.parallel_map(item, range(4)))
        assert where["thread"] != threading.get_ident()

    def test_one_worker_runs_on_the_caller(self, workers):
        workers(1)
        out = _in_thread(lambda: (ad.parallel_map(lambda i: threading.get_ident(),
                                                  range(3)), threading.get_ident()))
        assert out[0] == [out[1]] * 3
        assert ad._pool is None

    def test_concurrent_callers_share_one_pool(self, workers):
        """More callers and workers than cores, switching threads often."""
        workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def caller(k):
                return lambda: ad.parallel_map(lambda i: (k, i, np.sum(np.arange(i))),
                                               range(9))

            results = [None] * 6
            threads = [threading.Thread(
                target=lambda k=k: results.__setitem__(k, caller(k)()), daemon=True)
                for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(TIMEOUT)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == [(k, i, sum(range(i))) for i in range(9)]

    def test_split_map_under_a_tape_is_one_call(self, workers):
        workers(2)
        calls = []
        x = ad.Tensor(np.arange(24.0).reshape(6, 4), requires_grad=True)

        def f(t):
            calls.append(t.shape)
            return ad.mul(t, t)

        with ad.Tape() as tape:
            taped = ad.split_map(f, x, 3)
        assert calls == [(6, 4)] and len(tape) == 1
        calls.clear()
        free = ad.split_map(f, x, 3)
        assert calls == [(2, 4)] * 3
        assert np.array_equal(free.data, taped.data)
        with pytest.raises(ShapeError):
            ad.split_map(f, x, 4)


# ---------------------------------------------------------------------------
# one thread and several give equal bytes


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _windows(profile: str, channels: int, n_recordings: int, seconds: float):
    cfg = load_config(profile=profile)
    w, slots = cfg.get("model", "w"), cfg.get("train", "slots_per_window")
    recs = [synth_generate(SynthSpec(seed=s, n_channels=channels, duration=seconds,
                                     sample_rate=cfg.get("synth", "sample_rate")))
            for s in range(n_recordings)]
    return cfg, tk.build_windows(recs, w, slots, val_fraction=0.0)


def _inference_outputs(tc, pc, windows) -> dict[str, str]:
    """Digests of every inference entry point on fresh seed-0 models."""
    model = tk.TokenizerModel(tc, seed=0)
    backbone = pt.BackboneModel(pc, seed=0)
    args = (windows.patches, windows.channel_idx, windows.slot_idx)
    teacher = pt.teacher_tokens(windows, model)
    return {
        "token_indices": _digest(model.token_indices(*args)),
        "reconstruct": _digest(model.reconstruct(*args)),
        "evaluate": repr(sorted(tk.evaluate(model, windows).items())),
        "teacher_tokens": _digest(teacher),
        "extract_features": _digest(pt.extract_features(backbone, windows)),
        "masked_metrics": repr(pt.masked_metrics(backbone, windows, teacher,
                                                 pc.mask_ratio, seed=3)),
    }


def _per_worker_count(workers, run) -> list:
    out = []
    for n in (1, 2, 3):  # 3 cuts the four branches into uneven groups
        workers(n)
        out.append(run())
    return out


def test_desk_inference_equal_on_one_two_and_three_threads(workers):
    cfg, windows = _windows("desk", 8, 3, 4.0)
    tc, pc = cfg.tokenizer_config(), cfg.pretrain_config()
    serial, *threaded = _per_worker_count(
        workers, lambda: _inference_outputs(tc, pc, windows))
    assert all(t == serial for t in threaded)


def test_paper_shape_inference_equal_on_one_two_and_three_threads(workers):
    """Paper widths (w = D = 200, 16 channels, 64 patches a window) with one
    encoder block, a smaller book and two levels, to keep the test light."""
    cfg, windows = _windows("paper", 16, 1, 4.0)
    tc, pc = cfg.tokenizer_config(), cfg.pretrain_config()
    for c in (tc, pc):
        c.encoder.depth, c.levels, c.codebook_size = 1, 2, 512
    tc.decoder_depth = 1
    assert windows.patches.shape[1:] == (64, 200)
    serial, *threaded = _per_worker_count(
        workers, lambda: _inference_outputs(tc, pc, windows))
    assert all(t == serial for t in threaded)


def test_train_steps_equal_on_one_two_and_three_threads(workers):
    cfg, windows = _windows("desk", 8, 2, 4.0)
    tc = cfg.tokenizer_config()

    def two_steps():
        model = tk.TokenizerModel(tc, seed=0)
        for _, batch in list(windows.batches(4))[:2]:
            tk.train_step(batch, model, lr=3e-3, weight_decay=1e-4)
        params = model.params()
        return _digest(*[p.data for p in params], *[p.m for p in params],
                       *[p.v for p in params])

    serial, *threaded = _per_worker_count(workers, two_steps)
    assert all(t == serial for t in threaded)
