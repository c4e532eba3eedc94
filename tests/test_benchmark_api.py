"""The benchmark in ``perfbench/`` wraps and calls the program by name: one
traced round of each workload must run, record its operations and yield
every per-layer metric, and every timing layer the workload enters must
read above 0 (a call moved out from under its wrapper reads 0)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


#: workload -> the timing layers a round of it enters
ENTERED = {
    "train-desk": {"encoder.branches_ms", "encoder.transformer_ms", "rvq.search_ms",
                   "rvq.ema_ms", "rvq.kmeans_s", "rvq.reinit_ms", "tokenizer.decode_ms",
                   "tokenizer.evaluate_s", "spectral.loss_ms", "autodiff.backward_ms",
                   "optim.clip_ms", "optim.adamw_ms"},
    "pretrain-desk": {"encoder.branches_ms", "encoder.transformer_ms", "rvq.kmeans_s",
                      "autodiff.backward_ms", "optim.adamw_ms",
                      "pretrain.backbone_forward_ms", "pretrain.heads_ms",
                      "pretrain.teacher_s", "checkpoint.load_s"},
    "tokenize-paper": {"encoder.branches_ms", "rvq.search_ms", "checkpoint.load_s"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_runs(name, tmp_path):
    tracer = Tracer()
    with tracer.installed():
        layers.install(tracer)
        result = WORKLOADS[name](1, 0, tracer, tmp_path)
    ops = [s.duration for s in tracer.named("op")]
    assert result.failures == []
    assert ops
    metrics = layers.per_layer_metrics([(tracer, result)], ops)
    assert set(metrics) == set(layers.PER_LAYER)
    assert {layer for layer in ENTERED[name] if not metrics[layer] > 0} == set()
