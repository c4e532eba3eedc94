"""The benchmark in ``perfbench/`` wraps and calls the program by name: one
traced round of each workload must run, record its operations and yield
every per-layer metric."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


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
