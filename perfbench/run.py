"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  A run repeats whole rounds of its workload (set-up, timed
operations, output checks) until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  Each run also writes
its full record to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-desk", "pretrain-desk", "tokenize-paper")

#: name -> (unit, what is read); every workload reports all of them.
END_TO_END = {
    "op_ms": ("ms", "median wall time of one operation"),
    "setup_s": ("s", "median set-up time of a round"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
    "fidelity_loss": ("loss", "median fidelity loss of a round"),
}
#: The name each workload's operation metric has in the documentation.
OP_NAMES = {"train-desk": "train_step_ms", "pretrain-desk": "pretrain_step_ms",
            "tokenize-paper": "window_tokenize_ms"}
FIDELITY_NAMES = {"train-desk": "val_raw_nmse", "pretrain-desk": "val_masked_ce",
                  "tokenize-paper": "code_residual_ratio"}


def _limit_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded; must happen before numpy is imported.

    One thread was as fast as two on the desk workloads and steadier: over
    five seeds the IQR/median of train-desk ``op_ms`` was 3% with one thread
    and 10% with two, where the second thread contends with other load on
    the machine.  Returns the number of cores the process may use.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def _blas_info() -> dict:
    """BLAS name and version, and the live OpenBLAS thread count when the
    library bundled with numpy exports it."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    if n < 40:
        return None
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, float(np.percentile(values, pct))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    cores = _limit_blas_threads()
    if not (ROOT / "src" / "rvqtok" / "__init__.py").is_file():
        print(f"error: no rvqtok sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import resource
    import time

    import numpy as np

    import rvqtok
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if not Path(rvqtok.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported rvqtok from {rvqtok.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    workdir = HERE / "results"
    workdir.mkdir(exist_ok=True)
    run_round = WORKLOADS[args.workload]
    rounds = []  # (tracer, result, traced)
    attempted = failed = 0
    error = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        tracer = Tracer()
        try:
            with tracer.installed():
                if traced:
                    layers.install(tracer)
                result = run_round(args.seed, len(rounds), tracer, workdir)
        except Exception as exc:  # the operation that raised counts as failed
            attempted += max(1, len(tracer.named("op")))
            failed += 1
            error = f"{type(exc).__name__}: {exc}"
            break
        attempted += len(tracer.named("op"))
        rounds.append((tracer, result, traced))

    ops = [s.duration for tr, _, _ in rounds for s in tr.named("op")]
    results = [res for _, res, _ in rounds]
    failures = sorted({f for res in results for f in res.failures})
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "op_ms": 1e3 * float(np.median(ops)) if ops else float("nan"),
        "setup_s": float(np.median([r.setup_s for r in results])) if results else float("nan"),
        "peak_rss_mb": peak_mb,
        "fidelity_loss": float(np.median([r.fidelity for r in results])) if results else float("nan"),
    }
    traced_rounds = [(tr, res) for tr, res, t in rounds if t]
    untraced_ops = [s.duration for tr, _, t in rounds if not t for s in tr.named("op")]
    per_layer = layers.per_layer_metrics(traced_rounds, untraced_ops) if args.trace else {}

    blas = _blas_info()
    env = {"cores": cores, "numpy": np.__version__, **blas,
           "python": sys.version.split()[0], "git_sha": _git_sha()}
    print(f"env: cores={cores} numpy={np.__version__} blas={blas['blas']} "
          f"blas_threads={blas['blas_threads']} git={env['git_sha']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    if error:
        print(f"  failed operation: {error}")
    tail = _tail(ops)
    tail_text = f", p{tail[0]} {1e3 * tail[1]:.2f} ms" if tail else ""
    print(f"  {OP_NAMES[args.workload]}: median {e2e['op_ms']:.2f} ms "
          f"(n={len(ops)}{tail_text})")
    print(f"  {FIDELITY_NAMES[args.workload]}: {e2e['fidelity_loss']:.6g}")
    for name, value in e2e.items():
        print(f"  {name}: {value:.6g} {END_TO_END[name][0]}")
    for name, value in per_layer.items():
        print(f"  {name}: {value:.6g} {layers.PER_LAYER[name][0]}")
    for msg in failures:
        print(f"  CHECK FAILED: {msg}")

    chosen = per_layer if args.trace else e2e
    units = {**{k: u for k, (u, _) in END_TO_END.items()},
             **{k: u for k, (u, _) in layers.PER_LAYER.items()}}
    summary = {"correct": not failures and bool(rounds), "attempted": attempted,
               "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failures": failures, "error": error,
              "end_to_end": e2e, "per_layer": per_layer,
              "rounds": [{"traced": t, "setup_s": res.setup_s,
                          "fidelity": res.fidelity, "ops": len(tr.named("op")),
                          "op_ms": 1e3 * float(np.median([s.duration for s in tr.named("op")])),
                          "self_time_s": tr.self_times() if t else None}
                         for tr, res, t in rounds],
              "summary": summary}
    out = workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
