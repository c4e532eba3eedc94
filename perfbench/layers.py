"""Layer boundaries of rvqtok that a traced round records, and the per-layer
metrics read from those spans.

Every wrapper sits on a public function or method, outside the program.
Module-level functions are patched on the module that calls them (the name
the caller looks up), methods on their class.
"""

from __future__ import annotations

import numpy as np

from perfbench.spans import Tracer

#: name -> (unit, what is read).  Every workload prints every metric; a layer
#: a workload never enters reads 0.
PER_LAYER = {
    "encoder.branches_ms": ("ms", "MultiScaleEncoder.branch_features, per operation"),
    "encoder.transformer_ms": ("ms", "the encoder's TransformerStack.__call__, per operation"),
    "rvq.search_ms": ("ms", "RVQStack.quantize_codes over all stacks, per operation"),
    "rvq.ema_ms": ("ms", "ema_update over all codebooks, per operation"),
    "rvq.kmeans_s": ("s", "kmeans_init_stack over all stacks, per round"),
    "rvq.reinit_ms": ("ms", "end_epoch_reinit over all codebooks, per epoch"),
    "rvq.dead_code_resets": ("count", "sum of end_epoch_reinit results, per round"),
    "rvq.codebook_utilization": ("fraction", "used entries / K in the last epoch, mean over codebooks"),
    "tokenizer.decode_ms": ("ms", "TokenizerModel.decode, per operation"),
    "tokenizer.evaluate_s": ("s", "tokenizer.evaluate, per epoch"),
    "spectral.loss_ms": ("ms", "forward_spectrum + tokenizer_loss, per operation"),
    "autodiff.backward_ms": ("ms", "autodiff.backward, per operation"),
    "autodiff.tape_entries": ("count", "len(tape) passed to backward, per operation"),
    "optim.clip_ms": ("ms", "clip_global_norm, per operation"),
    "optim.adamw_ms": ("ms", "adamw_step, per operation"),
    "pretrain.backbone_forward_ms": ("ms", "BackboneModel.forward (both views), per operation"),
    "pretrain.heads_ms": ("ms", "self time of pretrain_step: heads and cross entropy"),
    "pretrain.teacher_s": ("s", "pretrain.teacher_tokens, per round"),
    "checkpoint.load_s": ("s", "load_tokenizer, per round"),
    "trace.overhead_ms": ("ms", "median traced operation minus median untraced operation"),
}

#: per-operation sums: metric -> span name
_PER_OP = {
    "encoder.branches_ms": "encoder.branches",
    "encoder.transformer_ms": "encoder.transformer",
    "rvq.search_ms": "rvq.search",
    "rvq.ema_ms": "rvq.ema",
    "tokenizer.decode_ms": "tokenizer.decode",
    "spectral.loss_ms": "spectral.loss",
    "autodiff.backward_ms": "autodiff.backward",
    "optim.clip_ms": "optim.clip",
    "optim.adamw_ms": "optim.adamw",
    "pretrain.backbone_forward_ms": "pretrain.backbone_forward",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in ``PER_LAYER``."""
    from rvqtok import encoder, pretrain, rvq, tokenizer

    def transformer_name(tr: Tracer) -> str:
        # the encoder's stack runs inside MultiScaleEncoder.forward; the
        # tokenizer's decoder stack runs inside TokenizerModel.decode
        return ("encoder.transformer" if tr.parent_name() == "encoder.forward"
                else "transformer.other")

    wrap = tracer.wrap
    wrap(encoder.MultiScaleEncoder, "branch_features", "encoder.branches")
    wrap(encoder.MultiScaleEncoder, "forward", "encoder.forward")
    wrap(encoder.TransformerStack, "__call__", transformer_name)
    wrap(rvq.RVQStack, "quantize_codes", "rvq.search")
    wrap(tokenizer, "ema_update", "rvq.ema")
    wrap(tokenizer, "kmeans_init_stack", "rvq.kmeans")
    wrap(rvq, "kmeans_init_stack", "rvq.kmeans")
    wrap(tokenizer, "end_epoch_reinit", "rvq.reinit",
         note=lambda args, result: result)
    wrap(tokenizer.TokenizerModel, "decode", "tokenizer.decode")
    wrap(tokenizer, "evaluate", "tokenizer.evaluate")
    wrap(tokenizer, "forward_spectrum", "spectral.loss")
    wrap(tokenizer, "tokenizer_loss", "spectral.loss")
    for module in (tokenizer, pretrain):
        wrap(module, "backward", "autodiff.backward",
             note=lambda args, result: len(args[0]))
        wrap(module, "adamw_step", "optim.adamw")
    wrap(tokenizer, "clip_global_norm", "optim.clip")
    wrap(pretrain.BackboneModel, "forward", "pretrain.backbone_forward")
    wrap(pretrain, "teacher_tokens", "pretrain.teacher")
    wrap(tokenizer, "load_tokenizer", "checkpoint.load")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(traced: list, untraced_ops: list[float]) -> dict[str, float]:
    """Per-layer values from the traced rounds.

    ``traced`` holds (tracer, round result) pairs; ``untraced_ops`` the
    operation durations (s) of the untraced rounds of the same run.
    """
    out: dict[str, float] = {}
    for metric, span in _PER_OP.items():
        out[metric] = 1e3 * _median([v for tr, _ in traced
                                     for v in tr.per_ancestor("op", span)])
    out["autodiff.tape_entries"] = _median(
        [v for tr, _ in traced for v in tr.per_ancestor("op", "autodiff.backward", "note")])
    out["rvq.kmeans_s"] = _median([sum(s.duration for s in tr.named("rvq.kmeans"))
                                   for tr, _ in traced])
    out["rvq.reinit_ms"] = 1e3 * _median(
        [sum(s.duration for s in tr.named("rvq.reinit")) / res.epochs for tr, res in traced])
    out["rvq.dead_code_resets"] = _median(
        [sum(s.note for s in tr.named("rvq.reinit")) for tr, _ in traced])
    out["rvq.codebook_utilization"] = _median([res.utilization for _, res in traced])
    out["tokenizer.evaluate_s"] = _median(
        [s.duration for tr, _ in traced for s in tr.named("tokenizer.evaluate")])
    # the self time of an operation is its heads' share only where the
    # operation is a pretraining step
    heads = [v for tr, _ in traced if tr.named("pretrain.backbone_forward")
             for v in tr.self_time_of("op")]
    out["pretrain.heads_ms"] = 1e3 * _median(heads)
    out["pretrain.teacher_s"] = _median(
        [sum(s.duration for s in tr.named("pretrain.teacher")) for tr, _ in traced])
    out["checkpoint.load_s"] = _median(
        [s.duration for tr, _ in traced for s in tr.named("checkpoint.load")])
    traced_ops = [s.duration for tr, _ in traced for s in tr.named("op")]
    out["trace.overhead_ms"] = 1e3 * (_median(traced_ops) - _median(untraced_ops))
    return {name: out[name] for name in PER_LAYER}
