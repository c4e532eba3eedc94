"""Command-line entry point: run orchestration, CSV reports, run manifests.

Exit status: 0 success, 1 validation/configuration error or a file that
cannot be read or written, 2 numeric failure or running out of memory.
Partially written outputs, and the directories a run made for them, are
removed when a command fails; any other exception then propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_SCHEMA, RunConfig, load_config
from .errors import (CompatibilityError, ConfigError, NumericError, ParseError,
                     ShapeError)
from .gradsuite import run_suite
from .pretrain import (load_backbone, pretrain, probe_corpus, run_linear_probe,
                       save_backbone, teacher_tokens)
from .signals import (Recording, STANDARD_BANDS, SynthSpec, load_recording,
                      save_recording, synth_generate)
from .spectral import forward_spectrum
from .tokenizer import (INFERENCE_BATCH, build_windows, eval_per_band,
                        load_tokenizer, save_tokenizer, train_tokenizer)


def _schema_epilog() -> str:
    lines = ["config keys (set via file or --set section.key=value):"]
    for section, keys in CONFIG_SCHEMA.items():
        for key, (typ, desc) in keys.items():
            lines.append(f"  {section}.{key} ({typ.__name__}): {desc}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvqtok",
        description="Residual-vector-quantization signal tokenizer and "
                    "masked-modeling pipeline.",
        epilog=_schema_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--profile", choices=("desk", "paper"),
                       help="base profile (default: desk or the file's choice)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override")
        p.add_argument("--out-dir", help="output directory (overrides run.out_dir)")

    p = sub.add_parser("synth-gen", help="emit synthetic recordings")
    common(p)
    p = sub.add_parser("train-tokenizer", help="train the tokenizer, save a checkpoint")
    common(p)
    p = sub.add_parser("tokenize", help="emit code indices as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True, help="tokenizer checkpoint")
    p = sub.add_parser("reconstruct", help="emit reconstructed waveform files")
    common(p)
    p.add_argument("--checkpoint", required=True, help="tokenizer checkpoint")
    p = sub.add_parser("eval-bands", help="per-band reconstruction MSE report")
    common(p)
    p.add_argument("--checkpoint", required=True, help="tokenizer checkpoint")
    p = sub.add_parser("spectrum", help="serialize one patch's spectral target")
    common(p)
    p.add_argument("--input", required=True, help="recording CSV to analyze")
    p.add_argument("--patch", type=int, default=0, help="patch index (default 0)")
    p = sub.add_parser("pretrain", help="masked pretraining of the backbone")
    common(p)
    p.add_argument("--tokenizer", required=True, help="frozen tokenizer checkpoint")
    p = sub.add_parser("probe", help="synthetic linear probe on backbone features")
    common(p)
    p.add_argument("--backbone", required=True, help="backbone checkpoint")
    p = sub.add_parser("sweep-levels", help="train at N in {2,4,8}, report val MSE")
    common(p)
    p.add_argument("--levels", default="2,4,8",
                   help="comma-separated level counts (default 2,4,8)")
    p = sub.add_parser("gradcheck", help="finite-difference suite over all primitives")
    common(p)
    p.add_argument("--seeds", type=int, default=20, help="seeds per primitive")
    return parser


# ---------------------------------------------------------------------------
# helpers


def _make_dirs(path: Path) -> list[Path]:
    """Create ``path`` and its missing parents; return those made, outermost
    first."""
    missing = [p for p in (path, *path.parents) if not p.exists()][::-1]
    for p in missing:
        p.mkdir()
    return missing


class _Run:
    """Tracks outputs for the manifest and removes them on failure."""

    def __init__(self, cfg: RunConfig, command: str, out_dir: Path):
        self.cfg = cfg
        self.command = command
        self.out_dir = out_dir
        self.outputs: list[Path] = []
        self.started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.made_dirs = _make_dirs(out_dir)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.made_dirs += _make_dirs(p.parent)
        self.outputs.append(p)
        return p

    def write_csv(self, name: str, header: str, rows) -> Path:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return p

    def cleanup(self) -> None:
        for p in self.outputs:
            if p.exists():
                p.unlink()
        for d in reversed(self.made_dirs):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "code_version": __version__,
            "seed": self.cfg.get("run", "seed"),
            "config": self.cfg.snapshot(),
            "started_utc": self.started,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "outputs": [{"path": str(p.relative_to(self.out_dir)),
                         "sha256": _sha256(p)} for p in self.outputs],
        }
        with open(self.out_dir / f"manifest_{self.command}.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _corpus(cfg: RunConfig) -> list[Recording]:
    """Recordings from run.data_dir, or a deterministic synthetic corpus."""
    data_dir = cfg.get("run", "data_dir")
    if data_dir:
        root = Path(data_dir)
        files = sorted(root.glob("*.csv")) + sorted(root.glob("*.f32"))
        if not files:
            raise ConfigError(f"no recordings (*.csv, *.f32) in {root}")
        return [load_recording(f, "raw-f32" if f.suffix == ".f32" else "csv")
                for f in files]
    s = cfg.values["synth"]
    seed = cfg.get("run", "seed")
    counts = {b.name: s["components_per_band"] for b in STANDARD_BANDS}
    return [synth_generate(SynthSpec(
        sample_rate=s["sample_rate"], duration=s["duration"],
        n_channels=s["channels"], components_per_band=counts,
        noise_level=s["noise_level"], seed=seed * 10000 + 100 + i))
        for i in range(s["recordings"])]


def _train_tokenizer_from(cfg: RunConfig, recordings, levels=None):
    t = cfg.values["train"]
    tok_cfg = cfg.tokenizer_config()
    if levels is not None:
        tok_cfg = dataclasses.replace(tok_cfg, levels=levels)
    return train_tokenizer(
        recordings, tok_cfg,
        epochs=t["tokenizer_epochs"],
        slots_per_window=t["slots_per_window"], batch_size=t["batch_size"],
        base_lr=t["tokenizer_lr"], min_lr=t["tokenizer_min_lr"],
        weight_decay=t["tokenizer_weight_decay"],
        warmup_epochs=t["tokenizer_warmup_epochs"], seed=cfg.get("run", "seed"))


CURVE_HEADER = "epoch,split,log_amp_loss,unit_loss,temporal_loss,lq,total,raw_mse"


def _curve_rows(curves):
    for row in curves:
        yield (row["epoch"], row["split"], row.get("log_amp", float("nan")),
               row.get("unit", float("nan")), row.get("temporal", float("nan")),
               row.get("lq", float("nan")), row.get("total", float("nan")),
               row.get("raw_mse", float("nan")))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth_gen(run: _Run, args) -> int:
    recs = _corpus(run.cfg)
    for i, rec in enumerate(recs):
        save_recording(rec, run.path(f"recordings/rec{i:03d}.csv"), "csv")
    return 0


def _cmd_train_tokenizer(run: _Run, args) -> int:
    recs = _corpus(run.cfg)
    model, curves = _train_tokenizer_from(run.cfg, recs)
    save_tokenizer(model, run.path("tokenizer.ckpt"))
    run.write_csv("tokenizer_curves.csv", CURVE_HEADER, _curve_rows(curves))
    return 0


def _cmd_tokenize(run: _Run, args) -> int:
    model = load_tokenizer(args.checkpoint)
    windows = build_windows(_corpus(run.cfg), model.cfg.encoder.w,
                            run.cfg.get("train", "slots_per_window"), val_fraction=0.0)
    idx = teacher_tokens(windows, model)
    W, P, S, N = idx.shape
    patch, branch, level = np.indices((W * P, S, N)).reshape(3, -1).tolist()
    rows = zip(patch, branch, level, idx.reshape(-1).tolist())
    run.write_csv("tokens.csv", "patch,branch,level,index", rows)
    return 0


def _cmd_reconstruct(run: _Run, args) -> int:
    model = load_tokenizer(args.checkpoint)
    recs = _corpus(run.cfg)
    slots = run.cfg.get("train", "slots_per_window")
    w = model.cfg.encoder.w
    for r, rec in enumerate(recs):
        windows = build_windows([rec], w, slots, val_fraction=0.0)
        recon = np.concatenate([
            model.reconstruct(chunk.patches, chunk.channel_idx, chunk.slot_idx)
            for _, chunk in windows.batches(INFERENCE_BATCH)])
        # undo the cut: (n_win, C, slots, w) windows back to (C, T) rows
        C = rec.n_channels
        out = recon.reshape(-1, C, slots, w).swapaxes(0, 1).reshape(C, -1)
        rebuilt = Recording(rec.sample_rate, list(rec.channels), out)
        save_recording(rebuilt, run.path(f"recon/rec{r:03d}_recon.csv"), "csv")
    return 0


def _cmd_eval_bands(run: _Run, args) -> int:
    model = load_tokenizer(args.checkpoint)
    recs = _corpus(run.cfg)
    report = eval_per_band(model, recs, STANDARD_BANDS, split="validation",
                           slots_per_window=run.cfg.get("train", "slots_per_window"))
    run.write_csv("band_report.csv", "split,band,mse,patches", report.rows())
    return 0


def _cmd_spectrum(run: _Run, args) -> int:
    rec = load_recording(args.input, "csv")
    w = run.cfg.get("model", "w")
    # patches are numbered row-major over (channel, slot); a trailing
    # remainder shorter than w is dropped
    n_slots = rec.n_samples // w
    if n_slots == 0:
        raise ConfigError(
            f"recording has {rec.n_samples} samples, shorter than one {w}-sample patch")
    n_patches = rec.n_channels * n_slots
    if not 0 <= args.patch < n_patches:
        raise ConfigError(f"patch index {args.patch} out of range [0, {n_patches})")
    ch, slot = divmod(args.patch, n_slots)
    tgt = forward_spectrum(rec.data[ch, slot * w:(slot + 1) * w])
    rows = [(b, float(tgt.log_amp[b]), float(tgt.sin_phase[b]),
             float(tgt.cos_phase[b])) for b in range(len(tgt.log_amp))]
    run.write_csv("spectrum.csv", "bin,log_amp,sin,cos", rows)
    return 0


def _cmd_pretrain(run: _Run, args) -> int:
    tok_model = load_tokenizer(args.tokenizer)
    recs = _corpus(run.cfg)
    backbone, curves = pretrain(recs, run.cfg.pretrain_config(), tok_model)
    save_backbone(backbone, run.path("backbone.ckpt"))
    rows = [(r["epoch"], r["split"], r["ce_loss"], r["masked_acc"]) for r in curves]
    run.write_csv("pretrain_curves.csv", "epoch,split,ce_loss,masked_acc", rows)
    return 0


def _cmd_probe(run: _Run, args) -> int:
    backbone = load_backbone(args.backbone)
    s = run.cfg.values["synth"]
    recs, labels = probe_corpus(
        s["probe_recordings_per_class"], s["channels"], s["sample_rate"],
        s["duration"], seed=run.cfg.get("run", "seed") * 10000 + 5000)
    result = run_linear_probe(backbone, recs, labels, backbone.cfg.slots_per_window)
    rows = [("train", result["train_accuracy"], result["n_train"]),
            ("held-out", result["held_out_accuracy"], result["n_held_out"])]
    run.write_csv("probe_report.csv", "split,accuracy,n", rows)
    return 0


def _cmd_sweep_levels(run: _Run, args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--levels must be comma-separated integers, "
                          f"got {args.levels!r}") from None
    if not levels:
        raise ConfigError("--levels must name at least one level count")
    if min(levels) < 1:
        raise ConfigError(f"--levels entries must be at least 1, got {args.levels!r}")
    recs = _corpus(run.cfg)
    rows = []
    for n in levels:
        _, curves = _train_tokenizer_from(run.cfg, recs, levels=n)
        vals = [r for r in curves if r["split"] == "val"]
        if not vals:
            raise ConfigError("sweep requires a validation split")
        rows.append((n, vals[-1]["raw_mse"]))
    run.write_csv("sweep_levels.csv", "levels,val_raw_mse", rows)
    return 0


def _cmd_gradcheck(run: _Run, args) -> int:
    report = run_suite(seeds=args.seeds)
    rows = [(name, err) for name, err in report.items()]
    run.write_csv("gradcheck.csv", "case,max_rel_error", rows)
    worst = max(report.values())
    if worst >= 1e-4:
        raise NumericError(f"gradient suite failed: worst relative error {worst}")
    return 0


_BODIES = {
    "synth-gen": _cmd_synth_gen,
    "train-tokenizer": _cmd_train_tokenizer,
    "tokenize": _cmd_tokenize,
    "reconstruct": _cmd_reconstruct,
    "eval-bands": _cmd_eval_bands,
    "spectrum": _cmd_spectrum,
    "pretrain": _cmd_pretrain,
    "probe": _cmd_probe,
    "sweep-levels": _cmd_sweep_levels,
    "gradcheck": _cmd_gradcheck,
}


#: (exception types, exit status, message prefix) of the failures a command
#: reports.
_FAILURES = (
    ((ConfigError, ParseError, CompatibilityError, ShapeError, OSError), 1, "error"),
    ((NumericError, ArithmeticError), 2, "numeric failure"),
    (MemoryError, 2, "out of memory"),
)


def cmd(argv) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; that slot is reserved
        # for numeric failures here
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        cfg = load_config(args.config, args.profile, args.overrides)
        if args.out_dir:
            cfg.values["run"]["out_dir"] = args.out_dir
        run = _Run(cfg, args.command, Path(cfg.get("run", "out_dir")))
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        status = _BODIES[args.command](run, args)
        run.finish()
        return status
    except BaseException as exc:
        run.cleanup()
        for kinds, status, what in _FAILURES:
            if isinstance(exc, kinds):
                print(f"{what}: {exc}", file=sys.stderr)
                return status
        raise


def main() -> None:
    sys.exit(cmd(sys.argv[1:]))


if __name__ == "__main__":
    main()
