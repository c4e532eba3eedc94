"""Layered run configuration: profile defaults <- config file <- CLI overrides.

The file format is INI (configparser): sections group the knobs, and every
key is validated against the schema below before any run starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import STOCK_BRANCH_LADDER, EncoderConfig, default_branch_configs
from .errors import ConfigError
from .pretrain import PretrainConfig
from .tokenizer import TokenizerConfig

#: section -> key -> (type, description).  This is the full config surface;
#: the CLI --help epilog is generated from it.
CONFIG_SCHEMA: dict[str, dict[str, tuple[type, str]]] = {
    "run": {
        "profile": (str, "base profile: desk or paper"),
        "seed": (int, "master RNG seed; recorded in every manifest"),
        "out_dir": (str, "output directory for artifacts and the manifest"),
        "data_dir": (str, "directory of recording CSVs (empty: synthesize)"),
    },
    "model": {
        "w": (int, "patch length in samples (even; branches must flatten to w)"),
        "D": (int, "transformer model dimension"),
        "S": (int, "temporal branch count"),
        "N": (int, "codebooks per RVQ stack"),
        "K": (int, "codewords per codebook"),
        "d_c": (int, "code dimension inside the RVQ stacks"),
        "encoder_depth": (int, "tokenizer encoder transformer depth"),
        "decoder_depth": (int, "tokenizer decoder transformer depth"),
        "backbone_depth": (int, "masked-pretraining backbone transformer depth"),
        "heads": (int, "attention heads (must divide D)"),
        "mlp_dim": (int, "transformer MLP hidden width"),
        "layer_scale_init": (float, "residual branch scale at init"),
        "backbone_layer_scale_init": (float, "backbone residual scale at init"),
        "n_electrodes": (int, "global electrode list size"),
        "max_slots": (int, "temporal embedding rows (max slots per window)"),
    },
    "train": {
        "lambda_circle": (float, "unit-circle penalty weight"),
        "commitment_beta": (float, "commitment loss weight"),
        "ema_decay": (float, "codebook EMA decay"),
        "tokenizer_epochs": (int, "tokenizer training epochs"),
        "tokenizer_lr": (float, "tokenizer base learning rate"),
        "tokenizer_min_lr": (float, "tokenizer cosine floor"),
        "tokenizer_warmup_epochs": (int, "tokenizer warmup epochs"),
        "tokenizer_weight_decay": (float, "tokenizer AdamW weight decay"),
        "batch_size": (int, "tokenizer batch size (windows)"),
        "slots_per_window": (int, "time slots per attention window"),
        "mask_ratio": (float, "masked-pretraining mask ratio (0, 1)"),
        "pretrain_epochs": (int, "masked-pretraining epochs"),
        "pretrain_lr": (float, "pretraining base learning rate"),
        "pretrain_min_lr": (float, "pretraining cosine floor"),
        "pretrain_warmup_epochs": (int, "pretraining warmup epochs"),
        "pretrain_weight_decay": (float, "pretraining AdamW weight decay"),
        "pretrain_batch_size": (int, "pretraining batch size (windows)"),
    },
    "synth": {
        "recordings": (int, "number of synthetic recordings"),
        "channels": (int, "channels per recording"),
        "duration": (float, "seconds per recording"),
        "sample_rate": (float, "sampling rate in Hz"),
        "noise_level": (float, "pink-noise amplitude"),
        "components_per_band": (int, "sinusoid components per rhythm band"),
        "probe_recordings_per_class": (int, "probe corpus size per class"),
    },
}

DESK_PROFILE: dict[str, dict] = {
    "run": {"profile": "desk", "seed": 0, "out_dir": "out", "data_dir": ""},
    "model": {"w": 64, "D": 64, "S": 4, "N": 4, "K": 256, "d_c": 32,
              "encoder_depth": 2, "decoder_depth": 1, "backbone_depth": 4,
              "heads": 4, "mlp_dim": 256, "layer_scale_init": 1e-3,
              "backbone_layer_scale_init": 0.1, "n_electrodes": 8,
              "max_slots": 8},
    "train": {"lambda_circle": 0.4, "commitment_beta": 0.25, "ema_decay": 0.99,
              "tokenizer_epochs": 12, "tokenizer_lr": 3e-3,
              "tokenizer_min_lr": 1e-5, "tokenizer_warmup_epochs": 2,
              "tokenizer_weight_decay": 1e-4, "batch_size": 4,
              "slots_per_window": 2, "mask_ratio": 0.5, "pretrain_epochs": 10,
              "pretrain_lr": 3e-3, "pretrain_min_lr": 1e-5,
              "pretrain_warmup_epochs": 1, "pretrain_weight_decay": 0.05,
              "pretrain_batch_size": 2},
    "synth": {"recordings": 16, "channels": 8, "duration": 24.0,
              "sample_rate": 128.0, "noise_level": 0.02,
              "components_per_band": 1, "probe_recordings_per_class": 16},
}

PAPER_PROFILE: dict[str, dict] = {
    "run": {"profile": "paper", "seed": 0, "out_dir": "out", "data_dir": ""},
    "model": {"w": 200, "D": 200, "S": 4, "N": 8, "K": 8192, "d_c": 128,
              "encoder_depth": 12, "decoder_depth": 3, "backbone_depth": 12,
              "heads": 10, "mlp_dim": 800, "layer_scale_init": 1e-3,
              "backbone_layer_scale_init": 1e-3, "n_electrodes": 64,
              "max_slots": 16},
    "train": {"lambda_circle": 0.4, "commitment_beta": 0.25, "ema_decay": 0.99,
              "tokenizer_epochs": 100, "tokenizer_lr": 5e-5,
              "tokenizer_min_lr": 1e-5, "tokenizer_warmup_epochs": 10,
              "tokenizer_weight_decay": 1e-4, "batch_size": 256,
              "slots_per_window": 4, "mask_ratio": 0.5, "pretrain_epochs": 50,
              "pretrain_lr": 5e-4, "pretrain_min_lr": 1e-5,
              "pretrain_warmup_epochs": 5, "pretrain_weight_decay": 0.05,
              "pretrain_batch_size": 64},
    "synth": {"recordings": 64, "channels": 16, "duration": 60.0,
              "sample_rate": 200.0, "noise_level": 0.02,
              "components_per_band": 1, "probe_recordings_per_class": 16},
}

PROFILES = {"desk": DESK_PROFILE, "paper": PAPER_PROFILE}

#: (section, key) -> least valid value.  Sizes and counts that index, divide
#: or allocate start at 1; depths, epoch counts, loss weights, learning rates
#: and their floors, weight decays and layer-scale inits start at 0.
MINIMUMS: dict[tuple[str, str], float] = {
    ("model", "w"): 2, ("model", "D"): 1, ("model", "S"): 1, ("model", "N"): 1,
    ("model", "K"): 1, ("model", "d_c"): 1, ("model", "heads"): 1,
    ("model", "mlp_dim"): 1, ("model", "encoder_depth"): 0,
    ("model", "decoder_depth"): 0, ("model", "backbone_depth"): 0,
    ("model", "layer_scale_init"): 0, ("model", "backbone_layer_scale_init"): 0,
    ("train", "lambda_circle"): 0, ("train", "commitment_beta"): 0,
    ("train", "tokenizer_epochs"): 0, ("train", "tokenizer_warmup_epochs"): 0,
    ("train", "tokenizer_lr"): 0, ("train", "tokenizer_min_lr"): 0,
    ("train", "tokenizer_weight_decay"): 0,
    ("train", "batch_size"): 1, ("train", "slots_per_window"): 1,
    ("train", "pretrain_epochs"): 0, ("train", "pretrain_warmup_epochs"): 0,
    ("train", "pretrain_lr"): 0, ("train", "pretrain_min_lr"): 0,
    ("train", "pretrain_weight_decay"): 0,
    ("train", "pretrain_batch_size"): 1,
    ("synth", "recordings"): 1, ("synth", "channels"): 1,
    ("synth", "components_per_band"): 0,
}


@dataclass
class RunConfig:
    """Fully resolved configuration snapshot."""

    values: dict[str, dict] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def snapshot(self) -> dict:
        return {sec: dict(kv) for sec, kv in self.values.items()}

    # ---- constructors for the module-level config objects ----

    def encoder_config(self, backbone: bool = False) -> EncoderConfig:
        m = self.values["model"]
        return EncoderConfig(
            w=m["w"], model_dim=m["D"], S=m["S"],
            depth=m["backbone_depth"] if backbone else m["encoder_depth"],
            heads=m["heads"], mlp_dim=m["mlp_dim"],
            n_electrodes=m["n_electrodes"], max_slots=m["max_slots"],
            layer_scale_init=(m["backbone_layer_scale_init"] if backbone
                              else m["layer_scale_init"]))

    def tokenizer_config(self) -> TokenizerConfig:
        m, t = self.values["model"], self.values["train"]
        return TokenizerConfig(
            encoder=self.encoder_config(), levels=m["N"], codebook_size=m["K"],
            code_dim=m["d_c"], decoder_depth=m["decoder_depth"],
            commitment_beta=t["commitment_beta"], ema_decay=t["ema_decay"],
            lambda_circle=t["lambda_circle"])

    def pretrain_config(self) -> PretrainConfig:
        m, t, r = self.values["model"], self.values["train"], self.values["run"]
        return PretrainConfig(
            encoder=self.encoder_config(backbone=True), levels=m["N"],
            codebook_size=m["K"], mask_ratio=t["mask_ratio"],
            epochs=t["pretrain_epochs"], base_lr=t["pretrain_lr"],
            min_lr=t["pretrain_min_lr"],
            warmup_epochs=t["pretrain_warmup_epochs"],
            weight_decay=t["pretrain_weight_decay"],
            batch_size=t["pretrain_batch_size"],
            slots_per_window=t["slots_per_window"], seed=r["seed"])

    def validate(self) -> None:
        m, t, s = self.values["model"], self.values["train"], self.values["synth"]
        for section, keys in CONFIG_SCHEMA.items():
            for key, (typ, _) in keys.items():
                if typ is float and not math.isfinite(self.values[section][key]):
                    raise ConfigError(f"{section}.{key} must be finite, "
                                      f"got {self.values[section][key]}")
        for (section, key), least in MINIMUMS.items():
            if self.values[section][key] < least:
                raise ConfigError(f"{section}.{key} must be at least {least}, "
                                  f"got {self.values[section][key]}")
        if s["duration"] * s["sample_rate"] < m["w"]:
            raise ConfigError(f"synth.duration {s['duration']} s at "
                              f"synth.sample_rate {s['sample_rate']} Hz is shorter "
                              f"than one patch of model.w {m['w']} samples")
        if m["w"] % 2 != 0:
            raise ConfigError("model.w must be even (spectral targets need w/2+1 bins)")
        if m["S"] > len(STOCK_BRANCH_LADDER):
            raise ConfigError(f"model.S {m['S']} exceeds the "
                              f"{len(STOCK_BRANCH_LADDER)} stock temporal branches")
        for branch in default_branch_configs(m["S"]):
            try:
                branch.validate(m["w"])
            except ConfigError as err:
                raise ConfigError(f"model.w {m['w']} does not fit the stock temporal "
                                  f"branches: {err}") from None
        if m["D"] % m["heads"] != 0:
            raise ConfigError("model.D must be divisible by model.heads")
        for key in ("mask_ratio", "ema_decay"):
            if not 0.0 < t[key] < 1.0:
                raise ConfigError(f"train.{key} must lie strictly between 0 and 1, "
                                  f"got {t[key]}")
        for base, floor in (("tokenizer_lr", "tokenizer_min_lr"),
                            ("pretrain_lr", "pretrain_min_lr")):
            if t[floor] > t[base]:
                raise ConfigError(f"train.{floor} {t[floor]} exceeds train.{base} {t[base]}")
        if s["channels"] > m["n_electrodes"]:
            raise ConfigError(f"synth.channels {s['channels']} exceeds "
                              f"model.n_electrodes {m['n_electrodes']}")
        if t["slots_per_window"] > m["max_slots"]:
            raise ConfigError(f"train.slots_per_window {t['slots_per_window']} "
                              f"exceeds model.max_slots {m['max_slots']}")
        # constructing the module configs runs their own constraint checks
        self.tokenizer_config()
        self.pretrain_config()


def _parse_value(section: str, key: str, raw: str):
    if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
        raise ConfigError(f"unknown config key [{section}] {key}")
    typ = CONFIG_SCHEMA[section][key][0]
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"config key [{section}] {key}: cannot parse {raw!r} as {typ.__name__}"
        ) from None


def load_config(path: str | Path | None = None, profile: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Resolve profile defaults <- file values <- command-line overrides.

    Overrides use the form ``section.key=value``.
    """
    file_values: dict[str, dict[str, str]] = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.read(path)
        for section in parser.sections():
            file_values[section] = dict(parser.items(section))
    profile_name = profile or file_values.get("run", {}).get("profile", "desk")
    if profile_name not in PROFILES:
        raise ConfigError(f"unknown profile {profile_name!r}; pick from "
                          f"{sorted(PROFILES)}")
    values = {sec: dict(kv) for sec, kv in PROFILES[profile_name].items()}
    for section, kv in file_values.items():
        for key, raw in kv.items():
            values.setdefault(section, {})[key] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        lhs, raw = item.split("=", 1)
        section, key = lhs.split(".", 1)
        values.setdefault(section, {})[key] = _parse_value(section, key, raw)
    values["run"]["profile"] = profile_name
    cfg = RunConfig(values)
    cfg.validate()
    return cfg
