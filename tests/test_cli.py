"""Config resolution, CLI subcommands, manifests, and output determinism."""

import json
import math

import numpy as np
import pytest

from rvqtok import cli
from rvqtok.cli import SUBCOMMANDS, _build_parser, cmd
from rvqtok.config import CONFIG_SCHEMA, load_config
from rvqtok.errors import ConfigError
from rvqtok.signals import SynthSpec, save_recording, synth_generate

# micro settings that make training commands run in seconds
MICRO = [
    "--set", "model.w=16", "--set", "model.D=16", "--set", "model.S=2",
    "--set", "model.N=2", "--set", "model.K=16", "--set", "model.d_c=8",
    "--set", "model.encoder_depth=1", "--set", "model.decoder_depth=1",
    "--set", "model.backbone_depth=1", "--set", "model.heads=2",
    "--set", "model.mlp_dim=32", "--set", "model.n_electrodes=4",
    "--set", "synth.recordings=2", "--set", "synth.channels=2",
    "--set", "synth.duration=4", "--set", "synth.sample_rate=64",
    "--set", "train.tokenizer_epochs=1", "--set", "train.batch_size=2",
    "--set", "train.pretrain_epochs=1", "--set", "train.pretrain_batch_size=2",
    "--set", "train.pretrain_slots_per_window=2",
    "--set", "synth.probe_recordings_per_class=4",
]


class TestLoadConfig:
    def test_desk_defaults(self):
        cfg = load_config()
        assert cfg.get("run", "profile") == "desk"
        assert cfg.get("model", "w") == 64
        assert cfg.get("model", "N") == 4

    def test_paper_profile_values(self):
        cfg = load_config(profile="paper")
        assert cfg.get("train", "lambda_circle") == 0.4
        assert cfg.get("model", "S") == 4
        assert cfg.get("model", "N") == 8
        assert cfg.get("model", "K") == 8192
        assert cfg.get("model", "d_c") == 128
        assert cfg.get("train", "tokenizer_epochs") == 100
        assert cfg.get("model", "w") == 200
        assert cfg.get("train", "tokenizer_lr") == 5e-5
        assert cfg.get("train", "tokenizer_warmup_epochs") == 10

    def test_odd_w_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["model.w=63"])
        assert "model.w" in str(err.value)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["model.banana=1"])
        assert "banana" in str(err.value)

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["model.w=abc"])
        assert "model" in str(err.value) and "w" in str(err.value)

    def test_file_layering_and_stability(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 7\n[model]\nw = 32\n")
        a = load_config(path)
        b = load_config(path)
        assert a.snapshot() == b.snapshot()
        assert a.get("model", "w") == 32
        assert a.get("run", "seed") == 7
        assert a.get("model", "D") == 64  # untouched default

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nw = 32\n")
        cfg = load_config(path, overrides=["model.w=16"])
        assert cfg.get("model", "w") == 16

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["model.w"])


class TestHelpCoverage:
    def test_help_lists_every_subcommand_and_config_key(self, capsys):
        parser = _build_parser()
        help_text = parser.format_help()
        for name in SUBCOMMANDS:
            assert name in help_text, name
        for section, keys in CONFIG_SCHEMA.items():
            for key in keys:
                assert f"{section}.{key}" in help_text, f"{section}.{key}"


class TestCommands:
    def test_unknown_subcommand_exit_1(self):
        assert cmd(["definitely-not-a-command"]) == 1

    def test_invalid_override_exit_1(self, tmp_path):
        assert cmd(["synth-gen", "--out-dir", str(tmp_path),
                    "--set", "model.w=63"]) == 1

    @pytest.mark.parametrize("override", ["synth.channels=5",
                                          "train.slots_per_window=16",
                                          "train.pretrain_slots_per_window=16"])
    def test_out_of_range_config_exit_1_without_outputs(self, tmp_path, override):
        # MICRO has 4 electrode rows and the desk profile's 8 slot rows
        out = tmp_path / "out"
        assert cmd(["train-tokenizer", "--out-dir", str(out), *MICRO,
                    "--set", override]) == 1
        assert not out.exists() or not any(out.rglob("*"))

    def test_recordings_beyond_electrode_rows_exit_1_without_outputs(self, tmp_path):
        # two 6-channel recordings, but MICRO sizes the channel table at 4
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            save_recording(synth_generate(SynthSpec(seed=i, n_channels=6, duration=4.0,
                                                    sample_rate=64.0)),
                           data / f"rec{i}.csv")
        out = tmp_path / "out"
        assert cmd(["train-tokenizer", "--out-dir", str(out), *MICRO,
                    "--set", f"run.data_dir={data}"]) == 1
        assert not out.exists() or not any(out.rglob("*"))

    def test_out_of_memory_exit_2_with_cleanup(self, tmp_path, monkeypatch):
        def body(run, args):
            run.write_csv("partial.csv", "a", [(1,)])
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setitem(cli._BODIES, "synth-gen", body)
        assert cmd(["synth-gen", "--out-dir", str(tmp_path), *MICRO]) == 2
        assert not any(tmp_path.rglob("*"))

    def test_synth_gen_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cmd(["synth-gen", "--out-dir", str(out), *MICRO])
            assert rc == 0
        f1 = sorted((out1 / "recordings").glob("*.csv"))
        f2 = sorted((out2 / "recordings").glob("*.csv"))
        assert len(f1) == 2
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()

    def test_manifest_lists_outputs_with_hashes(self, tmp_path):
        rc = cmd(["synth-gen", "--out-dir", str(tmp_path), *MICRO])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest_synth-gen.json").read_text())
        assert manifest["command"] == "synth-gen"
        assert manifest["seed"] == 0
        listed = {o["path"] for o in manifest["outputs"]}
        assert "recordings/rec000.csv" in listed
        import hashlib
        for entry in manifest["outputs"]:
            digest = hashlib.sha256(
                (tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_spectrum_command(self, tmp_path):
        rc = cmd(["synth-gen", "--out-dir", str(tmp_path), *MICRO])
        assert rc == 0
        rec = tmp_path / "recordings" / "rec000.csv"
        rc = cmd(["spectrum", "--input", str(rec), "--out-dir", str(tmp_path),
                  *MICRO])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "bin,log_amp,sin,cos"
        assert len(lines) == 1 + 16 // 2 + 1
        for line in lines[1:]:
            _, la, s, c = line.split(",")
            assert math.isfinite(float(la)) and float(la) >= 0.0
            assert abs(float(s) ** 2 + float(c) ** 2 - 1.0) < 1e-6

    def test_gradcheck_command(self, tmp_path):
        rc = cmd(["gradcheck", "--out-dir", str(tmp_path), "--seeds", "2"])
        assert rc == 0
        lines = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert lines[0] == "case,max_rel_error"
        assert all(float(line.split(",")[1]) < 1e-4 for line in lines[1:])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the full micro pipeline once; several tests inspect its outputs."""
    out = tmp_path_factory.mktemp("pipeline")
    assert cmd(["train-tokenizer", "--out-dir", str(out), *MICRO]) == 0
    ckpt = out / "tokenizer.ckpt"
    assert cmd(["tokenize", "--checkpoint", str(ckpt), "--out-dir", str(out),
                *MICRO]) == 0
    assert cmd(["reconstruct", "--checkpoint", str(ckpt), "--out-dir", str(out),
                *MICRO]) == 0
    assert cmd(["eval-bands", "--checkpoint", str(ckpt), "--out-dir", str(out),
                *MICRO]) == 0
    assert cmd(["pretrain", "--tokenizer", str(ckpt), "--out-dir", str(out),
                *MICRO]) == 0
    assert cmd(["probe", "--backbone", str(out / "backbone.ckpt"),
                "--out-dir", str(out), *MICRO]) == 0
    return out


class TestPipeline:
    def test_expected_artifacts(self, pipeline_dir):
        for name in ("tokenizer.ckpt", "tokenizer_curves.csv", "tokens.csv",
                     "band_report.csv", "backbone.ckpt", "pretrain_curves.csv",
                     "probe_report.csv"):
            assert (pipeline_dir / name).exists(), name

    def test_curve_header(self, pipeline_dir):
        lines = (pipeline_dir / "tokenizer_curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,log_amp_loss,unit_loss,temporal_loss,lq,total,raw_mse"
        assert len(lines) >= 2

    def test_tokens_csv_schema(self, pipeline_dir):
        lines = (pipeline_dir / "tokens.csv").read_text().splitlines()
        assert lines[0] == "patch,branch,level,index"
        # micro run: 2 recordings x 2 channels x 16 slots = 64 patches,
        # each with S=2 branches x N=2 levels rows
        assert len(lines) == 1 + 64 * 2 * 2
        for line in lines[1:5]:
            patch, branch, level, index = map(int, line.split(","))
            assert 0 <= index < 16

    def test_band_report_schema(self, pipeline_dir):
        lines = (pipeline_dir / "band_report.csv").read_text().splitlines()
        assert lines[0] == "split,band,mse,patches"
        bands = [line.split(",")[1] for line in lines[1:]]
        assert bands == ["raw", "delta", "theta", "alpha", "beta", "gamma"]

    def test_reconstruction_covers_input_patches(self, pipeline_dir):
        recon = sorted((pipeline_dir / "recon").glob("*_recon.csv"))
        assert len(recon) == 2
        header = recon[0].read_text().splitlines()[0]
        assert header.startswith("# rate=")
        n_rows = len(recon[0].read_text().splitlines()) - 1
        # 4 s at 64 Hz -> 256 samples, all covered by 16 slots of w=16
        assert n_rows == 256

    def test_pretrain_curves_header(self, pipeline_dir):
        lines = (pipeline_dir / "pretrain_curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,ce_loss,masked_acc"

    def test_probe_report(self, pipeline_dir):
        lines = (pipeline_dir / "probe_report.csv").read_text().splitlines()
        assert lines[0] == "split,accuracy,n"
        rows = dict((ln.split(",")[0], float(ln.split(",")[1])) for ln in lines[1:])
        assert set(rows) == {"train", "held-out"}

    def test_each_output_in_exactly_one_manifest(self, pipeline_dir):
        manifests = sorted(pipeline_dir.glob("manifest_*.json"))
        seen: dict[str, int] = {}
        for m in manifests:
            data = json.loads(m.read_text())
            for entry in data["outputs"]:
                seen[entry["path"]] = seen.get(entry["path"], 0) + 1
        assert seen and all(count == 1 for count in seen.values())

    def test_train_rerun_byte_identical_outputs(self, pipeline_dir, tmp_path):
        out2 = tmp_path / "rerun"
        assert cmd(["train-tokenizer", "--out-dir", str(out2), *MICRO]) == 0
        a = (pipeline_dir / "tokenizer_curves.csv").read_bytes()
        b = (out2 / "tokenizer_curves.csv").read_bytes()
        assert a == b
        assert (pipeline_dir / "tokenizer.ckpt").read_bytes() == \
            (out2 / "tokenizer.ckpt").read_bytes()
