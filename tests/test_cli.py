"""End-to-end CLI tests: flags, exit codes, determinism, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gramalign
from gramalign.cli import main
from gramalign.data import load_embedding_table
from gramalign.modality import MODALITY_ORDER, Modality


def run(*argv):
    return main(list(argv))


def dir_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert run("synth", "--out", str(out), "--n", "48", "--dims", "12,12,12,16",
               "--noise", "0.05", "--seed", "5") == 0
    return out


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("runs") / "pre"
    code = run(
        "pretrain", "--data", str(synth_dir), "--out", str(out),
        "--epochs", "2", "--batch-size", "16", "--shared-dim", "8",
        "--proj-hidden", "12", "--seed", "7", "--lr", "1e-3",
    )
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", str(out), "--n", "8", "--dims", "4,4,4,6",
                       "--seed", "7") == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_n_below_minimum_is_flag_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "x"), "--n", "3") == 2

    def test_default_dims_match_encoders(self, tmp_path):
        out = tmp_path / "d"
        assert run("synth", "--out", str(out), "--n", "4", "--seed", "1") == 0
        dims = [load_embedding_table(out / f"{m.short}.gemb", m).dim for m in MODALITY_ORDER]
        assert dims == [768, 768, 768, 1280]

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--out", str(tmp_path / "x"), "--n", "8", "--frobnicate", "1")
        assert exc.value.code == 2


class TestPretrain:
    def test_outputs_present(self, pretrained):
        for name in ("final.ckpt", "run.log.jsonl", "run.timing.jsonl",
                     "resolved-config.json", "epoch-0000.ckpt", "epoch-0001.ckpt"):
            assert (pretrained / name).exists()

    def test_determinism_byte_identical(self, tmp_path, synth_dir):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("pretrain", "--data", str(synth_dir), "--out", str(out),
                       "--epochs", "1", "--batch-size", "16", "--shared-dim", "8",
                       "--proj-hidden", "12", "--seed", "3", "--lr", "1e-3") == 0
            outs.append(out)
        a, b = outs
        assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()
        assert (a / "run.log.jsonl").read_bytes() == (b / "run.log.jsonl").read_bytes()
        assert (a / "resolved-config.json").read_bytes() == (b / "resolved-config.json").read_bytes()

    def test_epochs_zero_checkpoint_is_initialization(self, tmp_path, synth_dir):
        out = tmp_path / "zero"
        assert run("pretrain", "--data", str(synth_dir), "--out", str(out),
                   "--epochs", "0", "--batch-size", "16", "--shared-dim", "8",
                   "--proj-hidden", "12", "--seed", "7") == 0
        from gramalign.heads import build_model, cast_params, named_tensors
        from gramalign.trainer import load_model

        loaded, cfg, _ = load_model(out / "final.ckpt")
        fresh = build_model({m: (16 if m is Modality.PROTEIN else 12) for m in MODALITY_ORDER},
                            8, 12, cfg.ic50_hidden, 7)
        for m in MODALITY_ORDER:
            cast_params(fresh.projectors[m].params, np.float32)
        cast_params(fresh.ic50_head.params, np.float32)
        for (_, ta), (_, tb) in zip(named_tensors(loaded), named_tensors(fresh)):
            np.testing.assert_array_equal(ta, tb)

    def test_flag_overrides_config_file(self, tmp_path, synth_dir):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 5, "batch_size": 16, "shared_dim": 8,
                                        "proj_hidden": 12, "lr": 1e-3}))
        out = tmp_path / "o"
        assert run("pretrain", "--data", str(synth_dir), "--out", str(out),
                   "--config", str(cfg_file), "--epochs", "1", "--seed", "2") == 0
        echoed = json.loads((out / "resolved-config.json").read_text())
        assert echoed["config"]["epochs"] == 1  # flag beats file
        assert echoed["config"]["batch_size"] == 16

    def test_defaults_echoed_without_config(self, tmp_path, synth_dir):
        out = tmp_path / "defaults"
        # defaults imply batch 1280 > dataset, so pass batch/dims but leave the rest
        assert run("pretrain", "--data", str(synth_dir), "--out", str(out),
                   "--epochs", "0", "--batch-size", "16", "--shared-dim", "8",
                   "--proj-hidden", "12") == 0
        cfg = json.loads((out / "resolved-config.json").read_text())["config"]
        assert cfg["tau"] == 0.07
        assert cfg["lr"] == 1e-4
        assert cfg["label_smoothing"] == 0.1
        assert cfg["scheduler"] == {"p_drop": 0.8, "history_len": 5, "decay": 0.9,
                                    "sigma_multiplier": 1.5}

    def test_non_finite_loss_exit_code(self, monkeypatch, tmp_path, synth_dir):
        from gramalign import cli
        from gramalign.errors import NonFiniteLoss

        def explode(*args, **kwargs):
            raise NonFiniteLoss("volume loss is nan")

        monkeypatch.setattr(cli, "train", explode)
        assert run("pretrain", "--data", str(synth_dir), "--out", str(tmp_path / "x"),
                   "--epochs", "1", "--batch-size", "16") == 4


BAD_CONFIGS = [
    (["--batch-size", "1"], "batch_size"),
    (["--lr", "0"], "lr"),
    (["--epochs", "-1"], "epochs"),
    (["--tau", "0"], "tau"),
    (["--p-drop", "2"], "p_drop"),
    (["--seed", "-1"], "seed"),
    (["--shared-dim", "2"], "shared_dim"),
    ({"nonsense": 1}, "unknown config keys"),
    ({"lr": "fast"}, "bad config"),
    ({"scheduler": {"decay": 1.5}}, "decay"),
    ("{not json", "bad config"),
]


@pytest.mark.parametrize(
    "flags, message",
    BAD_CONFIGS,
    ids=["batch-size", "lr", "epochs", "tau", "p-drop", "seed", "shared-dim", "unknown-key",
         "mistyped-value", "scheduler-decay", "malformed-json"],
)
def test_bad_config_exits_2_with_one_line(tmp_path, flags, message):
    """Out-of-range values are flag errors: exit 2, one stderr line, no traceback."""
    if not isinstance(flags, list):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(flags if isinstance(flags, str) else json.dumps(flags))
        flags = ["--config", str(cfg)]
    src = str(Path(gramalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gramalign.cli", "pretrain", "--data", str(tmp_path / "none"),
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert message in proc.stderr
    assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_quick_mode_passes(self, capsys):
        assert run("gradcheck", "--seed", "1", "--trials", "1") == 0
        out = capsys.readouterr().out
        assert "gram_volume_grad" in out and "PASS" in out

    def test_sabotage_negative_control(self, monkeypatch):
        monkeypatch.setenv("GRAMALIGN_GRADCHECK_SABOTAGE", "1")
        assert run("gradcheck", "--seed", "1", "--trials", "1") == 5


class TestRetrieveDtiExport:
    def test_retrieve_outputs(self, tmp_path, pretrained, synth_dir):
        out = tmp_path / "ret"
        assert run("retrieve", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(synth_dir), "--out", str(out), "--csv") == 0
        rows = json.loads((out / "retrieval.json").read_text())
        assert {r["direction"] for r in rows} == {"S_TO_P", "P_TO_S"}
        for r in rows:
            assert 0.0 <= r["r1"] <= r["r10"] <= r["r100"] <= 1.0
        csv = (out / "retrieval.csv").read_text().splitlines()
        assert csv[0] == "direction,r1,r10,r100"
        assert len(csv) == 3

    def test_dimension_mismatch_exit_code(self, tmp_path, pretrained):
        other = tmp_path / "wrongdims"
        assert run("synth", "--out", str(other), "--n", "8", "--dims", "6,6,6,6",
                   "--seed", "1") == 0
        assert run("retrieve", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(other), "--out", str(tmp_path / "r")) == 6

    def test_dti_split_records(self, tmp_path, pretrained, synth_dir):
        out = tmp_path / "dti"
        assert run("dti", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(synth_dir), "--out", str(out), "--split", "drug-cold",
                   "--folds", "3", "--epochs", "3", "--csv") == 0
        rows = json.loads((out / "metrics.json").read_text())
        assert len(rows) == 3
        for r in rows:
            assert r["split"] == "drug-cold"
            assert set(r) >= {"dataset", "split", "fold", "auroc", "auprc",
                              "sensitivity", "f1", "accuracy"}
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "dataset,split,fold,auroc,auprc,sensitivity,f1,accuracy"

    def test_export_round_trips_as_gemb(self, tmp_path, pretrained, synth_dir):
        out = tmp_path / "exp"
        assert run("export", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(synth_dir), "--out", str(out)) == 0
        for m in MODALITY_ORDER:
            table = load_embedding_table(out / f"projected.{m.short}.gemb", m)
            assert table.dim == 8
            norms = np.linalg.norm(table.rows.astype(np.float64), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_resume_matches_uninterrupted(self, tmp_path, synth_dir):
        full, half, resumed = tmp_path / "full", tmp_path / "half", tmp_path / "resumed"
        base = ["--data", str(synth_dir), "--batch-size", "16", "--shared-dim", "8",
                "--proj-hidden", "12", "--seed", "11", "--lr", "1e-3"]
        assert run("pretrain", *base, "--out", str(full), "--epochs", "4") == 0
        assert run("pretrain", *base, "--out", str(half), "--epochs", "2") == 0
        assert run("pretrain", *base, "--out", str(resumed), "--epochs", "4",
                   "--resume", str(half / "epoch-0001.ckpt")) == 0
        assert (full / "final.ckpt").read_bytes() == (resumed / "final.ckpt").read_bytes()
