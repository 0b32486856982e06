"""End-to-end CLI tests: flags, exit codes, determinism, file outputs."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import walkthrough

import gramalign
from gramalign import gradcheck
from gramalign.checkpoint import load_checkpoint, save_checkpoint
from gramalign.cli import build_parser, main
from gramalign.data import load_embedding_table
from gramalign.evaluation import RECALL_KS
from gramalign.modality import MODALITY_ORDER, Modality


def run(*argv):
    return main(list(argv))


def run_failing(capfd, *argv):
    """``main`` on ``argv`` in process: its exit code, or argparse's, and what it wrote to stderr.

    stderr is read through ``capfd``, so writes to fd 2 count too. Any
    exception other than ``SystemExit`` propagates and fails the test, as a
    traceback printed by ``python -m gramalign.cli`` would.
    """
    capfd.readouterr()  # only this call's writes count
    try:
        code = main([str(a) for a in argv])
    except SystemExit as e:
        code = e.code
    return code, capfd.readouterr().err


def dir_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert run("synth", "--out", str(out), "--n", "48", "--dims", "12,12,12,16",
               "--noise", "0.05", "--seed", "5") == 0
    return out


PRETRAINED_FLAGS = ["--epochs", "2", "--batch-size", "16", "--shared-dim", "8",
                    "--proj-hidden", "12", "--seed", "7", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("runs") / "pre"
    assert run("pretrain", "--data", str(synth_dir), "--out", str(out), *PRETRAINED_FLAGS) == 0
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

    @pytest.mark.parametrize("dims", ["4,a,4,4", "4,4,4", "1,4,4,4", "-1,4,4,4"])
    def test_bad_dims_exits_2_with_one_line(self, tmp_path, capsys, dims):
        out = tmp_path / "x"
        assert run("synth", "--out", str(out), "--n", "8", f"--dims={dims}") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"--dims needs 4 comma-separated integers >= 2, got {dims!r}"
        ]
        assert not out.exists()

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

    def test_non_finite_volume_loss_writes_no_checkpoint_for_its_epoch(
            self, monkeypatch, capsys, tmp_path, synth_dir):
        """A NaN volume loss in epoch 1's first step exits 4 with epoch 0's checkpoint the last.

        That step has updated the IC50 head before its volume loss, so a
        checkpoint of that epoch would hold a half-applied step.
        """
        from gramalign import trainer

        real, calls = trainer.volume_contrastive, []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 4:  # 48 quadruplets at B=16: three steps per epoch
                out.value = float("nan")
            return out

        monkeypatch.setattr(trainer, "volume_contrastive", poisoned)
        out = tmp_path / "x"
        assert run("pretrain", "--data", str(synth_dir), "--out", str(out),
                   "--epochs", "2", "--batch-size", "16") == 4
        assert "step 3: volume loss is nan" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["epoch-0000.ckpt"]


BAD_CONFIGS = [
    (["--batch-size", "1"], "batch_size"),
    (["--lr", "0"], "lr"),
    (["--epochs", "-1"], "epochs"),
    (["--tau", "0"], "tau"),
    (["--p-drop", "2"], "p_drop"),
    (["--seed", "-1"], "seed"),
    (["--shared-dim", "2"], "shared_dim"),
    (["--shared-dim", "3"], "shared_dim"),
    ({"nonsense": 1}, "unknown config keys"),
    ({"lr": "fast"}, "bad config"),
    ({"scheduler": {"decay": 1.5}}, "decay"),
    ("{not json", "bad config"),
    (["--proj-hidden", "0"], "proj_hidden"),
    ({"ic50_hidden": 0}, "ic50_hidden"),
    (["--label-smoothing", "1"], "label_smoothing"),
    (["--lambda-vol", "-1"], "lambda_vol"),
    (["--lambda-bi", "-1"], "lambda_bi"),
    (["--lambda-ic50", "nan"], "lambda_ic50"),
    ({"dti_epochs": -1}, "dti_epochs"),
    ({"dti_lr": 0}, "dti_lr"),
    # the pretrained run's own flags except --lr
    (["--resume", "CHECKPOINT", *PRETRAINED_FLAGS[:-2], "--lr", "5e-4"],
     "resume checkpoint was produced with a different config: lr"),
    (["dti", "--epochs", "-1"], "dti_epochs"),
    (["dti", "--seed", "-1"], "seed"),
    (["--tau", "nan"], "tau"),
    (["--resume", "CHECKPOINT", *PRETRAINED_FLAGS, "--epochs", "1"],
     "resume checkpoint has epochs_done=1; epochs=1 leaves nothing to train"),
    (["dti", "--folds", "1"], "folds"),
    (["synth", "--n", "abc"], "gramalign synth: error: argument --n: invalid int value: 'abc'"),
    (["synth", "--n", "8", "--dims", "-1,4,4,4"], "argument --dims: expected one argument"),
    (["frobnicate"], "gramalign: error: argument command: invalid choice: 'frobnicate'"),
    (["synth"], "the following arguments are required: --n"),
    (["--lr", "inf"], "lr must be finite, got inf"),
    (["--tau", "inf"], "tau must be finite, got inf"),
    (["--lambda-bi", "inf"], "lambda_bi must be finite, got inf"),
    ({"dti_lr": float("inf")}, "dti_lr must be finite, got inf"),
    ({"scheduler": {"sigma_multiplier": float("inf")}}, "sigma_multiplier must be finite, got inf"),
    (["synth", "--n", "8", "--seed", "-1"], "seed=-1"),
    (["synth", "--n", "8", "--noise", "nan"], "noise=nan"),
    (["synth", "--n", "8", "--noise", "inf"], "noise=inf"),
    ({"batch_size": 64.5}, "batch_size must be an int, got 64.5"),
    ({"epochs": True}, "epochs must be an int, got True"),
    ({"seed": 2.5}, "seed must be an int, got 2.5"),
    ({"scheduler": {"history_len": 2.5}}, "history_len must be an int, got 2.5"),
    ({"lambda_vol": True}, "lambda_vol must be a float, got True"),
    ({"lr": 10**400}, "lr must be finite"),
    ("[1]", "bad config: config must be a JSON object"),
    ('"x"', "bad config: config must be a JSON object"),
    ({"scheduler": 3}, "bad config: scheduler must be a JSON object"),
    (["--res", "CHECKPOINT"], "unrecognized arguments: --res"),
    (["--batch", "64"], "unrecognized arguments: --batch 64"),
]


@pytest.mark.parametrize(
    "flags, message",
    BAD_CONFIGS,
    ids=["batch-size", "lr", "epochs", "tau", "p-drop", "seed", "shared-dim", "shared-dim-3",
         "unknown-key", "mistyped-value", "scheduler-decay", "malformed-json", "proj-hidden",
         "ic50-hidden",
         "label-smoothing", "lambda-vol", "lambda-bi", "lambda-ic50", "dti-epochs", "dti-lr",
         "resume-config-mismatch", "dti-epochs-flag", "dti-seed-flag", "tau-nan",
         "resume-nothing-to-train", "dti-folds-flag", "synth-n-not-int", "synth-dims-dash",
         "unknown-command", "synth-missing-n", "lr-inf", "tau-inf", "lambda-bi-inf", "dti-lr-inf",
         "scheduler-sigma-inf", "synth-seed-negative", "synth-noise-nan", "synth-noise-inf",
         "batch-size-float", "epochs-bool", "seed-float", "scheduler-history-len-float",
         "lambda-vol-bool", "lr-int-beyond-float", "config-list", "config-string",
         "scheduler-not-object", "resume-abbreviated", "batch-size-abbreviated"],
)
def test_bad_config_exits_2_with_one_line(tmp_path, capfd, synth_dir, pretrained, flags, message):
    """Out-of-range values are flag errors: exit 2, one stderr line, no traceback.

    Rows starting with "dti" run that command on the pretrained checkpoint,
    rows starting with another word run that command with only ``--out``, and
    the others run pretrain, with "CHECKPOINT" standing for its first epoch.
    """
    if not isinstance(flags, list):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(flags if isinstance(flags, str) else json.dumps(flags))
        flags = ["--config", str(cfg)]
    flags = [pretrained / "epoch-0000.ckpt" if f == "CHECKPOINT" else f for f in flags]
    out = tmp_path / "out"
    if flags[0] == "dti":
        argv = ["dti", "--checkpoint", pretrained / "final.ckpt", "--data", synth_dir,
                "--out", out, *flags[1:]]
    elif not flags[0].startswith("--"):
        argv = [flags[0], "--out", out, *flags[1:]]
    else:
        argv = ["pretrain", "--data", synth_dir, "--out", out, *flags]
    code, err = run_failing(capfd, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert message in err
    assert not out.exists()


def test_module_entry_point_exits_with_mains_code(tmp_path):
    """``python -m gramalign.cli`` exits with ``main``'s code: 2 for a flag, 1 for a bad file."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b'GCKPT1\n{"version":1,\n\x00')
    out = tmp_path / "out"
    src = str(Path(gramalign.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, code, message in [
        (["synth", "--out", out, "--n", "3"], 2, "--n must be >= 4"),
        (["retrieve", "--checkpoint", bad, "--data", tmp_path, "--out", out], 1,
         "error: header from byte 7 is not UTF-8 JSON"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "gramalign.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)
    assert not out.exists()


def test_resume_with_wrong_size_moment_exits_1_with_one_line(tmp_path, capfd, synth_dir,
                                                            pretrained):
    """A restored Adam moment is size-checked like a parameter: a data error, not a crash."""
    tensors, config = load_checkpoint(pretrained / "epoch-0000.ckpt")
    name = "adam.m.proj.text.L0.w"
    tensors[name] = tensors[name][:3]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, config)
    code, err = run_failing(capfd, "pretrain", "--data", synth_dir, "--out", tmp_path / "out",
                            "--resume", bad, *PRETRAINED_FLAGS)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: tensor '{name}': checkpoint (3, 12)")


def test_resume_on_data_of_another_width_exits_6_with_one_line(tmp_path, capfd, pretrained):
    """Resuming on tables the checkpoint's projectors do not fit fails like ``retrieve`` does."""
    wide = tmp_path / "wide"
    assert run("synth", "--out", str(wide), "--n", "48", "--dims", "24,12,12,16",
               "--seed", "5") == 0
    out = tmp_path / "out"
    code, err = run_failing(capfd, "pretrain", "--data", wide, "--out", out,
                            "--resume", pretrained / "epoch-0000.ckpt", *PRETRAINED_FLAGS)
    assert code == 6
    assert err.splitlines() == [
        "dimension mismatch: SMILES table dim 24 != checkpoint projector input 12"
    ]
    assert not out.exists()


def _replace_cell(line_no, column, value):
    def edit(lines):
        cells = lines[line_no - 1].split("\t")
        cells[column] = value
        lines[line_no - 1] = "\t".join(cells)
    return edit


BAD_MANIFESTS = [
    (_replace_cell(3, 4, "abc"), 1, "line 3: ic50_um 'abc' is not a number"),
    (_replace_cell(2, 0, "smiles-999999"), 1, "line 2: id 'smiles-999999' not in SMILES table"),
    (_replace_cell(1, 4, "ic50"), 1, "manifest header mismatch"),
    (_replace_cell(3, 4, "-1"), 1, "line 3: IC50 must be positive and finite, got -1.0"),
    (_replace_cell(4, 4, "0"), 1, "line 4: IC50 must be positive and finite, got 0.0"),
    (_replace_cell(5, 4, "nan"), 1, "line 5: IC50 must be positive and finite, got nan"),
]


@pytest.mark.parametrize("edit, code, message", BAD_MANIFESTS,
                         ids=["non-numeric-ic50", "unknown-id", "bad-header", "negative-ic50",
                              "zero-ic50", "nan-ic50"])
def test_bad_manifest_exits_with_one_line(tmp_path, capfd, synth_dir, edit, code, message):
    """A malformed manifest is a data error: its exit code, one stderr line naming it."""
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    lines = (data / "manifest.tsv").read_text().splitlines()
    edit(lines)
    (data / "manifest.tsv").write_text("\n".join(lines) + "\n")
    got, err = run_failing(capfd, "pretrain", "--data", data, "--out", tmp_path / "out")
    assert got == code
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def _foreign_checkpoint(tmp_path, pretrained):
    """A valid GCKPT1 file that no training run wrote."""
    path = tmp_path / "foreign.ckpt"
    save_checkpoint(path, {"x": np.ones((2, 2), dtype=np.float32)}, {"k": 1})
    return path, f"{path} is not a run checkpoint: KeyError('train_config')"


def _epochs_done_not_int(tmp_path, pretrained):
    tensors, config = load_checkpoint(pretrained / "epoch-0000.ckpt")
    path = tmp_path / "epochs-x.ckpt"
    save_checkpoint(path, tensors, {**config, "epochs_done": "x"})
    return path, f"{path} is not a run checkpoint: ValueError("


def _raw_header(header):
    def build(tmp_path, pretrained):
        path = tmp_path / "header.ckpt"
        path.write_bytes(b"GCKPT1\n" + header + b"\n\x00")
        return path, "header from byte 7 is not UTF-8 JSON holding config and tensors: "
    return build


def _retrieve(build):
    def argv(tmp_path, synth_dir, pretrained):
        path, message = build(tmp_path, pretrained)
        return ["retrieve", "--checkpoint", path, "--data", synth_dir], message
    return argv


def _resume(build):
    def argv(tmp_path, synth_dir, pretrained):
        path, message = build(tmp_path, pretrained)
        return ["pretrain", "--data", synth_dir, "--resume", path, *PRETRAINED_FLAGS], message
    return argv


def _pretrain_on_copy(edit):
    """Pretrain on a copy of the synth data whose files ``edit`` rewrites."""
    def argv(tmp_path, synth_dir, pretrained):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        return ["pretrain", "--data", data, *PRETRAINED_FLAGS], edit(data)
    return argv


def _text_id_not_utf8(data):
    path = data / "text.gemb"
    ids = load_embedding_table(path).ids
    blob = bytearray(path.read_bytes())
    offset = len(blob) - len(ids[-1].encode())
    blob[offset] = 0xFF  # the first byte of the last row's id
    path.write_bytes(bytes(blob))
    return f"row {len(ids) - 1} id is not UTF-8 at byte offset {offset}"


def _duplicate_text_id(data):
    path = data / "text.gemb"
    first, second = (i.encode() for i in load_embedding_table(path).ids[:2])
    blob = path.read_bytes()
    assert blob.count(second) == 1 and len(first) == len(second)
    path.write_bytes(blob.replace(second, first))
    return f"duplicate entity id {first.decode()!r} in rows 0 and 1"


def _manifest_not_utf8(data):
    path = data / "manifest.tsv"
    blob = path.read_bytes()
    offset = blob.index(b"\n") + 1  # the first byte of line 2
    path.write_bytes(blob[:offset] + b"\xff" + blob[offset:])
    return f"manifest is not UTF-8 at byte offset {offset}"


def _blank_line_before_bad_ic50(data):
    path = data / "manifest.tsv"
    lines = path.read_text().split("\n")
    cells = lines[2].split("\t")
    lines[2] = "\t".join(cells[:4] + ["abc"])
    path.write_text("\n".join([lines[0], "", *lines[1:]]))  # the bad cell moves to line 4
    return "line 4: ic50_um 'abc' is not a number"


def _retrieve_on_copy(edit):
    """Retrieve with the pretrained model on a copy of the synth data that ``edit`` rewrites."""
    def argv(tmp_path, synth_dir, pretrained):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        return ["retrieve", "--checkpoint", pretrained / "final.ckpt", "--data", data], edit(data)
    return argv


def _manifest_without_rows(data):
    path = data / "manifest.tsv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    return "recall needs at least one query, got 0"


def _raw_checkpoint(directory, payload_bytes, message):
    """A GCKPT1 file with a hand-written tensor directory and ``payload_bytes`` of zeros."""
    def build(tmp_path, pretrained):
        path = tmp_path / "raw.ckpt"
        header = json.dumps({"version": 1, "config": {}, "tensors": directory}).encode()
        path.write_bytes(b"GCKPT1\n" + header + b"\n\x00" + bytes(payload_bytes))
        return path, message
    return build


def _versioned(version):
    """The pretrained first-epoch checkpoint with header version ``version``, or none if None."""
    def build(tmp_path, pretrained):
        blob = (pretrained / "epoch-0000.ckpt").read_bytes()
        end = blob.index(b"\n\x00")
        header = json.loads(blob[7:end])
        del header["version"]
        if version is not None:
            header["version"] = version
        path = tmp_path / "version.ckpt"
        path.write_bytes(blob[:7] + json.dumps(header).encode() + blob[end:])
        return path, f"{path}: header version is {version!r}, not 1"
    return build


def _nan_in(name):
    """The pretrained first-epoch checkpoint, saved with a NaN as the second float of ``name``."""
    def build(tmp_path, pretrained):
        tensors, config = load_checkpoint(pretrained / "epoch-0000.ckpt")
        tensors[name].flat[1] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, tensors, config)
        blob = path.read_bytes()
        base = blob.index(b"\n\x00") + 2
        start = base + json.loads(blob[7 : base - 2])["tensors"][name][0]
        return path, f"tensor {name!r}: non-finite float at byte offset {start + 4} (row 0, col 1)"
    return build


BAD_FILES = [
    _retrieve(_foreign_checkpoint),
    _resume(_foreign_checkpoint),
    _resume(_epochs_done_not_int),
    _retrieve(_raw_header(b'{"version":1,"config":{},"tensors":{},"n\xffte":0}')),
    _retrieve(_raw_header(b'{"version":1,')),
    _retrieve(_raw_header(b'{"version":1,"config":{}}')),
    _pretrain_on_copy(_text_id_not_utf8),
    _pretrain_on_copy(_manifest_not_utf8),
    _pretrain_on_copy(_duplicate_text_id),
    _pretrain_on_copy(_blank_line_before_bad_ic50),
    _retrieve_on_copy(_manifest_without_rows),
    _retrieve(_raw_checkpoint({"x": [0, -1, 2]}, 16, "tensor 'x': directory entry [0, -1, 2] is")),
    _retrieve(_raw_checkpoint({"x": "abc"}, 0, "tensor 'x': directory entry 'abc' is")),
    _retrieve(_raw_checkpoint({"x": [0, 1]}, 4, "tensor 'x': directory entry [0, 1] is")),
    _retrieve(_raw_checkpoint({"x": [0, 1, 1], "y": [8, 1, 1]}, 12,
                              "tensor 'y': directory entry [8, 1, 1] is not [4, rows, cols]")),
    _retrieve(_raw_checkpoint({"x": [0, 1, 1]}, 8, "4 trailing bytes after the last payload")),
    _retrieve(_nan_in("proj.smiles.L0.w")),
    _resume(_nan_in("adam.v.proj.text.L0.w")),
    _retrieve(_versioned(2)),
    _retrieve(_versioned(None)),
]


@pytest.mark.parametrize("build", BAD_FILES,
                         ids=["retrieve-foreign-checkpoint", "resume-foreign-checkpoint",
                              "resume-epochs-done-not-int", "header-not-utf8", "header-not-json",
                              "header-without-tensors", "gemb-id-not-utf8", "manifest-not-utf8",
                              "gemb-duplicate-id", "manifest-blank-line-before-bad-cell",
                              "retrieve-empty-manifest", "ckpt-entry-negative",
                              "ckpt-entry-not-list", "ckpt-entry-short", "ckpt-offset-gap",
                              "ckpt-trailing-bytes", "retrieve-nan-weight", "resume-nan-moment",
                              "ckpt-version-2", "ckpt-without-version"])
def test_bad_file_exits_1_with_one_line(tmp_path, capfd, synth_dir, pretrained, build):
    """A file that is not what its flag names is a data error: exit 1, one line naming the fault."""
    argv, message = build(tmp_path, synth_dir, pretrained)
    out = tmp_path / "out"
    code, err = run_failing(capfd, *argv, "--out", out)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert not out.exists()


WALKTHROUGH = dict(walkthrough.steps(Path("out")))  # step name -> argv


@pytest.mark.parametrize("name", list(WALKTHROUGH))
def test_walkthrough_command_parses(capsys, name):
    """Each ``tools/walkthrough.py`` command is one the parser accepts; ``--help`` exits 0."""
    argv = list(map(str, WALKTHROUGH[name]))
    try:
        build_parser().parse_args(argv)
    except SystemExit as e:
        assert e.code == 0 and "--help" in argv, capsys.readouterr().err


class TestGradcheckCommand:
    def test_quick_mode_passes(self, capsys):
        assert run("gradcheck", "--seed", "1", "--trials", "1") == 0
        out = capsys.readouterr().out
        assert "gram_volume_grad" in out and "PASS" in out

    # patch point in gradcheck -> (the gradient in its output, the components that must fail)
    NEGATIVE_CONTROLS = {
        # the kernel's own gradient; volume_contrastive reaches it through losses' binding
        "pair_volume_coeffs": (lambda out, args: out, {"gram_volume_grad", "pair_volume_coeffs"}),
        "backward": (lambda out, args: out[1], {"projector", "ic50_head", "dti_head"}),
        # args[1] is the anchor, which is always active
        "volume_contrastive": (lambda out, args: out.grads[args[1]], {"volume_contrastive"}),
        "clip_bimodal": (lambda out, args: out.grads[Modality.SMILES], {"clip_bimodal"}),
        "ic50_loss": (lambda out, args: out.logit_grad, {"ic50_loss"}),
    }

    @pytest.mark.parametrize("patch_point", list(NEGATIVE_CONTROLS))
    def test_sabotage_negative_control(self, monkeypatch, capsys, patch_point):
        """A gradient off by 1.0 in one entry fails the components using it, and only those."""
        gradient_in, corrupted = self.NEGATIVE_CONTROLS[patch_point]
        real = getattr(gradcheck, patch_point)

        def sabotaged(*args, **kwargs):
            out = real(*args, **kwargs)
            gradient_in(out, args).flat[0] += 1.0
            return out

        monkeypatch.setattr(gradcheck, patch_point, sabotaged)
        assert run("gradcheck", "--seed", "1", "--trials", "1") == 5
        status = {line.split(":")[0]: line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()}
        assert status == {name: "FAIL" if name in corrupted else "PASS"
                          for name, _, _ in gradcheck.COMPONENTS}

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--seed", "-1"]],
                             ids=["trials-0", "negative-seed"])
    def test_bad_flags_exit_2_with_one_line(self, capsys, flags):
        assert run("gradcheck", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--trials must be >= 1" in captured.err

    @pytest.mark.parametrize("trials", [0, -1])
    def test_library_refuses_fewer_than_one_trial(self, trials):
        """Called directly, zero trials is an error too, not eight vacuous PASSes."""
        with pytest.raises(ValueError, match="trials must be >= 1"):
            gradcheck.run_gradcheck(trials=trials)

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        """A NaN in an analytic gradient is an infinite error, not one max() skips."""
        real = gradcheck.ic50_loss

        def nan_gradient(*args, **kwargs):
            out = real(*args, **kwargs)
            out.logit_grad.flat[0] = np.nan
            return out

        monkeypatch.setattr(gradcheck, "ic50_loss", nan_gradient)
        assert run("gradcheck", "--seed", "1", "--trials", "1") == 5
        assert "ic50_loss: max_rel_err=inf tol=1e-05 FAIL" in capsys.readouterr().out.splitlines()


class TestRetrieveDtiExport:
    def test_retrieve_outputs(self, tmp_path, pretrained, synth_dir):
        out = tmp_path / "ret"
        assert run("retrieve", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(synth_dir), "--out", str(out), "--csv") == 0
        rows = json.loads((out / "retrieval.json").read_text())
        assert {r["direction"] for r in rows} == {"S_TO_P", "P_TO_S"}
        for r in rows:
            assert 0.0 <= r["r1"] <= r["r10"] <= r["r100"] <= 1.0
        csv_lines = (out / "retrieval.csv").read_text().splitlines()
        assert csv_lines[0] == "direction,r1,r10,r100"
        assert len(csv_lines) == 3

    def test_retrieve_columns_follow_recall_ks(self, tmp_path, pretrained, synth_dir):
        out = tmp_path / "ret"
        assert run("retrieve", "--checkpoint", str(pretrained / "final.ckpt"),
                   "--data", str(synth_dir), "--out", str(out), "--csv") == 0
        columns = ["direction", *(f"r{k}" for k in RECALL_KS)]
        assert [list(r) for r in json.loads((out / "retrieval.json").read_text())] == [columns] * 2
        assert (out / "retrieval.csv").read_text().splitlines()[0].split(",") == columns

    def test_csv_cells_match_json_rows(self, tmp_path, pretrained, synth_dir):
        """Each CSV cell equals its JSON value: strings verbatim, numbers by value.

        The second dti run names its dataset with a comma, a double quote and
        a line break, which the CSV must quote to keep one cell per key.
        """
        common = ["--checkpoint", str(pretrained / "final.ckpt"), "--data", str(synth_dir), "--csv"]
        assert run("retrieve", *common, "--out", str(tmp_path / "ret")) == 0
        stems = [tmp_path / "ret" / "retrieval"]
        for name, extra in (("dti", []), ("quoted", ["--dataset-name", 'a,"b"\nc'])):
            assert run("dti", *common, "--out", str(tmp_path / name), "--folds", "2",
                       "--epochs", "1", *extra) == 0
            stems.append(tmp_path / name / "metrics")
        for stem in stems:
            rows = json.loads(stem.with_suffix(".json").read_text())
            with open(stem.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
                header, *body = csv.reader(fh)
            assert len(body) == len(rows)
            for line, row in zip(body, rows):
                cells = dict(zip(header, line, strict=True))
                assert cells.keys() == row.keys()
                for key, value in row.items():
                    cell = cells[key] if isinstance(value, str) else type(value)(cells[key])
                    assert cell == value, key

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
