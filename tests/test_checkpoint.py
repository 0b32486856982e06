"""GCKPT1 format tests."""

import numpy as np
import pytest

from gramalign import cli
from gramalign.checkpoint import load_checkpoint, save_checkpoint
from gramalign.data import EmbeddingTable, synth_quadruplets, write_embedding_table, write_manifest
from gramalign.errors import BadMagic, TruncatedFile
from gramalign.modality import Modality
from gramalign.trainer import write_jsonl


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "proj.smiles.L0.w": rng.standard_normal((4, 6)).astype(np.float32),
        "proj.smiles.L0.b": rng.standard_normal(6).astype(np.float32),
        "ic50.L1.w": rng.standard_normal((3, 2)).astype(np.float32),
    }
    config = {"train_config": {"lr": 1e-4}, "epochs_done": 3}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tensors, config)
    back, cfg = load_checkpoint(path)
    assert cfg == config
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        stored = back[name].reshape(arr.shape) if arr.ndim == 1 else back[name]
        assert stored.tobytes() == arr.astype("<f4").tobytes()


def test_vectors_stored_as_row(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"b": np.arange(5, dtype=np.float32)}, {})
    back, _ = load_checkpoint(path)
    assert back["b"].shape == (1, 5)


def test_float64_payload_quantized_to_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    value = np.array([[1.0 + 1e-12]])
    save_checkpoint(path, {"x": value}, {})
    back, _ = load_checkpoint(path)
    assert back["x"].dtype == np.float32
    assert back["x"][0, 0] == np.float32(value[0, 0])


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.ones((4, 4), dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def test_missing_terminator(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"GCKPT1\n" + b'{"version":1}')
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def test_deterministic_bytes(tmp_path):
    tensors = {"a": np.ones((2, 2), dtype=np.float32), "b": np.zeros(3, dtype=np.float32)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tensors, {"seed": 1})
    save_checkpoint(p2, tensors, {"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def _disk_full(fail_at):
    """An ``open`` whose write number ``fail_at``, counted over all the files it
    opens, fails half-way, as on a full disk."""
    writes = 0

    class DiskFullFile:
        def __init__(self, path, mode):
            self._fh = open(path, mode)

        def write(self, data):
            nonlocal writes
            writes += 1
            if writes == fail_at:
                self._fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")
            return self._fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    return DiskFullFile


def _checkpoint(directory, version):
    x = np.ones((4, 4), dtype=np.float32) if version == 1 else np.zeros((64, 64), dtype=np.float32)
    save_checkpoint(directory / "epoch-0000.ckpt", {"x": x}, {"epochs_done": version})


def _gemb(directory, version):
    rows = np.full((4 * version, 3), version, dtype=np.float32)
    table = EmbeddingTable(Modality.SMILES, [f"s{i}" for i in range(len(rows))], rows)
    write_embedding_table(table, directory / "smiles.gemb")


def _manifest(directory, version):
    tables, quads = synth_quadruplets(4 * version, (2, 2, 2, 2), 0.0, seed=0)
    write_manifest(quads, tables, directory / "manifest.tsv")


# writer -> (the file it writes, how to write version 1 or 2 of it into a directory,
#            the write, counted over all files, that fails)
WRITERS = {
    "checkpoint": ("epoch-0000.ckpt", _checkpoint, 2),  # the header goes first
    "gemb1": ("smiles.gemb", _gemb, 2),  # the header goes first, then the rows
    "manifest": ("manifest.tsv", _manifest, 1),
    "jsonl": ("run.log.jsonl", lambda d, v: write_jsonl(d / "run.log.jsonl", [{"v": v}] * v), 1),
    "json": ("resolved-config.json",
             lambda d, v: cli._write_json(d / "resolved-config.json", {"v": v}), 1),
    # the report's JSON goes first, then its CSV
    "csv": ("metrics.csv", lambda d, v: cli._write_report(d, "metrics", [{"v": v}] * v, True), 2),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_leaves_old_file_intact(tmp_path, monkeypatch, writer):
    from gramalign import checkpoint

    name, write, fail_at = WRITERS[writer]
    path = tmp_path / name
    write(tmp_path, 1)
    before = path.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(checkpoint, "open", _disk_full(fail_at), raising=False)
    with pytest.raises(OSError):
        write(tmp_path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temporary file left
    if writer == "checkpoint":
        tensors, config = load_checkpoint(path)
        assert config == {"epochs_done": 1}
