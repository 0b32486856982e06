"""GCKPT1 format tests."""

import numpy as np
import pytest

from gramalign.checkpoint import load_checkpoint, save_checkpoint
from gramalign.errors import BadMagic, TruncatedFile


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


class _DiskFullFile:
    """A binary file whose second write fails half-way, as on a full disk."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            self._fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_failed_write_leaves_old_file_intact(tmp_path, monkeypatch):
    from gramalign import checkpoint

    path = tmp_path / "epoch-0000.ckpt"
    save_checkpoint(path, {"x": np.ones((4, 4), dtype=np.float32)}, {"epochs_done": 1})
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", _DiskFullFile, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, {"x": np.zeros((64, 64), dtype=np.float32)}, {"epochs_done": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left
    tensors, config = load_checkpoint(path)
    assert config == {"epochs_done": 1}
