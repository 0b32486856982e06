"""GCKPT1 checkpoint format: bit-exact float32 tensor archive with JSON header.

Layout: ASCII line "GCKPT1\\n", then a UTF-8 JSON object
{"version", "config", "tensors": {name: [offset, rows, cols]}} terminated by
"\\n\\0", then concatenated 32-bit little-endian float payloads in directory
order. Offsets are bytes from the start of the payload section. Vectors are
stored as (1, n).
"""

import json
import os
from pathlib import Path

import numpy as np

from .errors import BadMagic, MissingTensor, TruncatedFile

MAGIC = b"GCKPT1\n"
TERMINATOR = b"\n\x00"
VERSION = 1


def save_checkpoint(path, tensors: dict, config: dict) -> None:
    """Write named float32 tensors plus a config echo, atomically.

    Insertion order of ``tensors`` defines the directory and payload order,
    so identical inputs produce byte-identical files. The bytes go to a
    temporary file in the target directory that then replaces ``path``, so a
    failure or a killed process mid-write leaves either the old file or the
    new one, never a torn one. (The data is not fsynced: durability across a
    power loss is left to the filesystem.)
    """
    directory = {}
    payloads = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 1-d or 2-d, got shape {arr.shape}")
        directory[name] = [offset, int(arr.shape[0]), int(arr.shape[1])]
        raw = np.ascontiguousarray(arr).tobytes()
        payloads.append(raw)
        offset += len(raw)
    header = {"version": VERSION, "config": config, "tensors": directory}
    blob = MAGIC + json.dumps(header, separators=(",", ":")).encode("utf-8") + TERMINATOR
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            for raw in payloads:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Read back (tensors, config); float32 payloads round-trip bit-exactly."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise BadMagic(f"bad magic at byte 0: {blob[:7]!r}")
    end = blob.find(TERMINATOR, len(MAGIC))
    if end < 0:
        raise TruncatedFile("header terminator not found")
    header = json.loads(blob[len(MAGIC) : end].decode("utf-8"))
    base = end + len(TERMINATOR)
    tensors = {}
    for name, (offset, rows, cols) in header["tensors"].items():
        start = base + offset
        count = rows * cols
        if len(blob) < start + 4 * count:
            raise TruncatedFile(
                f"tensor {name!r} needs {4 * count} bytes at offset {start}, "
                f"file has {len(blob) - start}"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(rows, cols)
        tensors[name] = arr.copy()
    return tensors, header["config"]


def require(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise MissingTensor(f"checkpoint is missing tensor {name!r}")
    return tensors[name]
