"""GCKPT1 checkpoint format: bit-exact float32 tensor archive with JSON header.

Layout: ASCII line "GCKPT1\\n", then a UTF-8 JSON object
{"version", "config", "tensors": {name: [offset, rows, cols]}} terminated by
"\\n\\0", then concatenated 32-bit little-endian float payloads in directory
order. Offsets are bytes from the start of the payload section: each is the
sum of the payload sizes before it, and the last payload ends the file.
Vectors are stored as (1, n).
"""

import json
import os
from pathlib import Path

import numpy as np

from .errors import BadMagic, FormatError, TruncatedFile

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
        payloads.append(np.ascontiguousarray(arr))  # written as a buffer, never copied to bytes
        offset += arr.nbytes
    header = {"version": VERSION, "config": config, "tensors": directory}
    blob = MAGIC + json.dumps(header, separators=(",", ":")).encode("utf-8") + TERMINATOR
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            for arr in payloads:
                fh.write(arr)
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
    try:
        header = json.loads(blob[len(MAGIC) : end].decode("utf-8"))
        directory, config = header["tensors"].items(), header["config"]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(
            f"header from byte {len(MAGIC)} is not UTF-8 JSON holding config and tensors: {e}"
        ) from None
    base = end + len(TERMINATOR)
    tensors = {}
    offset = 0  # payloads are packed in directory order
    for name, entry in directory:
        if not (isinstance(entry, list) and len(entry) == 3 and entry[0] == offset
                and all(type(v) is int and v >= 0 for v in entry)):
            raise FormatError(f"tensor {name!r}: directory entry {entry!r} is not "
                              f"[{offset}, rows, cols] with non-negative int rows and cols")
        _, rows, cols = entry
        start = base + offset
        count = rows * cols
        if len(blob) < start + 4 * count:
            raise TruncatedFile(
                f"tensor {name!r} needs {4 * count} bytes at offset {start}, "
                f"file has {len(blob) - start}"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(rows, cols)
        tensors[name] = arr.copy()
        offset += 4 * count
    if len(blob) > base + offset:
        raise FormatError(f"{len(blob) - base - offset} trailing bytes after the last payload")
    return tensors, config
