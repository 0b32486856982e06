"""GCKPT1 checkpoint format: bit-exact float32 tensor archive with JSON header.

Layout: ASCII line "GCKPT1\\n", then a UTF-8 JSON object
{"version", "config", "tensors": {name: [offset, rows, cols]}, "crc32"}
terminated by "\\n\\0", then concatenated 32-bit little-endian float payloads
in directory order. Offsets are bytes from the start of the payload section:
each is the sum of the payload sizes before it, and the last payload ends the
file. "crc32" is zlib's CRC-32 of the payload section; a header without it
is refused, so no flipped header bit can switch the check off. "version"
must be the int VERSION.
Vectors are stored as (1, n). Every float must be finite. A loaded file is one
buffer: ``read_file`` and ``f4_blocks`` read GCKPT1 and GEMB1 as views of it.
"""

import json
import os
import shutil
import zlib
from pathlib import Path

import numpy as np

from .errors import BadMagic, FormatError, NonFiniteValue, TruncatedFile

MAGIC = b"GCKPT1\n"
TERMINATOR = b"\n\x00"
VERSION = 1


def _via_temporary(path, fill) -> None:
    """Create the file ``path`` as ``fill(tmp)`` creates ``tmp`` beside it, then rename it.

    The directory of ``path`` is created first. A failure or a killed process
    leaves either the old file or the new one, never a torn one. (Not
    fsynced: durability is the filesystem's.)
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fill(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomically(path, chunks) -> None:
    """Write the bytes-like ``chunks`` in turn as the file ``path``, creating its directory."""
    def fill(tmp):
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    _via_temporary(path, fill)


def link_atomically(src, path) -> None:
    """Make ``path`` a hard link to the file ``src``, or a copy of it where links fail."""
    def fill(tmp):
        try:
            os.link(src, tmp)
        except OSError:  # a filesystem without hard links, or one at its link limit
            shutil.copyfile(src, tmp)
    _via_temporary(path, fill)


def save_checkpoint(path, tensors: dict, config: dict) -> None:
    """Write named float32 tensors plus a config echo, atomically.

    Insertion order of ``tensors`` defines the directory and payload order,
    so identical inputs produce byte-identical files.
    """
    directory = {}
    payloads = []
    offset = 0
    crc = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 1-d or 2-d, got shape {arr.shape}")
        directory[name] = [offset, int(arr.shape[0]), int(arr.shape[1])]
        payloads.append(np.ascontiguousarray(arr))  # written as a buffer, never copied to bytes
        crc = zlib.crc32(payloads[-1], crc)
        offset += arr.nbytes
    header = {"version": VERSION, "config": config, "tensors": directory, "crc32": crc}
    blob = MAGIC + json.dumps(header, separators=(",", ":")).encode("utf-8") + TERMINATOR
    write_atomically(path, [blob, *payloads])


def read_file(path, magic: bytes) -> bytearray:
    """The whole file ``path`` as one writable buffer, which must start with ``magic``."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(blob) < len(blob):
            raise TruncatedFile(f"file shrank below its {len(blob)} bytes while being read")
    if not blob.startswith(magic):
        raise BadMagic(f"bad magic at byte 0: {bytes(blob[: len(magic)])!r}")
    return blob


def first_non_finite(floats) -> int:
    """Flat index of the first NaN or Inf in ``floats``, or -1; a mask is built only if one exists."""
    # NaN propagates through min and max and Inf reaches one of them
    if np.isfinite(floats.min(initial=0)) and np.isfinite(floats.max(initial=0)):
        return -1
    return int(np.argmin(np.isfinite(floats)))


def f4_blocks(blob, offset: int, shapes: list) -> list:
    """Views of the consecutive ``(what, rows, cols)`` float32 blocks from byte ``offset``.

    Each block must fit in ``blob`` (else TruncatedFile) and be finite (else NonFiniteValue
    naming it, the byte offset, row and column). Finiteness is one pass over all blocks: a
    pass per block made loading a run checkpoint's 132 small tensors twice as slow.
    """
    bounds = [0]  # index of each block's first float
    for what, rows, cols in shapes:
        start = offset + 4 * bounds[-1]
        if len(blob) < start + 4 * rows * cols:
            raise TruncatedFile(f"{what} needs {4 * rows * cols} bytes at offset {start}, "
                                f"file has {len(blob) - start}")
        bounds.append(bounds[-1] + rows * cols)
    floats = np.frombuffer(blob, dtype="<f4", count=bounds[-1], offset=offset)
    k = first_non_finite(floats)
    if k >= 0:
        i = int(np.searchsorted(bounds, k, side="right")) - 1
        what, _, cols = shapes[i]
        row, col = divmod(k - bounds[i], cols)
        raise NonFiniteValue(f"{what}: non-finite float at byte offset {offset + 4 * k} "
                             f"(row {row}, col {col})")
    return [floats[a:b].reshape(rows, cols)
            for a, b, (_, rows, cols) in zip(bounds, bounds[1:], shapes)]


def load_checkpoint(path):
    """Read back (tensors, config): bit-exact float32 views of one buffer holding the file."""
    blob = read_file(path, MAGIC)
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
    version = header.get("version")
    if type(version) is not int or version != VERSION:  # JSON's true equals 1
        raise FormatError(f"{path}: header version is {version!r}, not {VERSION}")
    base = end + len(TERMINATOR)
    shapes = []
    offset = 0  # payloads are packed in directory order
    for name, entry in directory:
        if not (isinstance(entry, list) and len(entry) == 3 and entry[0] == offset
                and all(type(v) is int and v >= 0 for v in entry)):
            raise FormatError(f"tensor {name!r}: directory entry {entry!r} is not "
                              f"[{offset}, rows, cols] with non-negative int rows and cols")
        shapes.append((f"tensor {name!r}", entry[1], entry[2]))
        offset += 4 * entry[1] * entry[2]
    if len(blob) > base + offset:
        raise FormatError(f"{len(blob) - base - offset} trailing bytes after the last payload")
    tensors = dict(zip(header["tensors"], f4_blocks(blob, base, shapes)))
    if "crc32" not in header:
        raise FormatError(f"{path}: header has no crc32, so its payload cannot be checked")
    crc = zlib.crc32(memoryview(blob)[base:])
    if crc != header["crc32"]:
        raise FormatError(f"{path}: payload CRC-32 is {crc}, its header says {header['crc32']!r}")
    return tensors, config
