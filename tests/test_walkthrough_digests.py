"""The desk half of ``tools/walkthrough.py``, run in process, against committed SHA-256 digests.

``tests/golden/walkthrough-desk.sha256`` holds one ``sha256  path`` line per
file the walkthrough's desk steps write, the path relative to its OUT, with
``run.timing.jsonl`` left out. Its ``#`` header names the environment it was
taken in. A DYNAMIC_ARCH OpenBLAS picks its kernels by CPU, so the bits are
not portable: in another environment the test skips. Either way it writes the
digest file this tree produces to its tmp dir and prints that path; a change
that alters output bytes on purpose copies that file over the golden one.
"""

import ctypes
import glob
import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from gramalign import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "walkthrough-desk.sha256"
TITLE = "# sha256 of each file tools/walkthrough.py's desk steps write, run.timing.jsonl left out"


def _walkthrough():
    path = ROOT / "tools" / "walkthrough.py"
    spec = importlib.util.spec_from_file_location("walkthrough", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


walkthrough = _walkthrough()


def blas_config():
    """The config string of the OpenBLAS bundled with numpy, or "unknown" where none is found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_config", "scipy_openblas_get_config64_"):
            if hasattr(handle, name):
                get = getattr(handle, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"


def environment():
    """The ``# key value`` header lines that name this environment."""
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# scipy {scipy.__version__}", f"# blas {blas_config()}"]


def parse(text):
    """(header lines naming the environment, {path: sha256}) of a digest file."""
    env = [line for line in text.splitlines() if line.startswith("# ") and line != TITLE]
    pairs = (line.split("  ", 1) for line in text.splitlines() if line and line[0] != "#")
    return env, {path: digest for digest, path in pairs}


def test_desk_walkthrough_bytes_match_the_committed_digests(tmp_path):
    out = tmp_path / "walkthrough"
    for name, argv in walkthrough.desk_steps(out):
        if name == "m2m-retrieve":  # as the walkthrough's main does
            walkthrough.many_to_many(out / "synth", out / "m2m")
        assert cli.main([str(a) for a in argv]) == 0, name
    now = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.timing.jsonl"}
    produced = tmp_path / GOLDEN.name
    produced.write_text("\n".join([TITLE, *environment(),
                                   *(f"{digest}  {path}" for path, digest in now.items())]) + "\n")
    print(f"this tree's digests: {produced}")

    env, golden = parse(GOLDEN.read_text())
    if env != environment():
        pytest.skip(f"{GOLDEN.name} was taken in {env}, this is {environment()}; to pin this "
                    f"environment's bytes, copy {produced} over {GOLDEN}")
    differ = sorted(p for p in golden.keys() & now.keys() if golden[p] != now[p])
    missing, extra = sorted(golden.keys() - now.keys()), sorted(now.keys() - golden.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}\nmissing: {missing}\nextra: {extra}\n"
        f"this tree's digests are in {produced}; a change to output bytes on purpose copies "
        f"it over {GOLDEN} and states the drift (tools/logdrift.py)")
