"""``tools/walkthrough.py``'s ``run``, in process, against the committed digests of its 116 files.

``tests/golden/walkthrough.sha256`` is a copy of the ``walkthrough.sha256``
the tool writes into its OUT. Its ``#`` header names the environment it was
taken in. A DYNAMIC_ARCH OpenBLAS picks its kernels by CPU, so the bits are
not portable: in another environment the test skips. A change that alters
output bytes on purpose regenerates the file with REGENERATE.
"""

import os
from pathlib import Path

import pytest
import walkthrough

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "walkthrough.sha256"
REGENERATE = ("python tools/walkthrough.py --src src OUT, then copy OUT/walkthrough.sha256 "
              "to tests/golden/walkthrough.sha256")


def parse(path):
    """(header lines, {file: sha256}) of a digest file."""
    lines = path.read_text().splitlines()
    pairs = (line.split("  ", 1) for line in lines if not line.startswith("#"))
    return [line for line in lines if line.startswith("#")], {file: sha for sha, file in pairs}


def test_walkthrough_bytes_match_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "140")  # the run wraps --help at 80 whatever the terminal
    produced = walkthrough.run(tmp_path / "walkthrough")
    assert os.environ["COLUMNS"] == "140"
    env, now = parse(produced)
    golden_env, golden = parse(GOLDEN)
    if env != golden_env:
        pytest.skip(f"{GOLDEN.name} was taken in {golden_env}, this is {env}; to pin this "
                    f"environment's bytes, run {REGENERATE}")
    differ = sorted(p for p in golden.keys() & now.keys() if golden[p] != now[p])
    missing, extra = sorted(golden.keys() - now.keys()), sorted(now.keys() - golden.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}\nmissing: {missing}\nextra: {extra}\n"
        f"a change to output bytes on purpose runs {REGENERATE} and states the drift "
        f"(tools/logdrift.py); this tree's digests are in {produced}")
