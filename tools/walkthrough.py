"""Run the CLI walkthrough in process against one source tree, keep every output and its digests.

Usage: python tools/walkthrough.py --src SRC OUT

SRC, the directory holding the ``gramalign`` package (``src`` in a
checkout), goes first on ``sys.path`` before the package is imported. Each
step runs through ``gramalign.cli.main``, with ``COLUMNS=80`` so ``--help``
wraps alike on every terminal, and its stdout goes to ``stdout/<step>.txt``
with OUT replaced by a fixed token. The desk steps synthesize data, train,
resume from the tenth epoch, and run retrieve, the three dti splits and
export. ``OUT/m2m`` copies the desk tables beside a manifest whose
quadruplet i takes SMILES row i mod 64 and protein row 7i mod 48, so
entities and pairs repeat; the desk checkpoint runs retrieve and the dti
splits on it. Then come ``gradcheck``, ``pretrain --help`` and a
paper-width run in ``OUT/paper`` (dims 768/768/768/1280, shared 512,
hidden 768, two B=256 steps) with retrieve, a warm dti and export, whose
GEMMs thread and whose projector tasks run on two threads. Its checkpoints
and tables are replaced by ``<name>.sha256`` files holding their SHA-256.

The wall-clock ``run.timing.jsonl`` files are deleted, which leaves 116
files. ``OUT/walkthrough.sha256`` holds one ``sha256  path`` line per file
under a ``#`` header naming the Python, numpy and scipy versions and the
OpenBLAS build; ``tests/golden/walkthrough.sha256`` is its committed copy.
"""

import argparse
import contextlib
import hashlib
import io
import os
import platform
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

OUT_TOKEN = "<OUT>"
DIGESTS = "walkthrough.sha256"
TITLE = "# sha256 of each file tools/walkthrough.py writes, run.timing.jsonl left out"
TRAIN_FLAGS = ["--epochs", "20", "--batch-size", "64", "--shared-dim", "16",
               "--proj-hidden", "32", "--lr", "1e-3", "--seed", "3"]


def many_to_many(data, dest):
    """Copy the tables in ``data`` to ``dest`` beside a manifest that reuses entities."""
    dest.mkdir()
    for table in data.glob("*.gemb"):
        shutil.copyfile(table, dest / table.name)
    header, *rows = (data / "manifest.tsv").read_text().splitlines()
    cells = [row.split("\t") for row in rows]
    lines = [header]
    for i, (_, text, hta, _, ic50) in enumerate(cells):
        smiles, protein = cells[i % 64][0], cells[7 * i % 48][3]
        lines.append("\t".join([smiles, text, hta, protein, ic50]))
    (dest / "manifest.tsv").write_text("\n".join(lines) + "\n")


def steps(out):
    """(name, argv) for each walkthrough command, in run order.

    The m2m steps read ``OUT/m2m``, which ``run`` writes from the synth
    step's output before the first of them runs.
    """
    data, run = out / "synth", out / "run"
    ckpt = ["--checkpoint", run / "final.ckpt", "--data", data]
    yield "synth", ["synth", "--out", data, "--n", "256", "--dims", "32,32,32,32",
                    "--noise", "0.05", "--seed", "11"]
    yield "pretrain", ["pretrain", "--data", data, "--out", run, *TRAIN_FLAGS]
    yield "resume", ["pretrain", "--data", data, "--out", out / "resumed",
                     "--resume", run / "epoch-0009.ckpt", *TRAIN_FLAGS]
    yield "retrieve", ["retrieve", *ckpt, "--out", out / "retrieve", "--csv"]
    for split in ("warm", "drug-cold", "target-cold"):
        yield f"dti-{split}", ["dti", *ckpt, "--out", out / f"dti-{split}", "--split", split,
                               "--folds", "3", "--epochs", "3", "--csv"]
    yield "export", ["export", *ckpt, "--out", out / "export"]
    m2m = ["--checkpoint", run / "final.ckpt", "--data", out / "m2m"]
    yield "m2m-retrieve", ["retrieve", *m2m, "--out", out / "m2m-retrieve", "--csv"]
    for split in ("warm", "drug-cold", "target-cold"):
        yield f"m2m-dti-{split}", ["dti", *m2m, "--out", out / f"m2m-dti-{split}",
                                   "--split", split, "--folds", "3", "--epochs", "3", "--csv"]
    yield "gradcheck", ["gradcheck", "--seed", "0", "--trials", "50"]
    yield "pretrain-help", ["pretrain", "--help"]
    paper = out / "paper"
    yield "paper-synth", ["synth", "--out", paper / "synth", "--n", "512",
                          "--dims", "768,768,768,1280", "--noise", "0.05", "--seed", "11"]
    yield "paper-pretrain", ["pretrain", "--data", paper / "synth", "--out", paper / "run",
                             "--epochs", "1", "--batch-size", "256", "--shared-dim", "512",
                             "--proj-hidden", "768", "--seed", "3"]
    paper_ckpt = ["--checkpoint", paper / "run" / "final.ckpt", "--data", paper / "synth"]
    yield "paper-retrieve", ["retrieve", *paper_ckpt, "--out", paper / "retrieve", "--csv"]
    yield "paper-dti", ["dti", *paper_ckpt, "--out", paper / "dti", "--split", "warm",
                        "--folds", "3", "--epochs", "1", "--csv"]
    yield "paper-export", ["export", *paper_ckpt, "--out", paper / "export"]


def run(out):
    """Run every step into ``out``, which must not exist; returns the path of its digest file.

    Raises RuntimeError naming the first step that exits non-zero (the CLI
    has written why to stderr).
    """
    from gramalign import cli

    (out / "stdout").mkdir(parents=True)
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name, argv in steps(out):
            if name == "m2m-retrieve":
                many_to_many(out / "synth", out / "m2m")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    code = cli.main([str(a) for a in argv])
                except SystemExit as e:  # argparse's --help
                    code = e.code
            if code != 0:
                raise RuntimeError(f"walkthrough step {name} exited {code}")
            text = stdout.getvalue().replace(str(out), OUT_TOKEN)
            (out / "stdout" / f"{name}.txt").write_text(text)
    for timing in out.rglob("run.timing.jsonl"):
        timing.unlink()
    for big in [*(out / "paper").rglob("*.ckpt"), *(out / "paper").rglob("*.gemb")]:
        digest = hashlib.sha256(big.read_bytes()).hexdigest()
        big.with_name(big.name + ".sha256").write_text(digest + "\n")
        big.unlink()
    return write_digests(out)


def write_digests(out):
    """Write ``out/walkthrough.sha256``: the environment header, then one line per file."""
    from gramalign.parallel import blas_config

    lines = [TITLE, f"# python {platform.python_version()}", f"# numpy {np.__version__}",
             f"# scipy {scipy.__version__}", f"# blas {blas_config()}"]
    lines += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
              for p in sorted(out.rglob("*")) if p.is_file() and p.name != DIGESTS]
    (out / DIGESTS).write_text("\n".join(lines) + "\n")
    return out / DIGESTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the gramalign package")
    parser.add_argument("out", help="output directory; must not exist")
    args = parser.parse_args(argv)
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    if not (src / "gramalign" / "__init__.py").is_file():
        parser.error(f"no gramalign package in {src}")
    if out.exists():
        parser.error(f"{out} already exists")
    sys.path.insert(0, str(src))
    import gramalign

    if Path(gramalign.__file__).resolve().parent != src / "gramalign":
        parser.error(f"imported gramalign from {Path(gramalign.__file__).parent}, not {src}")
    try:
        digests = run(out)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    files = sum(not line.startswith("#") for line in digests.read_text().splitlines())
    print(f"wrote {files} files and {digests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
