"""Run the CLI walkthrough against one source tree and keep every output.

Usage: python tools/walkthrough.py --src SRC OUT

SRC is the directory holding the ``gramalign`` package (``src`` in a
checkout). Each command runs in its own ``python -m gramalign.cli``
subprocess with SRC first on PYTHONPATH. OUT receives the desk-scale
synthetic data, the training run, a run resumed from its tenth epoch, the
retrieve, dti and export reports, and ``stdout/<step>.txt`` with each
command's stdout, in which OUT is replaced by a fixed token.

``OUT/m2m`` holds a many-to-many dataset: the desk tables, copied byte for
byte, beside a manifest whose quadruplet i takes SMILES row i mod 64 and
protein row 7i mod 48, so entities and whole pairs repeat. The desk
checkpoint runs ``retrieve --csv`` and the three ``dti`` splits on it.

``OUT/paper`` holds one paper-width run (dims 768/768/768/1280, shared 512,
hidden 768, one epoch of two B=256 steps) with a ``retrieve --csv``, a
three-fold warm ``dti --csv`` of one head epoch and an ``export`` on its
checkpoint, whose GEMMs are large enough for BLAS to thread. Its checkpoints
and tables, the exported ones included, are replaced by ``<name>.sha256``
files holding their SHA-256, so it adds kilobytes, not 77 MB per checkpoint.

The wall-clock ``run.timing.jsonl`` files are deleted, so two trees with the
same behaviour give the same bytes, 116 files in all: compare the OUT of each
with ``diff -r``. The desk steps' 76 files are pinned in tier-1 by
``tests/golden/walkthrough-desk.sha256`` (``tests/test_walkthrough_digests.py``).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

OUT_TOKEN = "<OUT>"
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


def desk_steps(out):
    """(name, argv) for each desk-scale command, in run order.

    The m2m steps read ``OUT/m2m``, which ``many_to_many`` writes from the
    synth step's output before the first of them runs.
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


def steps(out):
    """(name, argv) for each walkthrough command, in run order: the desk steps first."""
    yield from desk_steps(out)
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
    (out / "stdout").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    for name, cmd in steps(out):
        if name == "m2m-retrieve":
            many_to_many(out / "synth", out / "m2m")
        proc = subprocess.run([sys.executable, "-m", "gramalign.cli", *map(str, cmd)],
                              capture_output=True, text=True, env=env, cwd=out)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
        (out / "stdout" / f"{name}.txt").write_text(proc.stdout.replace(str(out), OUT_TOKEN))
    for timing in out.rglob("run.timing.jsonl"):
        timing.unlink()
    for big in [*(out / "paper").rglob("*.ckpt"), *(out / "paper").rglob("*.gemb")]:
        digest = hashlib.sha256(big.read_bytes()).hexdigest()
        big.with_name(big.name + ".sha256").write_text(digest + "\n")
        big.unlink()
    print(f"wrote {sum(1 for p in out.rglob('*') if p.is_file())} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
