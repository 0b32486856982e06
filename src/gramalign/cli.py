"""Command-line surface: synth, pretrain, gradcheck, retrieve, dti, export.

Exit codes: 0 success, 2 bad flags or config values (also a --resume
checkpoint trained with another config or with no epochs left), 3 I/O
failure, 4 non-finite training loss, 5 gradient-check failure, 6
checkpoint/data dimension mismatch, 1 any other package error.
Every run echoes its fully-resolved configuration (paths excluded, so
identical flags give byte-identical outputs) into the output directory.
"""

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import write_atomically
from .data import (
    EmbeddingTable,
    SplitKind,
    load_embedding_table,
    load_manifest,
    make_split,
    synth_quadruplets,
    write_embedding_table,
    write_manifest,
)
from .errors import ConfigMismatch, DimensionMismatch, GramAlignError, NonFiniteLoss
from .evaluation import run_retrieval
from .gradcheck import run_gradcheck
from .heads import project
from .modality import MODALITY_ORDER, Modality
from .trainer import TrainConfig, load_model, require_table_dims, train, train_dti

TABLE_FILES = {m: f"{m.short}.gemb" for m in MODALITY_ORDER}
MANIFEST_FILE = "manifest.tsv"
DEFAULT_DIMS = "768,768,768,1280"


def _write_json(path, obj):
    write_atomically(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _echo_config(out, command, **fields):
    """Write the command's resolved configuration to ``resolved-config.json``."""
    _write_json(out / "resolved-config.json", {"command": command, "version": __version__, **fields})


def _write_report(out, stem, rows, with_csv):
    """Write ``<stem>.json`` and, with ``with_csv``, ``<stem>.csv``.

    The CSV has the keys as header and numbers as repr; the ``csv`` module
    quotes any cell holding a comma, a double quote or a line break.
    """
    _write_json(out / f"{stem}.json", rows)
    if with_csv:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(rows[0])
        for r in rows:
            writer.writerow(v if isinstance(v, str) else repr(v) for v in r.values())
        write_atomically(out / f"{stem}.csv", [text.getvalue().encode("utf-8")])


def _flag_error(message) -> int:
    """A bad flag or config value: one stderr line, exit 2."""
    print(message, file=sys.stderr)
    return 2


def _load_dataset(data_dir):
    data_dir = Path(data_dir)
    tables = {m: load_embedding_table(data_dir / TABLE_FILES[m], m) for m in MODALITY_ORDER}
    quads = load_manifest(data_dir / MANIFEST_FILE, tables)
    return tables, quads


def _load_fitting_dataset(model, data_dir):
    """The dataset, whose tables must fit the checkpoint model's projectors."""
    tables, quads = _load_dataset(data_dir)
    require_table_dims(tables, {m: model.projectors[m].in_dim for m in MODALITY_ORDER})
    return tables, quads


def _manifest_pairs(tables, quads):
    smiles, proteins = tables[Modality.SMILES].ids, tables[Modality.PROTEIN].ids
    return list(dict.fromkeys((smiles[q.smiles_row], proteins[q.protein_row]) for q in quads))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 4 or min(dims) < 2:
        return _flag_error(f"--dims needs 4 comma-separated integers >= 2, got {args.dims!r}")
    if args.n < 4 or not 0 <= args.noise < np.inf or args.seed < 0:
        return _flag_error(f"--n must be >= 4, --noise finite and >= 0, and --seed >= 0 "
                           f"(got n={args.n}, noise={args.noise}, seed={args.seed})")
    tables, quads = synth_quadruplets(args.n, dims, args.noise, args.seed)
    out = Path(args.out)
    for m in MODALITY_ORDER:
        write_embedding_table(tables[m], out / TABLE_FILES[m])
    write_manifest(quads, tables, out / MANIFEST_FILE)
    _echo_config(out, "synth", n=args.n, dims=list(dims), noise=args.noise, seed=args.seed)
    print(f"wrote {args.n} quadruplets across 4 tables to {out}")
    return 0


def _resolve_train_config(args) -> TrainConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
    # each pretrain flag's dest is the TrainConfig field it overrides
    for key, value in vars(args).items():
        if key in TrainConfig.__dataclass_fields__ and value is not None:
            base[key] = value
    if args.p_drop is not None:
        base.setdefault("scheduler", {})["p_drop"] = args.p_drop
    return TrainConfig.from_dict(base)


def cmd_pretrain(args) -> int:
    try:
        cfg = _resolve_train_config(args)
    except (TypeError, ValueError) as e:  # out-of-range or mistyped values, unknown keys, bad JSON
        return _flag_error(f"bad config: {e}")
    tables, quads = _load_dataset(args.data)
    out = Path(args.out)
    result = train(tables, quads, cfg, out_dir=out, resume=args.resume)
    _echo_config(out, "pretrain", config=cfg.to_dict())
    last = [r for r in result.records if r["kind"] == "alignment"][-1]
    print(
        f"trained {cfg.epochs} epochs; final mean positive volume "
        f"{last['mean_positive_volume']:.4f}, mismatch {last['mean_mismatch_volume']:.4f}"
    )
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1 or args.seed < 0:  # zero trials would check nothing and pass
        return _flag_error(f"--trials must be >= 1 and --seed >= 0 "
                           f"(got trials={args.trials}, seed={args.seed})")
    results = run_gradcheck(seed=args.seed, trials=args.trials)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: max_rel_err={r.max_rel_err:.3e} tol={r.tolerance:.0e} {status}")
        if not r.passed:
            failed.append(r)
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_err / r.tolerance)
        print(f"gradcheck failed: worst component {worst.name}", file=sys.stderr)
        return 5
    return 0


def cmd_retrieve(args) -> int:
    model, _, _ = load_model(args.checkpoint)
    tables, quads = _load_fitting_dataset(model, args.data)
    pairs = _manifest_pairs(tables, quads)
    results = run_retrieval(model, tables[Modality.SMILES], tables[Modality.PROTEIN], pairs)
    rows = [
        {"direction": r.direction.value, **{f"r{k}": v for k, v in r.recall_at.items()}}
        for r in results
    ]
    out = Path(args.out)
    _write_report(out, "retrieval", rows, args.csv)
    _echo_config(out, "retrieve", csv=bool(args.csv))
    for r in results:
        recalls = " ".join(f"R@{k}={v:.4f}" for k, v in r.recall_at.items())
        print(f"{r.direction.value}: {recalls}")
    return 0


def cmd_dti(args) -> int:
    model, cfg, _ = load_model(args.checkpoint)
    flags = {"seed": args.seed, "dti_epochs": args.epochs}  # --epochs sets dti_epochs here
    try:
        cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as e:
        return _flag_error(f"bad config: {e}")
    if args.folds < 2:
        return _flag_error(f"bad config: folds must be >= 2, got {args.folds}")
    tables, quads = _load_fitting_dataset(model, args.data)
    pairs = _manifest_pairs(tables, quads)
    kind = SplitKind(args.split)
    folds = make_split(
        pairs,
        kind,
        args.folds,
        cfg.seed,
        drugs=tables[Modality.SMILES].ids,
        proteins=tables[Modality.PROTEIN].ids,
    )
    dataset_name = args.dataset_name or Path(args.data).name
    results = train_dti(model, tables[Modality.SMILES], tables[Modality.PROTEIN], folds, cfg)
    rows = [
        {"dataset": dataset_name, "split": kind.value, **metrics}
        for _, metrics in results
    ]
    out = Path(args.out)
    _write_report(out, "metrics", rows, args.csv)
    _echo_config(out, "dti", split=kind.value, folds=args.folds, seed=cfg.seed,
                 dti_epochs=cfg.dti_epochs, dataset=dataset_name)
    for d in rows:
        print(
            f"fold {d['fold']}: auroc={d['auroc']:.4f} auprc={d['auprc']:.4f} "
            f"f1={d['f1']:.4f} acc={d['accuracy']:.4f}"
        )
    return 0


def cmd_export(args) -> int:
    model, _, _ = load_model(args.checkpoint)
    tables, _ = _load_fitting_dataset(model, args.data)
    out = Path(args.out)
    for m in MODALITY_ORDER:
        projected, _ = project(model.projectors[m], tables[m].rows, "eval")
        table = EmbeddingTable(
            modality=m, ids=list(tables[m].ids), rows=projected.astype(np.float32)
        )
        write_embedding_table(table, out / f"projected.{m.short}.gemb")
    _echo_config(out, "export", shared_dim=model.shared_dim)
    print(f"exported 4 projected tables (dim {model.shared_dim}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flag errors print one line, ``<prog>: error: <message>``, and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gramalign",
        description="Four-modality Gramian volume alignment engine",
    )
    parser.add_argument("--version", action="version", version=f"gramalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic aligned quadruplets")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", default=DEFAULT_DIMS)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="train projectors with the full objective")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON file mirroring TrainConfig fields")
    p.add_argument("--resume", default=None, help="epoch checkpoint to continue from")
    for name in ("seed", "epochs", "batch_size", "lr", "tau", "lambda_vol", "lambda_bi",
                 "lambda_ic50", "shared_dim", "proj_hidden", "label_smoothing"):
        field_type = TrainConfig.__dataclass_fields__[name].type
        p.add_argument("--" + name.replace("_", "-"), type=field_type, default=None)
    p.add_argument("--p-drop", type=float, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("retrieve", help="zero-shot retrieval evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("dti", help="downstream interaction prediction")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=[k.value for k in SplitKind], default="warm")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="DTI head training epochs")
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_dti)

    p = sub.add_parser("export", help="write projected embeddings as GEMB1 tables")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigMismatch as e:
        return _flag_error(f"bad config: {e}")
    except NonFiniteLoss as e:
        print(f"non-finite loss: {e}", file=sys.stderr)
        return 4
    except DimensionMismatch as e:
        print(f"dimension mismatch: {e}", file=sys.stderr)
        return 6
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 3
    except GramAlignError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
