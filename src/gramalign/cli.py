"""Command-line surface: synth, pretrain, gradcheck, retrieve, dti, export.

Exit codes: 0 success, 2 bad flags or config values, 3 I/O failure, 4
non-finite training loss, 5 gradient-check failure, 6 checkpoint/data
dimension mismatch.
Every run echoes its fully-resolved configuration (paths excluded, so
identical flags give byte-identical outputs) into the output directory.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SplitKind,
    load_embedding_table,
    load_manifest,
    make_split,
    synth_quadruplets,
    write_embedding_table,
    write_manifest,
)
from .errors import DimensionMismatch, GramAlignError, NonFiniteLoss
from .evaluation import run_retrieval
from .gradcheck import run_gradcheck
from .modality import MODALITY_ORDER, Modality
from .trainer import TrainConfig, load_model, train, train_dti

TABLE_FILES = {m: f"{m.short}.gemb" for m in MODALITY_ORDER}
MANIFEST_FILE = "manifest.tsv"
DEFAULT_DIMS = "768,768,768,1280"


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_dataset(data_dir):
    data_dir = Path(data_dir)
    tables = {m: load_embedding_table(data_dir / TABLE_FILES[m], m) for m in MODALITY_ORDER}
    quads = load_manifest(data_dir / MANIFEST_FILE, tables)
    return tables, quads


def _check_dims(model, tables):
    for m in MODALITY_ORDER:
        expected = model.projectors[m].in_dim
        if tables[m].dim != expected:
            raise DimensionMismatch(
                f"{m.name} table dim {tables[m].dim} != checkpoint projector input {expected}"
            )


def _manifest_pairs(tables, quads):
    pairs = []
    seen = set()
    for q in quads:
        key = (tables[Modality.SMILES].ids[q.smiles_row], tables[Modality.PROTEIN].ids[q.protein_row])
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    dims = tuple(int(x) for x in args.dims.split(","))
    if len(dims) != 4:
        print(f"--dims needs 4 comma-separated values, got {args.dims!r}", file=sys.stderr)
        return 2
    if args.n < 4 or args.noise < 0:
        print(f"--n must be >= 4 and --noise >= 0 (got n={args.n}, noise={args.noise})",
              file=sys.stderr)
        return 2
    tables, quads = synth_quadruplets(args.n, dims, args.noise, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m in MODALITY_ORDER:
        write_embedding_table(tables[m], out / TABLE_FILES[m])
    write_manifest(quads, tables, out / MANIFEST_FILE)
    _write_json(
        out / "resolved-config.json",
        {
            "command": "synth",
            "version": __version__,
            "n": args.n,
            "dims": list(dims),
            "noise": args.noise,
            "seed": args.seed,
        },
    )
    print(f"wrote {args.n} quadruplets across 4 tables to {out}")
    return 0


def _resolve_train_config(args) -> TrainConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
    overrides = {
        "seed": args.seed,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "tau": args.tau,
        "lambda_vol": args.lambda_vol,
        "lambda_bi": args.lambda_bi,
        "lambda_ic50": args.lambda_ic50,
        "shared_dim": args.shared_dim,
        "proj_hidden": args.proj_hidden,
        "label_smoothing": args.label_smoothing,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if args.p_drop is not None:
        base.setdefault("scheduler", {})["p_drop"] = args.p_drop
    return TrainConfig.from_dict(base)


def cmd_pretrain(args) -> int:
    try:
        cfg = _resolve_train_config(args)
    except (TypeError, ValueError) as e:  # out-of-range or mistyped values, unknown keys, bad JSON
        print(f"bad config: {e}", file=sys.stderr)
        return 2
    tables, quads = _load_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        "command": "pretrain",
        "version": __version__,
        "config": cfg.to_dict(),
    }
    _write_json(out / "resolved-config.json", echo)
    result = train(tables, quads, cfg, out_dir=out, resume=args.resume)
    last = [r for r in result.records if r["kind"] == "alignment"][-1]
    print(
        f"trained {cfg.epochs} epochs; final mean positive volume "
        f"{last['mean_positive_volume']:.4f}, mismatch {last['mean_mismatch_volume']:.4f}"
    )
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_gradcheck(args) -> int:
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
    tables, quads = _load_dataset(args.data)
    _check_dims(model, tables)
    pairs = _manifest_pairs(tables, quads)
    results = run_retrieval(model, tables[Modality.SMILES], tables[Modality.PROTEIN], pairs)
    rows = [
        {
            "direction": r.direction.value,
            "r1": r.recall_at[1],
            "r10": r.recall_at[10],
            "r100": r.recall_at[100],
        }
        for r in results
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "retrieval.json", rows)
    if args.csv:
        lines = ["direction,r1,r10,r100"]
        lines += [f"{d['direction']},{d['r1']!r},{d['r10']!r},{d['r100']!r}" for d in rows]
        (out / "retrieval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(
        out / "resolved-config.json",
        {"command": "retrieve", "version": __version__, "csv": bool(args.csv)},
    )
    for d in rows:
        print(f"{d['direction']}: R@1={d['r1']:.4f} R@10={d['r10']:.4f} R@100={d['r100']:.4f}")
    return 0


def cmd_dti(args) -> int:
    model, cfg, _ = load_model(args.checkpoint)
    tables, quads = _load_dataset(args.data)
    _check_dims(model, tables)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.epochs is not None:
        cfg.dti_epochs = args.epochs
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
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", rows)
    if args.csv:
        lines = ["dataset,split,fold,auroc,auprc,sensitivity,f1,accuracy"]
        for d in rows:
            lines.append(
                f"{d['dataset']},{d['split']},{d['fold']},{d['auroc']!r},{d['auprc']!r},"
                f"{d['sensitivity']!r},{d['f1']!r},{d['accuracy']!r}"
            )
        (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(
        out / "resolved-config.json",
        {
            "command": "dti",
            "version": __version__,
            "split": kind.value,
            "folds": args.folds,
            "seed": cfg.seed,
            "dti_epochs": cfg.dti_epochs,
            "dataset": dataset_name,
        },
    )
    for d in rows:
        print(
            f"fold {d['fold']}: auroc={d['auroc']:.4f} auprc={d['auprc']:.4f} "
            f"f1={d['f1']:.4f} acc={d['accuracy']:.4f}"
        )
    return 0


def cmd_export(args) -> int:
    model, _, _ = load_model(args.checkpoint)
    tables, _ = _load_dataset(args.data)
    _check_dims(model, tables)
    from .data import EmbeddingTable
    from .heads import project

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m in MODALITY_ORDER:
        projected, _ = project(model.projectors[m], tables[m].rows, "eval")
        table = EmbeddingTable(
            modality=m, ids=list(tables[m].ids), rows=projected.astype(np.float32)
        )
        write_embedding_table(table, out / f"projected.{m.short}.gemb")
    _write_json(
        out / "resolved-config.json",
        {"command": "export", "version": __version__, "shared_dim": model.shared_dim},
    )
    print(f"exported 4 projected tables (dim {model.shared_dim}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lambda-vol", type=float, default=None)
    p.add_argument("--lambda-bi", type=float, default=None)
    p.add_argument("--lambda-ic50", type=float, default=None)
    p.add_argument("--shared-dim", type=int, default=None)
    p.add_argument("--proj-hidden", type=int, default=None)
    p.add_argument("--label-smoothing", type=float, default=None)
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
