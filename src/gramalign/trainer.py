"""Deterministic single-process training loop and the downstream DTI trainer.

Reproducibility contract: (seed, data, config) fully determine every logged
float and every checkpoint byte. Trainable state (parameters and Adam
moments) is held in float32, matching the checkpoint payload format, while
all step math runs in float64; each update quantizes back to float32. A
checkpoint is therefore a lossless snapshot and resuming from an epoch
boundary reproduces the uninterrupted run bit for bit. Wall-clock timings
are segregated into their own log stream so the primary log stays
byte-deterministic.
"""

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import softmax

from . import checkpoint as ckpt
from .data import NUM_IC50_CLASSES, class_weights
from .errors import (ConfigMismatch, DimensionMismatch, EmptyClass, EmptyDataset, FormatError,
                     NonFiniteLoss, ShapeMismatch)
from .heads import (
    AlignmentModel,
    assign_named,
    backward,
    build_dti_head,
    build_model,
    cast_params,
    dti_forward,
    ic50_forward,
    mlp_tensor_items,
    named_tensors,
    project,
)
from .kernels import tuple_volumes
from .losses import (DEFAULT_SMOOTHING, DEFAULT_TAU, Batch, clip_bimodal, ic50_loss, total_loss,
                     volume_contrastive)
from .modality import MODALITY_ORDER, Modality
from .scheduler import SchedulerConfig, check_field_types, decide, make_history, record, smoothed
from .seeding import substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ALIGNMENT_EVAL_CAP = 512


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 1280
    epochs: int = 40
    tau: float = DEFAULT_TAU
    lambda_vol: float = 1.0
    lambda_bi: float = 1.0
    lambda_ic50: float = 1.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    label_smoothing: float = DEFAULT_SMOOTHING
    seed: int = 0
    shared_dim: int = 512
    proj_hidden: int = 768
    ic50_hidden: int = 512
    dti_epochs: int = 100
    dti_lr: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 0 or not (self.lr > 0 and self.tau > 0):
            raise ValueError("epochs must be >= 0, lr and tau positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shared_dim < 3:  # the pair volumes need one dimension per non-anchor
            raise ValueError("shared_dim must be >= 3")
        if self.proj_hidden < 1 or self.ic50_hidden < 1:
            raise ValueError("proj_hidden and ic50_hidden must be >= 1")
        if not 0 <= self.label_smoothing < 1:
            raise ValueError("label_smoothing must lie in [0, 1)")
        for name in ("lambda_vol", "lambda_bi", "lambda_ic50"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.dti_epochs < 0 or not self.dti_lr > 0:
            raise ValueError("dti_epochs must be >= 0 and dti_lr positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        sched = d.pop("scheduler", {})
        known = set(cls.__dataclass_fields__) - {"scheduler"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sched_unknown = set(sched) - set(SchedulerConfig.__dataclass_fields__)
        if sched_unknown:
            raise ValueError(f"unknown scheduler config keys: {sorted(sched_unknown)}")
        return cls(scheduler=SchedulerConfig(**sched), **d)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(a) for k, a in params.items()},
        v={k: np.zeros_like(a) for k, a in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update over named tensors, in place.

    Math runs in float64 and is quantized back to each tensor's storage
    dtype, so float32 masters stay exactly what a checkpoint would hold.
    """
    if set(params) != set(grads):
        raise ShapeMismatch(
            f"param/grad name sets differ: {sorted(set(params) ^ set(grads))}"
        )
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, theta in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.size != theta.size:
            raise ShapeMismatch(f"tensor {name!r}: grad {g.shape} vs param {theta.shape}")
        g = g.reshape(theta.shape)
        m = ADAM_BETA1 * state.m[name].astype(np.float64) + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name].astype(np.float64) + (1 - ADAM_BETA2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        theta[...] = theta.astype(np.float64) - step
        state.m[name][...] = m
        state.v[name][...] = v
    return params, state


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: AlignmentModel
    records: list
    timings: list
    checkpoint_path: Path | None = None


def _dataset_weights(quads):
    try:
        return class_weights([q.ic50_class for q in quads if q.ic50_class is not None])
    except EmptyClass:  # a class without annotations: unweighted CE, every weight exactly 1.0
        return class_weights(range(NUM_IC50_CLASSES))


def _batch_from_rows(tables, quads, rows):
    raw = {}
    for m in MODALITY_ORDER:
        idx = [quads[r].row_for(m) for r in rows]
        raw[m] = tables[m].rows[idx]
    labels = np.array(
        [quads[r].ic50_class if quads[r].ic50_class is not None else -1 for r in rows]
    )
    mask = labels >= 0
    return raw, labels, mask


def train_step(model, raw, labels, mask, history, weights, cfg: TrainConfig, rngs):
    """One optimization step following the pre-training algorithm exactly.

    Order: project all four modalities (train mode); compute the bimodal and
    IC50 losses and their embedding gradients; record gradient norms from
    lambda_bi * L_bi + lambda_ic50 * L_IC50 only (never the volume loss) and
    get the drop decision; compute the volume loss over the surviving
    modalities; combine; backprop; Adam-update every trainable tensor.
    """
    feats, tapes = {}, {}
    for m in MODALITY_ORDER:
        feats[m], tapes[m] = project(model.projectors[m], raw[m], "train", rngs["dropout"])

    batch = Batch(embeddings=feats, ic50_labels=labels, ic50_mask=mask)
    bi = clip_bimodal(batch, cfg.tau)
    _require_finite("bimodal", bi.value)

    fused = np.concatenate([feats[m] for m in MODALITY_ORDER], axis=1)
    logits, ic50_tape = ic50_forward(model.ic50_head, fused, "train", rngs["dropout"])
    ic50 = ic50_loss(batch, logits, weights, cfg.label_smoothing)
    _require_finite("ic50", ic50.value)
    head_grads, dfused = backward(ic50_tape, ic50.logit_grad)
    ic50.grads = dict(zip(MODALITY_ORDER, np.split(dfused, 4, axis=1)))

    # modality importance comes from the bimodal + IC50 objectives only
    norms = [
        float(np.linalg.norm(cfg.lambda_bi * bi.grads[m] + cfg.lambda_ic50 * ic50.grads[m]))
        for m in MODALITY_ORDER
    ]
    record(history, norms)
    gbar = smoothed(history)
    decision = decide(gbar, cfg.scheduler, rngs["scheduler"])

    active = tuple(m for m in MODALITY_ORDER if m is not decision.dropped)
    vol = volume_contrastive(batch, decision.anchor, active, cfg.tau)
    _require_finite("volume", vol.value)

    total = total_loss(vol, bi, ic50, cfg.lambda_vol, cfg.lambda_bi, cfg.lambda_ic50)
    _require_finite("total", total.value)

    grads = {}
    for m in MODALITY_ORDER:
        proj_grads, _ = backward(tapes[m], total.grads[m])
        specs = model.projectors[m].params.specs
        grads.update(mlp_tensor_items(f"proj.{m.short}", specs, proj_grads))
    for name, g in mlp_tensor_items("ic50", model.ic50_head.params.specs, head_grads):
        grads[name] = cfg.lambda_ic50 * g

    return total, decision, gbar, norms, grads


def _require_finite(component: str, value: float) -> None:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{component} loss is {value}")


def alignment_volumes(model, tables, quads):
    """Mean matched-tuple and mismatched-tuple volumes in eval mode.

    Mismatched tuples shift each modality by a different offset so every
    evaluated tuple mixes four distinct samples.
    """
    raw, _, _ = _batch_from_rows(tables, quads, range(min(len(quads), ALIGNMENT_EVAL_CAP)))
    feats = {m: project(model.projectors[m], raw[m], "eval")[0] for m in MODALITY_ORDER}
    pos = tuple_volumes([feats[m] for m in MODALITY_ORDER])
    mis = tuple_volumes([np.roll(feats[m], -k, axis=0) for k, m in enumerate(MODALITY_ORDER)])
    return float(np.mean(pos)), float(np.mean(mis))


def _model_config(cfg: TrainConfig, in_dims, epochs_done, adam_t, history):
    return {
        "format": "alignment",
        "train_config": cfg.to_dict(),
        "in_dims": {m.short: int(in_dims[m]) for m in MODALITY_ORDER},
        "epochs_done": int(epochs_done),
        "adam_t": int(adam_t),
        "sched_history": {m.short: list(history.buffers[m]) for m in MODALITY_ORDER},
    }


def _state_items(model, adam):
    """The whole trainable state as checkpoint-ordered (name, array) pairs.

    Every parameter first, then ``adam.m.<name>`` and ``adam.v.<name>`` for
    each parameter in turn. Saving writes this list and resuming restores it.
    """
    params = named_tensors(model)
    moments = [(f"adam.{k}.{name}", getattr(adam, k)[name]) for name, _ in params for k in "mv"]
    return params + moments


def _new_model(in_dims, cfg: TrainConfig) -> AlignmentModel:
    """The seeded initial model with float32 masters."""
    model = build_model(in_dims, cfg.shared_dim, cfg.proj_hidden, cfg.ic50_hidden, cfg.seed)
    for head in [*model.projectors.values(), model.ic50_head]:
        cast_params(head.params, np.float32)
    return model


def save_model_checkpoint(path, model, cfg, in_dims, epochs_done, adam, history):
    ckpt.save_checkpoint(
        path,
        dict(_state_items(model, adam)),
        _model_config(cfg, in_dims, epochs_done, adam.t, history),
    )


def _read_run_checkpoint(path):
    """A checkpoint ``train`` wrote, as (tensors, config, TrainConfig, in_dims, GradHistory).

    The config must be one ``_model_config`` writes, in keys and value types,
    with no negative count; any other GCKPT1 file raises one FormatError
    naming ``path``.
    """
    tensors, config = ckpt.load_checkpoint(path)
    try:
        cfg = TrainConfig.from_dict(config["train_config"])
        in_dims = {Modality[k.upper()]: int(v) for k, v in config["in_dims"].items()}
        history = make_history(cfg.scheduler)
        for m in MODALITY_ORDER:
            history.buffers[m][:] = [float(x) for x in config["sched_history"][m.short]]
        saved = _model_config(cfg, in_dims, config["epochs_done"], config["adam_t"], history)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path} is not a run checkpoint: {e!r}") from None
    # compared as JSON text, so 3.0 or true where a run writes 3 or 1 differs as well
    same = json.dumps(saved, sort_keys=True) == json.dumps(config, sort_keys=True)
    if not same or min(saved["epochs_done"], saved["adam_t"], *in_dims.values()) < 0:
        raise FormatError(f"{path} is not a run checkpoint: its config is not one a run writes")
    return tensors, saved, cfg, in_dims, history


def require_table_dims(tables, in_dims) -> None:
    """Raise DimensionMismatch unless each table is as wide as its projector's ``in_dims``."""
    for m in MODALITY_ORDER:
        if tables[m].dim != in_dims[m]:
            raise DimensionMismatch(
                f"{m.name} table dim {tables[m].dim} != checkpoint projector input {in_dims[m]}"
            )


def load_model(path):
    """Rebuild an AlignmentModel (float32 masters) from a run checkpoint."""
    tensors, config, cfg, in_dims, _ = _read_run_checkpoint(path)
    model = _new_model(in_dims, cfg)
    assign_named(named_tensors(model), tensors)
    return model, cfg, config


def train(tables, quads, cfg: TrainConfig, out_dir=None, resume=None) -> TrainResult:
    """Full pre-training run: per-epoch shuffling, stepping, checkpointing.

    With ``out_dir`` set, writes epoch-NNNN.ckpt after every epoch, final.ckpt
    at the end, run.log.jsonl (deterministic records) and run.timing.jsonl
    (wall times). ``resume`` restarts from an epoch-boundary checkpoint and
    reproduces the uninterrupted run exactly.
    """
    if not quads:
        raise EmptyDataset("no quadruplets to train on")
    if cfg.epochs > 0 and len(quads) < cfg.batch_size:
        raise EmptyDataset(
            f"dataset has {len(quads)} quadruplets but batch_size={cfg.batch_size}; "
            "no complete batch (incomplete batches are dropped)"
        )

    in_dims = {m: tables[m].dim for m in MODALITY_ORDER}
    history = make_history(cfg.scheduler)
    start_epoch = 0
    model = _new_model(in_dims, cfg)
    params = dict(named_tensors(model))
    adam = init_adam(params)

    if resume is not None:
        tensors, config, _, saved_dims, history = _read_run_checkpoint(resume)
        require_table_dims(tables, saved_dims)
        saved, now = config["train_config"], cfg.to_dict()
        differing = sorted(k for k in now if k != "epochs" and saved[k] != now[k])
        if differing:
            raise ConfigMismatch(
                f"resume checkpoint was produced with a different config: {', '.join(differing)}"
            )
        assign_named(_state_items(model, adam), tensors)
        adam.t = config["adam_t"]
        start_epoch = config["epochs_done"]
        if cfg.epochs <= start_epoch:
            raise ConfigMismatch(
                f"resume checkpoint has epochs_done={start_epoch}; epochs={cfg.epochs} "
                "leaves nothing to train"
            )
    out_dir = None if out_dir is None else Path(out_dir)

    weights = _dataset_weights(quads)
    records, timings = [], []

    def log_alignment(epochs_done, epoch_losses=None):
        pos, mis = alignment_volumes(model, tables, quads)
        rec = {
            "kind": "alignment",
            "epochs_done": epochs_done,
            "mean_positive_volume": pos,
            "mean_mismatch_volume": mis,
        }
        if epoch_losses:
            rec["mean_losses"] = {
                k: float(np.mean([d[k] for d in epoch_losses])) for k in epoch_losses[0]
            }
        records.append(rec)

    if start_epoch == 0:
        log_alignment(0)

    n = len(quads)
    steps_per_epoch = n // cfg.batch_size
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        rngs = {
            "dropout": substream(cfg.seed, "dropout", epoch),
            "scheduler": substream(cfg.seed, "scheduler", epoch),
        }
        epoch_losses = []
        for b in range(steps_per_epoch):
            rows = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            raw, labels, mask = _batch_from_rows(tables, quads, rows)
            t0 = time.perf_counter()
            try:
                total, decision, gbar, norms, grads = train_step(
                    model, raw, labels, mask, history, weights, cfg, rngs
                )
            except NonFiniteLoss as e:
                raise NonFiniteLoss(f"step {step}: {e}") from None
            adam_step(params, grads, adam, cfg.lr)
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            losses = {k: float(v) for k, v in total.diagnostics.items()}
            epoch_losses.append(losses)
            records.append(
                {
                    "kind": "step",
                    "step": step,
                    "epoch": epoch,
                    "losses": losses,
                    "scheduler": {
                        "branch": decision.branch.value,
                        "dropped": None if decision.dropped is None else decision.dropped.short,
                        "anchor": decision.anchor.short,
                        "gbar": [float(x) for x in gbar],
                    },
                    "grad_norms": norms,
                }
            )
            timings.append({"kind": "step", "step": step, "wall_ms": wall_ms})
            step += 1
        log_alignment(epoch + 1, epoch_losses)
        if out_dir is not None:
            save_model_checkpoint(out_dir / f"epoch-{epoch:04d}.ckpt", model, cfg, in_dims,
                                  epoch + 1, adam, history)

    result = TrainResult(model=model, records=records, timings=timings)
    if out_dir is not None:
        final = out_dir / "final.ckpt"
        save_model_checkpoint(final, model, cfg, in_dims, cfg.epochs, adam, history)
        write_jsonl(out_dir / "run.log.jsonl", records)
        write_jsonl(out_dir / "run.timing.jsonl", timings)
        result.checkpoint_path = final
    return result


def write_jsonl(path, records) -> None:
    lines = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
    ckpt.write_atomically(path, [lines.encode("utf-8")])


# ---------------------------------------------------------------------------
# downstream DTI
# ---------------------------------------------------------------------------


def train_dti(model, smiles_table, protein_table, folds, cfg: TrainConfig):
    """Train one DTI head per fold on frozen projected embeddings.

    The projectors are never updated here; only the two-layer-hidden binary
    head learns, with Adam on unweighted cross-entropy. Returns one
    (head, metrics dict) pair per fold, metrics computed on the test fold.
    """
    # imported at call time so perfbench's tracer, which wraps these names, sees each call
    from .evaluation import auprc, auroc, classification_metrics

    f_s, _ = project(model.projectors[Modality.SMILES], smiles_table.rows, "eval")
    f_p, _ = project(model.projectors[Modality.PROTEIN], protein_table.rows, "eval")

    def rows_of(pairs):
        drugs = np.array([smiles_table.index_of(d) for d, _, _ in pairs])
        proteins = np.array([protein_table.index_of(p) for _, p, _ in pairs])
        return drugs, proteins, np.array([lab for _, _, lab in pairs], dtype=int)

    results = []
    for fold in folds:
        head = build_dti_head(
            model.shared_dim, int(substream(cfg.seed, "dti-init", fold.index).integers(2**63))
        )
        cast_params(head.params, np.float32)
        specs = head.params.specs
        params = dict(mlp_tensor_items("dti", specs, head.params.layers))
        adam = init_adam(params)

        xs, xp, y = rows_of(fold.train.pairs)
        n = len(y)
        bs = min(cfg.batch_size, n)
        for epoch in range(cfg.dti_epochs):
            order = substream(cfg.seed, "dti-shuffle", fold.index, epoch).permutation(n)
            rng = substream(cfg.seed, "dti-dropout", fold.index, epoch)
            for start in range(0, n, bs):
                rows = order[start : start + bs]
                logits, tape = dti_forward(head, f_s[xs[rows]], f_p[xp[rows]], "train", rng)
                yb = y[rows]
                dlogits = softmax(logits, axis=1)
                dlogits[np.arange(len(rows)), yb] -= 1.0
                dlogits /= len(rows)
                grads, _ = backward(tape, dlogits)
                adam_step(params, dict(mlp_tensor_items("dti", specs, grads)), adam, cfg.dti_lr)

        ts, tp, ty = rows_of(fold.test.pairs)
        logits, _ = dti_forward(head, f_s[ts], f_p[tp], "eval")
        scores = softmax(logits, axis=1)[:, 1]
        cls = classification_metrics(scores, ty)
        metrics = {
            "fold": fold.index,
            "auroc": auroc(scores, ty),
            "auprc": auprc(scores, ty),
            "sensitivity": cls["sensitivity"],
            "f1": cls["f1"],
            "accuracy": cls["accuracy"],
        }
        results.append((head, metrics))
    return results
