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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .data import class_weights
from .errors import EmptyClass, EmptyDataset, NonFiniteLoss, ShapeMismatch
from .heads import (
    AlignmentModel,
    LayerParams,
    backward,
    build_dti_head,
    build_model,
    cast_params,
    dti_forward,
    ic50_forward,
    mlp_grad_items,
    named_dti_tensors,
    named_tensors,
    project,
)
from .kernels import tuple_volumes
from .losses import Batch, LossOut, clip_bimodal, ic50_loss, total_loss, volume_contrastive
from .modality import MODALITY_ORDER, Modality
from .scheduler import SchedulerConfig, decide, make_history, record, smoothed
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
    tau: float = 0.07
    lambda_vol: float = 1.0
    lambda_bi: float = 1.0
    lambda_ic50: float = 1.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    label_smoothing: float = 0.1
    seed: int = 0
    shared_dim: int = 512
    proj_hidden: int = 768
    ic50_hidden: int = 512
    dti_epochs: int = 100
    dti_lr: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 0 or self.lr <= 0 or self.tau <= 0:
            raise ValueError("epochs must be >= 0, lr and tau positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shared_dim < 3:  # the pair volumes need one dimension per non-anchor
            raise ValueError("shared_dim must be >= 3")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scheduler"] = asdict(self.scheduler)
        return d

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
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


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
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, theta in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.size != theta.size:
            raise ShapeMismatch(f"tensor {name!r}: grad {g.shape} vs param {theta.shape}")
        g = g.reshape(theta.shape)
        m = state.beta1 * state.m[name].astype(np.float64) + (1 - state.beta1) * g
        v = state.beta2 * state.v[name].astype(np.float64) + (1 - state.beta2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
    labels = [q.ic50_class for q in quads if q.ic50_class is not None]
    if not labels:
        return class_weights([0, 1, 2])  # unused: no annotated sample ever enters the loss
    try:
        return class_weights(labels)
    except EmptyClass:
        # degenerate annotation set; fall back to unweighted CE
        cw = class_weights([0, 1, 2])
        cw.weights = np.ones(3)
        return cw


def _batch_from_rows(tables, quads, rows):
    raw = {}
    for m in MODALITY_ORDER:
        idx = [quads[r].row_for(m) for r in rows]
        raw[m] = tables[m].rows[idx].astype(np.float64)
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
    ic50_raw = ic50_loss(batch, logits, weights, cfg.label_smoothing)
    _require_finite("ic50", ic50_raw.value)
    head_grads, dfused = backward(ic50_tape, ic50_raw.logit_grad)
    d = model.shared_dim
    ic50_comp = LossOut(
        value=ic50_raw.value,
        grads={m: dfused[:, i * d : (i + 1) * d] for i, m in enumerate(MODALITY_ORDER)},
        diagnostics=ic50_raw.diagnostics,
    )

    # modality importance comes from the bimodal + IC50 objectives only
    norms = [
        float(
            np.linalg.norm(
                cfg.lambda_bi * bi.grads[m] + cfg.lambda_ic50 * ic50_comp.grads[m]
            )
        )
        for m in MODALITY_ORDER
    ]
    record(history, norms)
    gbar = smoothed(history)
    decision = decide(gbar, cfg.scheduler, rngs["scheduler"], training=True)

    active = tuple(m for m in MODALITY_ORDER if m is not decision.dropped)
    vol = volume_contrastive(batch, decision.anchor, active, cfg.tau)
    _require_finite("volume", vol.value)

    total = total_loss(vol, bi, ic50_comp, cfg.lambda_vol, cfg.lambda_bi, cfg.lambda_ic50)
    _require_finite("total", total.value)

    grads = {}
    for m in MODALITY_ORDER:
        proj_grads, _ = backward(tapes[m], total.grads[m])
        grads.update(mlp_grad_items(f"proj.{m.short}", model.projectors[m].params, proj_grads))
    scaled_head = [_scale_layer_grads(g, cfg.lambda_ic50) for g in head_grads]
    grads.update(mlp_grad_items("ic50", model.ic50_head.params, scaled_head))

    return total, decision, gbar, norms, grads


def _require_finite(component: str, value: float) -> None:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{component} loss is {value}")


def _scale_layer_grads(g: LayerParams, scale: float) -> LayerParams:
    return LayerParams(
        w=scale * g.w,
        b=scale * g.b,
        gamma=None if g.gamma is None else scale * g.gamma,
        beta=None if g.beta is None else scale * g.beta,
    )


def alignment_volumes(model, tables, quads, cap=ALIGNMENT_EVAL_CAP):
    """Mean matched-tuple and mismatched-tuple volumes in eval mode.

    Mismatched tuples shift each modality by a different offset so every
    evaluated tuple mixes four distinct samples.
    """
    quads = quads[: min(len(quads), cap)]
    feats = {}
    for m in MODALITY_ORDER:
        idx = [q.row_for(m) for q in quads]
        feats[m], _ = project(model.projectors[m], tables[m].rows[idx].astype(np.float64), "eval")
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


def save_model_checkpoint(path, model, cfg, in_dims, epochs_done, adam, history):
    tensors = dict(named_tensors(model))
    for name, arr in list(tensors.items()):
        tensors[f"adam.m.{name}"] = adam.m[name]
        tensors[f"adam.v.{name}"] = adam.v[name]
    ckpt.save_checkpoint(
        path, tensors, _model_config(cfg, in_dims, epochs_done, adam.t, history)
    )


def load_model(path):
    """Rebuild an AlignmentModel (float32 masters) from a GCKPT1 file."""
    tensors, config = ckpt.load_checkpoint(path)
    cfg = TrainConfig.from_dict(config["train_config"])
    in_dims = {Modality[k.upper()]: v for k, v in config["in_dims"].items()}
    model = build_model(in_dims, cfg.shared_dim, cfg.proj_hidden, cfg.ic50_hidden, cfg.seed)
    for m in MODALITY_ORDER:
        cast_params(model.projectors[m].params, np.float32)
    cast_params(model.ic50_head.params, np.float32)
    from .heads import assign_named

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
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    in_dims = {m: tables[m].dim for m in MODALITY_ORDER}
    if cfg.epochs > 0 and len(quads) < cfg.batch_size:
        raise EmptyDataset(
            f"dataset has {len(quads)} quadruplets but batch_size={cfg.batch_size}; "
            "no complete batch (incomplete batches are dropped)"
        )

    history = make_history(cfg.scheduler)
    start_epoch = 0
    model = build_model(in_dims, cfg.shared_dim, cfg.proj_hidden, cfg.ic50_hidden, cfg.seed)
    for m in MODALITY_ORDER:
        cast_params(model.projectors[m].params, np.float32)
    cast_params(model.ic50_head.params, np.float32)
    params = dict(named_tensors(model))
    adam = init_adam(params)

    if resume is not None:
        tensors, config = ckpt.load_checkpoint(resume)
        saved = TrainConfig.from_dict(config["train_config"])
        a, b = saved.to_dict(), cfg.to_dict()
        a.pop("epochs"), b.pop("epochs")
        if a != b:
            raise ValueError("resume checkpoint was produced with a different config")
        from .heads import assign_named

        assign_named(named_tensors(model), tensors)
        for name in params:
            adam.m[name][...] = ckpt.require(tensors, f"adam.m.{name}").reshape(
                adam.m[name].shape
            )
            adam.v[name][...] = ckpt.require(tensors, f"adam.v.{name}").reshape(
                adam.v[name].shape
            )
        adam.t = int(config["adam_t"])
        start_epoch = int(config["epochs_done"])
        for m in MODALITY_ORDER:
            history.buffers[m][:] = [float(x) for x in config["sched_history"][m.short]]

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
            save_model_checkpoint(
                Path(out_dir) / f"epoch-{epoch:04d}.ckpt",
                model,
                cfg,
                in_dims,
                epoch + 1,
                adam,
                history,
            )

    result = TrainResult(model=model, records=records, timings=timings)
    if out_dir is not None:
        final = out_dir / "final.ckpt"
        save_model_checkpoint(final, model, cfg, in_dims, cfg.epochs, adam, history)
        write_jsonl(out_dir / "run.log.jsonl", records)
        write_jsonl(out_dir / "run.timing.jsonl", timings)
        result.checkpoint_path = final
    return result


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# downstream DTI
# ---------------------------------------------------------------------------


def train_dti(model, smiles_table, protein_table, folds, cfg: TrainConfig):
    """Train one DTI head per fold on frozen projected embeddings.

    The projectors are never updated here; only the two-layer-hidden binary
    head learns, with Adam on unweighted cross-entropy. Returns one
    (head, metrics dict) pair per fold, metrics computed on the test fold.
    """
    from .evaluation import auprc, auroc, classification_metrics

    f_s, _ = project(model.projectors[Modality.SMILES], smiles_table.rows, "eval")
    f_p, _ = project(model.projectors[Modality.PROTEIN], protein_table.rows, "eval")
    s_index = {e: i for i, e in enumerate(smiles_table.ids)}
    p_index = {e: i for i, e in enumerate(protein_table.ids)}

    results = []
    for fold in folds:
        head = build_dti_head(
            model.shared_dim, int(substream(cfg.seed, "dti-init", fold.index).integers(2**63))
        )
        cast_params(head.params, np.float32)
        params = dict(named_dti_tensors(head))
        adam = init_adam(params)

        train_pairs = fold.train.pairs
        xs = np.array([s_index[d] for d, _, _ in train_pairs])
        xp = np.array([p_index[p] for _, p, _ in train_pairs])
        y = np.array([lab for _, _, lab in train_pairs], dtype=int)
        n = len(train_pairs)
        bs = min(cfg.batch_size, n)
        for epoch in range(cfg.dti_epochs):
            order = substream(cfg.seed, "dti-shuffle", fold.index, epoch).permutation(n)
            rng = substream(cfg.seed, "dti-dropout", fold.index, epoch)
            for start in range(0, n, bs):
                rows = order[start : start + bs]
                logits, tape = dti_forward(head, f_s[xs[rows]], f_p[xp[rows]], "train", rng)
                yb = y[rows]
                shift = logits.max(axis=1, keepdims=True)
                lse = shift + np.log(np.exp(logits - shift).sum(axis=1, keepdims=True))
                dlogits = np.exp(logits - lse)
                dlogits[np.arange(len(rows)), yb] -= 1.0
                dlogits /= len(rows)
                grads, _ = backward(tape, dlogits)
                adam_step(params, dict(mlp_grad_items("dti", head.params, grads)), adam, cfg.dti_lr)

        test_pairs = fold.test.pairs
        ts = np.array([s_index[d] for d, _, _ in test_pairs])
        tp = np.array([p_index[p] for _, p, _ in test_pairs])
        ty = np.array([lab for _, _, lab in test_pairs], dtype=int)
        logits, _ = dti_forward(head, f_s[ts], f_p[tp], "eval")
        shift = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - shift)
        probs /= probs.sum(axis=1, keepdims=True)
        scores = probs[:, 1]
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
