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
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # Windows has no resource module
    resource = None

from . import checkpoint as ckpt
from . import evaluation
from .data import NUM_IC50_CLASSES, class_weights
from .errors import (ConfigMismatch, DimensionMismatch, EmptyClass, EmptyDataset, FormatError,
                     NonFiniteLoss, ShapeMismatch)
from .heads import (
    AlignmentModel,
    Head,
    assign_named,
    backward,
    build_dti_head,
    build_model,
    cast_params,
    dropout_masks,
    dti_forward,
    empty_params,
    ic50_forward,
    ic50_specs,
    mlp_tensor_items,
    named_tensors,
    project,
    projector_specs,
)
from .kernels import tuple_volumes
from .losses import (DEFAULT_SMOOTHING, DEFAULT_TAU, Batch, clip_bimodal, cross_entropy,
                     ic50_loss, softmax, volume_contrastive)
from .modality import MODALITY_ORDER, Modality
from .parallel import keep_freed_memory, one_blas_thread, pinned_map, serial_map
from .scheduler import SchedulerConfig, check_field_types, decide, make_history, record, smoothed
from .seeding import substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ADAM_BLOCK = 32768  # elements per block: its float64 temporaries stay in cache

ALIGNMENT_EVAL_CAP = 512

# the stages train_step marks, in the order of run.timing.jsonl's stage_ms; the step's
# code between them is marked "other". "proj_backward" holds the projectors' Adam
# updates, "adam" the IC50 head's alone. At most one head's gradients per thread.
STEP_STAGES = ("proj_forward", "bimodal", "ic50", "volume", "proj_backward", "adam")

# The four projectors' forwards, backwards and eval forwards are mapped over the CPUs
# when a batch's GEMM work, batch_size * sum(in_dim * out_dim) over every projector
# layer, reaches this; below it the same tasks run in a loop. The crossover, from whole
# steps with Adam at one BLAS thread on 2 vCPU: mapped steps were 4-10 % slower at
# 1.5e7-5.9e7 (38 % at desk widths, 4.6e5) and 24-28 % faster from 1.2e8 up to paper
# widths at B=512 (2.8e9). In runs where the shared host gave the two vCPUs no
# parallelism, they lost 4-7 % at every size.
POOL_MIN_GEMM_WORK = 100_000_000


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
        # Four unit vectors span no volume in three dimensions: below 4 the k=4
        # volume loss is a constant log B with no gradient, and every alignment volume 0.
        if self.shared_dim < 4:
            raise ValueError("shared_dim must be >= 4")
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
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        sched = d.pop("scheduler", {})
        if not isinstance(sched, dict):
            raise ValueError(f"scheduler must be a JSON object, got {type(sched).__name__}")
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


def _flat(a, what):
    """``a`` as a 1-d view; a copy would silently drop an in-place update."""
    flat = a.reshape(-1)
    if not np.may_share_memory(flat, a):
        raise ValueError(f"{what} is not contiguous, so it cannot be updated in place")
    return flat


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """A bias-corrected Adam update, in place, of each tensor of ``params`` named in ``grads``.

    The caller advances ``state.t`` once per optimization step before its
    updates, so a step may update its tensors in several calls, one head at
    a time, with the same bias corrections; each tensor's update reads only
    its own gradient and moments, so the bytes do not depend on the split.
    Math runs in float64 and is quantized back to each tensor's storage
    dtype, so float32 masters stay exactly what a checkpoint would hold.
    Each tensor is walked in flat blocks of ADAM_BLOCK elements, every block
    running the same element-wise operations in the same order, so the result
    is bit-equal to one pass over the whole tensor. The blocks' float64 work
    lives in one buffer per call, so concurrent calls share nothing.
    """
    unknown = set(grads) - set(params)
    if unknown:
        raise ShapeMismatch(f"gradients for no parameter: {sorted(unknown)}")
    if state.t < 1:
        raise ValueError("advance state.t before the step's first update")
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    buf = np.empty((4, ADAM_BLOCK))
    for name, g in grads.items():
        theta = params[name]
        g = np.asarray(g, dtype=np.float64)
        if g.size != theta.size:
            raise ShapeMismatch(f"tensor {name!r}: grad {g.shape} vs param {theta.shape}")
        g = g.reshape(-1)
        th = _flat(theta, name)
        ms, vs = _flat(state.m[name], f"adam.m.{name}"), _flat(state.v[name], f"adam.v.{name}")
        for a in range(0, th.size, ADAM_BLOCK):
            blk = slice(a, a + ADAM_BLOCK)
            gb = g[blk]
            m, v, t, u = buf[:, : gb.size]
            # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g, in float64
            np.multiply(ms[blk], ADAM_BETA1, out=m, dtype=np.float64)
            m += np.multiply(gb, 1 - ADAM_BETA1, out=t)
            np.multiply(vs[blk], ADAM_BETA2, out=v, dtype=np.float64)
            np.multiply(gb, 1 - ADAM_BETA2, out=t)
            v += np.multiply(t, gb, out=t)
            # step = lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=t), lr, out=t)
            np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), ADAM_EPS, out=u)
            t /= u
            th[blk] = np.subtract(th[blk], t, out=u, dtype=np.float64)
            ms[blk] = m
            vs[blk] = v
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


def _manifest_index(quads):
    """(index, labels): each quadruplet's table rows and IC50 class, derived once per run.

    ``index`` is (n, 4) int64 with columns in MODALITY_ORDER, so a batch's rows
    of table m are ``index[rows, m]``; ``labels`` is (n,) int64, -1 where unannotated.
    """
    index = np.array([[q.row_for(m) for m in MODALITY_ORDER] for q in quads], dtype=np.int64)
    labels = np.array([-1 if q.ic50_class is None else q.ic50_class for q in quads],
                      dtype=np.int64)
    return index, labels


def _dataset_weights(labels):
    try:
        return class_weights(labels[labels >= 0])
    except EmptyClass:  # a class without annotations: unweighted CE, every weight exactly 1.0
        return class_weights(range(NUM_IC50_CLASSES))


def _ms_since(t0):
    return 1000.0 * (time.perf_counter() - t0)


def peak_rss_bytes():
    """This process's peak resident set size in bytes, or None where ``resource`` is missing.

    ``ru_maxrss`` is in bytes on macOS and in KiB on Linux and the BSDs.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else 1024 * peak


def stage_clock(stage_ms):
    """A ``train_step`` ``enter`` that adds each stage's wall ms to ``stage_ms``.

    ``stage_ms`` gets every name of STEP_STAGES, in that order, at 0.0; the
    time from one mark to the next goes to the stage the first one entered,
    and time marked ``"other"`` to none.
    """
    stage_ms.update(dict.fromkeys(STEP_STAGES, 0.0))
    stage, t0 = "other", time.perf_counter()

    def enter(name):
        nonlocal stage, t0
        t = time.perf_counter()
        if stage != "other":
            stage_ms[stage] += 1000.0 * (t - t0)
        stage, t0 = name, t

    return enter


def train_step(model, raw, labels, history, weights, cfg: TrainConfig, rngs, update, task_map,
               enter=None):
    """One optimization step following the pre-training algorithm exactly.

    Order: project all four modalities (train mode); compute the bimodal and
    IC50 losses and backprop the IC50 head; form each modality's embedding
    gradient once, lambda_ic50 * its IC50 input-gradient block plus, for SMILES
    and protein, lambda_bi * its bimodal block; record those arrays' norms (so
    never the volume loss) and get the drop decision; compute the volume loss
    over the surviving modalities and add lambda_vol * its blocks in place;
    backprop each projector. Returns the loss values, the decision, gbar and
    the norms.

    The four projector forwards, and after the volume loss the four projector
    backwards, run as the tasks of ``task_map(fn, MODALITY_ORDER)``, which
    returns ``[fn(m) for m in MODALITY_ORDER]``: ``train`` passes its run's
    map, ``pinned_map`` or ``serial_map``. Every dropout mask is drawn
    before the forwards, in the order of one draw per layer of each projector
    in MODALITY_ORDER and then the IC50 head's, so no byte depends on which
    thread runs a task or when.

    Each head's gradients go to ``update`` as soon as its backward ends, as
    one dict of named float64 arrays that the step then drops, so at most one
    head's gradients are alive per thread: first the IC50 head's, scaled by
    lambda_ic50, on the calling thread before the volume loss; then each
    projector's, inside its backward task, in the order the tasks finish
    (MODALITY_ORDER under ``serial_map``). So ``update`` must be safe to call
    from two threads at once for different heads, as ``adam_step`` is.
    ``train`` passes an Adam update, having advanced the step count once for
    the whole step. A non-finite bimodal or IC50 loss raises NonFiniteLoss
    before any update; a non-finite volume or total loss raises it after the
    IC50 head's update, with every projector still untouched.

    ``enter``, if given, is called on the calling thread with a stage's name
    as the step enters it, and with ``"other"`` as the step's own code between
    stages resumes: ``proj_forward``, ``bimodal``, ``ic50`` (forward, loss and
    backward), ``adam`` (the IC50 head's update), ``volume`` and
    ``proj_backward`` (the four projectors' backwards and updates).
    ``train`` passes a ``stage_clock``; ``tools/stepmem.py`` passes its own,
    which records memory. Each array is released once its last reader has
    used it: the IC50 input after its weight gradient, each loss's gradient
    blocks once added into the embedding gradients, and each projector's
    masks, tape and embedding gradient inside that projector's task.
    """
    enter = enter or (lambda stage: None)
    rows = len(labels)

    enter("proj_forward")
    masks = {m: dropout_masks(model.projectors[m].params, rows, rngs["dropout"])
             for m in MODALITY_ORDER}

    def forward(m):
        return project(model.projectors[m], raw[m], "train", masks.pop(m))

    projected = task_map(forward, MODALITY_ORDER)
    feats = {m: y for m, (y, _) in zip(MODALITY_ORDER, projected)}
    tapes = {m: tape for m, (_, tape) in zip(MODALITY_ORDER, projected)}
    del projected

    enter("bimodal")
    batch = Batch(embeddings=feats, ic50_labels=labels, ic50_mask=labels >= 0)
    bi = clip_bimodal(batch, cfg.tau)
    _require_finite("bimodal", bi.value)

    enter("ic50")
    # the fused input is held by the tape alone, so the backward frees it after its dW
    logits, ic50_tape = ic50_forward(model.ic50_head,
                                     np.concatenate([feats[m] for m in MODALITY_ORDER], axis=1),
                                     "train",
                                     dropout_masks(model.ic50_head.params, rows, rngs["dropout"]))
    ic50 = ic50_loss(batch, logits, weights, cfg.label_smoothing)
    del logits
    _require_finite("ic50", ic50.value)
    head_grads, dfused = backward(ic50_tape, ic50.logit_grad)
    del ic50_tape
    enter("other")
    head_grads = dict(mlp_tensor_items("ic50", model.ic50_head.params.specs, head_grads))
    for g in head_grads.values():
        g *= cfg.lambda_ic50  # an array backward made; g * s rounds like s * g
    enter("adam")
    update(head_grads)
    enter("other")
    del head_grads

    emb_grads = {m: cfg.lambda_ic50 * g
                 for m, g in zip(MODALITY_ORDER, np.split(dfused, 4, axis=1))}
    del dfused
    for m in list(bi.grads):
        emb_grads[m] += cfg.lambda_bi * bi.grads.pop(m)
    # modality importance comes from the bimodal + IC50 objectives only; the norm is a
    # numpy sum, not np.linalg.norm's BLAS dot, whose rounding depends on the thread count
    norms = [float(np.sqrt(np.square(emb_grads[m]).sum())) for m in MODALITY_ORDER]
    record(history, norms)
    gbar = smoothed(history, cfg.scheduler.decay)
    decision = decide(gbar, cfg.scheduler, rngs["scheduler"])

    active = tuple(m for m in MODALITY_ORDER if m is not decision.dropped)
    enter("volume")
    vol = volume_contrastive(batch, decision.anchor, active, cfg.tau)
    _require_finite("volume", vol.value)
    enter("other")
    for m in list(vol.grads):
        emb_grads[m] += cfg.lambda_vol * vol.grads.pop(m)

    total = cfg.lambda_vol * vol.value + cfg.lambda_bi * bi.value + cfg.lambda_ic50 * ic50.value
    _require_finite("total", total)
    losses = {"volume": vol.value, "bimodal": bi.value, "ic50": ic50.value, "total": total}

    def backprop(m):
        proj_grads, _ = backward(tapes.pop(m), emb_grads.pop(m), input_grad=False)
        update(dict(mlp_tensor_items(f"proj.{m.short}", model.projectors[m].params.specs,
                                     proj_grads)))

    enter("proj_backward")
    task_map(backprop, MODALITY_ORDER)
    enter("other")
    return losses, decision, gbar, norms


def _require_finite(component: str, value: float) -> None:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{component} loss is {value}")


def alignment_volumes(model, tables, index, task_map):
    """Mean matched-tuple and mismatched-tuple volumes in eval mode.

    The tuples are the first n <= ALIGNMENT_EVAL_CAP rows of the ``index`` that
    ``_manifest_index`` builds. Mismatched tuple i takes row (i + k) mod n of the
    k-th modality in MODALITY_ORDER, so it mixes four distinct quadruplets only
    when n >= 4; with fewer, the shifts wrap onto a repeat. The four eval
    projections run as the tasks of ``task_map``, as a step's forwards do;
    ``train`` passes its run's map.
    """
    rows = index[:ALIGNMENT_EVAL_CAP]

    def eval_projection(m):
        return project(model.projectors[m], tables[m].rows[rows[:, m]], "eval")[0]

    feats = task_map(eval_projection, MODALITY_ORDER)
    pos = tuple_volumes(feats)
    mis = tuple_volumes([np.roll(f, -k, axis=0) for k, f in enumerate(feats)])
    return float(np.mean(pos)), float(np.mean(mis))


def _model_config(cfg: TrainConfig, in_dims, epochs_done, adam_t, history):
    return {
        "format": "alignment",
        "train_config": cfg.to_dict(),
        "in_dims": {m.short: int(in_dims[m]) for m in MODALITY_ORDER},
        "epochs_done": int(epochs_done),
        "adam_t": int(adam_t),
        "sched_history": {m.short: list(history[m]) for m in MODALITY_ORDER},
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


def _empty_model(in_dims, cfg: TrainConfig) -> AlignmentModel:
    """float32 heads of the run's shapes, allocated from their specs for assign_named to fill."""
    return AlignmentModel(
        projectors={m: Head(empty_params(projector_specs(in_dims[m], cfg.proj_hidden,
                                                         cfg.shared_dim)))
                    for m in MODALITY_ORDER},
        ic50_head=Head(empty_params(ic50_specs(cfg.shared_dim, cfg.ic50_hidden))),
    )


def save_model_checkpoint(path, model, cfg, in_dims, epochs_done, adam, history):
    ckpt.save_checkpoint(
        path,
        dict(_state_items(model, adam)),
        _model_config(cfg, in_dims, epochs_done, adam.t, history),
    )


def _read_run_checkpoint(path):
    """A checkpoint ``train`` wrote, as (tensors, config, TrainConfig, in_dims, history).

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
            history[m].extend(float(x) for x in config["sched_history"][m.short])
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
    """Rebuild an AlignmentModel (float32 masters) from a run checkpoint.

    The heads are allocated from their specs and filled from the checkpoint's
    arrays; no initial model is drawn only to be overwritten.
    """
    tensors, config, cfg, in_dims, _ = _read_run_checkpoint(path)
    model = _empty_model(in_dims, cfg)
    assign_named(named_tensors(model), tensors)
    return model, cfg, config


def train(tables, quads, cfg: TrainConfig, out_dir=None, resume=None) -> TrainResult:
    """Full pre-training run: per-epoch shuffling, stepping, checkpointing.

    With ``out_dir`` set, writes epoch-NNNN.ckpt after every epoch, final.ckpt
    at the end (a hard link to the last epoch's file, which holds the same
    bytes; serialized only when no epoch ran), run.log.jsonl (deterministic
    records) and run.timing.jsonl (per step: wall times, whole and by stage,
    and the process's peak RSS so far). ``resume`` restarts from an
    epoch-boundary checkpoint and reproduces the uninterrupted run exactly.
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
    # a resumed run restores every tensor below, so it draws no initial model
    model = _new_model(in_dims, cfg) if resume is None else _empty_model(in_dims, cfg)
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

    index, ic50_labels = _manifest_index(quads)
    weights = _dataset_weights(ic50_labels)
    records, timings = [], []

    def update(grads):  # one head's gradients, handed over by train_step
        adam_step(params, grads, adam, cfg.lr)

    def log_alignment(epochs_done, epoch_losses=None):
        pos, mis = alignment_volumes(model, tables, index, task_map)
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

    # One map for the projector tasks of every step and alignment eval in the run:
    # pinned_map where a batch's GEMM work reaches POOL_MIN_GEMM_WORK, else serial_map.
    # A mapping run holds BLAS at one thread for the whole loop: a two-thread OpenBLAS
    # spin-waits on the second core after each GEMM, which the tasks' worker thread needs.
    # It also sets glibc's malloc to keep what a step frees for the next step, on either
    # thread. A looping run keeps the thread count it was given and malloc's defaults.
    pooled = cfg.batch_size * sum(s.in_dim * s.out_dim for head in model.projectors.values()
                                  for s in head.params.specs) >= POOL_MIN_GEMM_WORK
    task_map = pinned_map if pooled else serial_map
    if pooled:
        keep_freed_memory()
    with one_blas_thread() if pooled else nullcontext():
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
                raw = {m: tables[m].rows[index[rows, m]] for m in MODALITY_ORDER}
                t0 = time.perf_counter()
                stage_ms = {}
                adam.t += 1  # once per step: every head's update has the same bias corrections
                try:
                    losses, decision, gbar, norms = train_step(
                        model, raw, ic50_labels[rows], history, weights, cfg, rngs, update,
                        task_map, enter=stage_clock(stage_ms),
                    )
                except NonFiniteLoss as e:
                    raise NonFiniteLoss(f"step {step}: {e}") from None
                wall_ms = _ms_since(t0)
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
                peak = peak_rss_bytes()
                timings.append({"kind": "step", "step": step, "wall_ms": wall_ms,
                                "stage_ms": stage_ms,
                                "peak_rss_mb": None if peak is None else peak / 2**20})
                step += 1
            log_alignment(epoch + 1, epoch_losses)
            if out_dir is not None:
                save_model_checkpoint(out_dir / f"epoch-{epoch:04d}.ckpt", model, cfg, in_dims,
                                      epoch + 1, adam, history)

    result = TrainResult(model=model, records=records, timings=timings)
    if out_dir is not None:
        final = out_dir / "final.ckpt"
        if cfg.epochs > 0:  # the last epoch's checkpoint holds this state, byte for byte
            ckpt.link_atomically(out_dir / f"epoch-{cfg.epochs - 1:04d}.ckpt", final)
        else:
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
    The folds' pairs hold table rows: split with the two tables' ids as
    ``make_split``'s universes.

    The folds' heads train concurrently through ``pinned_map``. Each fold
    draws its init, shuffle and dropout from its own substreams, so its head's
    bytes do not depend on which thread trains it or when. The test folds are
    then scored one after another on the calling thread, so only one test-fold
    forward is held at a time.
    """
    f_s, _ = project(model.projectors[Modality.SMILES], smiles_table.rows, "eval")
    f_p, _ = project(model.projectors[Modality.PROTEIN], protein_table.rows, "eval")

    def train_head(fold):
        head = build_dti_head(
            model.shared_dim, int(substream(cfg.seed, "dti-init", fold.index).integers(2**63))
        )
        cast_params(head.params, np.float32)
        specs = head.params.specs
        params = dict(mlp_tensor_items("dti", specs, head.params.layers))
        adam = init_adam(params)

        xs, xp, y = fold.train.pairs.T
        n = len(y)
        bs = min(cfg.batch_size, n)
        for epoch in range(cfg.dti_epochs):
            order = substream(cfg.seed, "dti-shuffle", fold.index, epoch).permutation(n)
            rng = substream(cfg.seed, "dti-dropout", fold.index, epoch)
            for start in range(0, n, bs):
                rows = order[start : start + bs]
                logits, tape = dti_forward(head, f_s[xs[rows]], f_p[xp[rows]], "train",
                                           dropout_masks(head.params, len(rows), rng))
                _, dlogits = cross_entropy(logits, y[rows], np.ones(len(rows)), 0.0)
                grads, _ = backward(tape, dlogits, input_grad=False)
                adam.t += 1
                adam_step(params, dict(mlp_tensor_items("dti", specs, grads)), adam, cfg.dti_lr)
        return head

    results = []
    for fold, head in zip(folds, pinned_map(train_head, folds)):
        ts, tp, ty = fold.test.pairs.T
        logits, _ = dti_forward(head, f_s[ts], f_p[tp], "eval")
        scores = softmax(logits, axis=1)[0][:, 1]
        metrics = {
            "fold": fold.index,
            "auroc": evaluation.auroc(scores, ty),
            "auprc": evaluation.auprc(scores, ty),
            **evaluation.classification_metrics(scores, ty),
        }
        results.append((head, metrics))
    return results
