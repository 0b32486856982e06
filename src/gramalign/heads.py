"""Trainable networks: modality projectors, IC50 classifier, DTI classifier.

All forward passes cache what the hand-rolled backward pass needs in a
ForwardTape; gradients are exact (erf-form GELU, full LayerNorm Jacobian,
inverted-dropout masks, L2-normalization Jacobian) and are verified against
central finite differences in the test suite and the gradcheck command.

Inputs are ``(rows, dim)`` batches. Math runs in float64 regardless of
parameter dtype; the trainer keeps float32 masters and upcasts per step.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .data import NUM_IC50_CLASSES
from .errors import DimensionMismatch, MissingTensor, ShapeMismatch, TapeMismatch, ZeroVector
from .modality import MODALITY_ORDER, Modality

LN_EPS = 1e-5
NORM_EPS = 1e-12
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

PROJ_DROPOUT = 0.1
HEAD_DROPOUT = 0.3
DTI_HIDDEN = (512, 256)


def gelu(x):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str | None = None  # "gelu" | "relu" | None
    layer_norm: bool = False
    dropout: float = 0.0


@dataclass
class LayerParams:
    w: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None


@dataclass
class MlpParams:
    specs: tuple
    layers: list


@dataclass
class ForwardTape:
    """Per-call cache consumed by backward() for exactly that call."""

    params: MlpParams
    out_shape: tuple
    stages: list = field(default_factory=list)
    # set only for projection heads (final L2 normalization)
    unit_out: np.ndarray | None = None
    prenorm_norms: np.ndarray | None = None


@dataclass
class Head:
    """One trainable MLP: a modality projector, the IC50 head or a DTI head."""

    params: MlpParams

    @property
    def in_dim(self):
        return self.params.specs[0].in_dim

    @property
    def out_dim(self):
        return self.params.specs[-1].out_dim


@dataclass
class AlignmentModel:
    """The pre-training trainables: four projectors plus the IC50 head."""

    projectors: dict
    ic50_head: Head

    @property
    def shared_dim(self):
        return self.projectors[Modality.SMILES].out_dim


def projector_specs(in_dim, hidden, out_dim):
    """Three linear layers; hidden layers carry GELU + LayerNorm + Dropout."""
    return (
        LayerSpec(in_dim, hidden, "gelu", True, PROJ_DROPOUT),
        LayerSpec(hidden, out_dim, "gelu", True, PROJ_DROPOUT),
        LayerSpec(out_dim, out_dim),
    )


def ic50_specs(shared_dim, hidden):
    """Two-layer classifier over the fused [f^s; f^t; f^h; f^p] features."""
    return (
        LayerSpec(4 * shared_dim, hidden, "gelu", False, HEAD_DROPOUT),
        LayerSpec(hidden, NUM_IC50_CLASSES),
    )


def dti_specs(shared_dim, hidden=DTI_HIDDEN):
    """Binary interaction classifier over concatenated [f^s; f^p]."""
    h1, h2 = hidden
    return (
        LayerSpec(2 * shared_dim, h1, "relu", False, HEAD_DROPOUT),
        LayerSpec(h1, h2, "relu", False, HEAD_DROPOUT),
        LayerSpec(h2, 2),
    )


def init_params(specs, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, identity LayerNorm."""
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-bound, bound, size=(spec.in_dim, spec.out_dim))
        b = np.zeros(spec.out_dim)
        gamma = np.ones(spec.out_dim) if spec.layer_norm else None
        beta = np.zeros(spec.out_dim) if spec.layer_norm else None
        layers.append(LayerParams(w=w, b=b, gamma=gamma, beta=beta))
    return MlpParams(specs=tuple(specs), layers=layers)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def mlp_forward(params: MlpParams, x, mode="eval", rng=None):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    h = np.asarray(x, dtype=np.float64)
    in_dim = params.specs[0].in_dim
    if h.ndim != 2 or h.shape[1] != in_dim:
        raise DimensionMismatch(f"expected input dim {in_dim}, got shape {h.shape}")
    tape = ForwardTape(params=params, out_shape=())
    for spec, layer in zip(params.specs, params.layers):
        cache = {"x": h}
        h = h @ np.asarray(layer.w, dtype=np.float64) + np.asarray(layer.b, dtype=np.float64)
        if spec.activation is not None:
            cache["pre"] = h
            h = gelu(h) if spec.activation == "gelu" else np.maximum(h, 0.0)
        if spec.layer_norm:
            mu = h.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(h.var(axis=1, keepdims=True) + LN_EPS)
            xhat = (h - mu) * inv
            cache["xhat"], cache["inv"] = xhat, inv
            h = xhat * np.asarray(layer.gamma, dtype=np.float64) + np.asarray(
                layer.beta, dtype=np.float64
            )
        if spec.dropout > 0.0 and mode == "train":
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            mask = rng.random(h.shape) >= spec.dropout
            cache["mask"] = mask
            h = h * mask / (1.0 - spec.dropout)
        tape.stages.append(cache)
    tape.out_shape = h.shape
    return h, tape


def mlp_backward(tape: ForwardTape, gy):
    params = tape.params
    gy = np.asarray(gy, dtype=np.float64)
    grads = []
    for spec, layer, cache in zip(
        reversed(params.specs), reversed(params.layers), reversed(tape.stages)
    ):
        if "mask" in cache:
            gy = gy * cache["mask"] / (1.0 - spec.dropout)
        dgamma = dbeta = None
        if spec.layer_norm:
            xhat, inv = cache["xhat"], cache["inv"]
            dgamma = (gy * xhat).sum(axis=0)
            dbeta = gy.sum(axis=0)
            dxhat = gy * np.asarray(layer.gamma, dtype=np.float64)
            gy = inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            )
        if spec.activation == "gelu":
            gy = gy * gelu_grad(cache["pre"])
        elif spec.activation == "relu":
            gy = gy * (cache["pre"] > 0.0)
        dw = cache["x"].T @ gy
        db = gy.sum(axis=0)
        gy = gy @ np.asarray(layer.w, dtype=np.float64).T
        grads.append(LayerParams(w=dw, b=db, gamma=dgamma, beta=dbeta))
    grads.reverse()
    return grads, gy


def project(head: Head, raw, mode="eval", rng=None):
    """Map raw embeddings into the shared space; rows come out unit-norm."""
    y, tape = mlp_forward(head.params, raw, mode, rng)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms <= NORM_EPS):
        k = int(np.argmax(norms <= NORM_EPS))
        raise ZeroVector(f"pre-normalization output row {k} has norm {norms[k, 0]:.3e}")
    out = y / norms
    tape.unit_out = out
    tape.prenorm_norms = norms
    return out, tape


def ic50_forward(head: Head, f_fused, mode="eval", rng=None):
    """IC50 activity-class logits from fused [f^s; f^t; f^h; f^p] features."""
    return mlp_forward(head.params, f_fused, mode, rng)


def dti_forward(head: Head, f_s, f_p, mode="eval", rng=None):
    """Two interaction logits from the [f^s; f^p] concatenation."""
    f_s = np.asarray(f_s, dtype=np.float64)
    f_p = np.asarray(f_p, dtype=np.float64)
    if f_s.shape != f_p.shape:
        raise DimensionMismatch(f"drug/protein feature shapes differ: {f_s.shape} vs {f_p.shape}")
    fused = np.concatenate([f_s, f_p], axis=-1)
    return mlp_forward(head.params, fused, mode, rng)


def backward(tape: ForwardTape, upstream_grad):
    """Exact parameter and input gradients for one recorded forward call.

    For projection heads the upstream gradient is taken with respect to the
    unit-normalized output and is chained through the normalization Jacobian
    (I/||u|| - u u^T/||u||^3) before the MLP stages.
    """
    gy = np.asarray(upstream_grad, dtype=np.float64)
    if gy.shape != tape.out_shape:
        raise TapeMismatch(f"upstream grad shape {gy.shape} != forward output {tape.out_shape}")
    if tape.unit_out is not None:
        u, norms = tape.unit_out, tape.prenorm_norms
        gy = (gy - u * (u * gy).sum(axis=1, keepdims=True)) / norms
    return mlp_backward(tape, gy)


# ---------------------------------------------------------------------------
# model assembly and tensor naming
# ---------------------------------------------------------------------------


def build_model(in_dims: dict, shared_dim, proj_hidden, ic50_hidden, seed: int) -> AlignmentModel:
    from .seeding import substream

    projectors = {}
    for m in MODALITY_ORDER:
        child = int(substream(seed, "init", m.short).integers(2**63))
        params = init_params(projector_specs(in_dims[m], proj_hidden, shared_dim), child)
        projectors[m] = Head(params=params)
    child = int(substream(seed, "init", "ic50").integers(2**63))
    ic50 = Head(params=init_params(ic50_specs(shared_dim, ic50_hidden), child))
    return AlignmentModel(projectors=projectors, ic50_head=ic50)


def build_dti_head(shared_dim, seed: int) -> Head:
    return Head(params=init_params(dti_specs(shared_dim), seed))


def mlp_tensor_items(prefix: str, specs, layers):
    """Checkpoint-ordered (name, array) pairs for one MLP's layers.

    ``layers`` holds LayerParams: the live parameters (the arrays are
    referenced, not copied) or the gradients backward() returns for them, so
    parameters and gradients carry the same names in the same order.
    """
    items = []
    for i, (spec, layer) in enumerate(zip(specs, layers)):
        items.append((f"{prefix}.L{i}.w", layer.w))
        items.append((f"{prefix}.L{i}.b", layer.b))
        if spec.layer_norm:
            items.append((f"{prefix}.ln{i}.g", layer.gamma))
            items.append((f"{prefix}.ln{i}.b", layer.beta))
    return items


def named_tensors(model: AlignmentModel):
    heads = {f"proj.{m.short}": model.projectors[m] for m in MODALITY_ORDER}
    heads["ic50"] = model.ic50_head
    return [item for prefix, head in heads.items()
            for item in mlp_tensor_items(prefix, head.params.specs, head.params.layers)]


def cast_params(params: MlpParams, dtype) -> None:
    """Re-bind every array at the given dtype (trainer keeps float32 masters)."""
    for layer in params.layers:
        layer.w = layer.w.astype(dtype)
        layer.b = layer.b.astype(dtype)
        if layer.gamma is not None:
            layer.gamma = layer.gamma.astype(dtype)
            layer.beta = layer.beta.astype(dtype)


def assign_named(model_items, tensors: dict) -> None:
    """Copy checkpoint tensors into live arrays, each name present and size-checked."""
    for name, arr in model_items:
        src = tensors.get(name)
        if src is None:
            raise MissingTensor(f"checkpoint is missing tensor {name!r}")
        if src.size != arr.size:
            raise ShapeMismatch(f"tensor {name!r}: checkpoint {src.shape}, model {arr.shape}")
        arr[...] = src.reshape(arr.shape)
