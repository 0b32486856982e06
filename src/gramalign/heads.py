"""Trainable networks: modality projectors, IC50 classifier, DTI classifier.

A forward has one switch, ``mode``. A ``"train"`` forward applies the dropout
masks it is given, which ``dropout_masks`` draws, and returns the ForwardTape
the hand-rolled backward reads; an ``"eval"`` forward caches nothing and
returns None for the tape. The tape holds one dict per stage: the layer input
``x``; the activation's derivative ``dact``, for GELU the float64 factor
Phi(pre) + pre * phi(pre) (computed once, in the forward, by the operations the
test oracle ``gelu_grad`` in ``tests/oracles.py`` runs) and for ReLU the bool
``pre > 0``; LayerNorm's ``xhat`` and ``inv``; and the dropout ``mask``. A
stage whose input is the previous stage's LayerNorm output (a projector's
layers 1 and 2) keeps no ``x``: backward() re-forms it just before that layer's
weight-gradient GEMM, and frees it after, from the previous stage's ``xhat``,
gamma, beta and mask through ``_stage_output``, the function the forward forms
every stage's output with, so it has the same bits. backward() reads the head's
current W, gamma and beta, so the parameters must not change between a forward
and its backward. A tape is read once: backward() drops each cached array at
its last read, so a stage's arrays go as its gradient is formed, and a second
backward() on the same tape raises TapeMismatch. Gradients are exact (erf-form
GELU, full LayerNorm Jacobian, inverted-dropout masks, L2-normalization
Jacobian) and are verified against central finite differences in the test suite
and the gradcheck command, on tapes of ``"train"`` forwards of heads with
dropout 0, whose arithmetic is eval's. Training calls backward with
``input_grad=False`` wherever the gradient with respect to the head's input is
discarded, which skips the first layer's ``gy @ W.T``. Both modes run GELU,
LayerNorm's centring and the final normalization in place on arrays no tape
holds.

Inputs are ``(rows, dim)`` batches. Math runs in float64 regardless of
parameter or input dtype; the trainer keeps float32 masters and upcasts per
step. Stage 0's ``x`` is a reference to the caller's input, not a copy (in
training, the float32 table rows), upcast exactly wherever a GEMM reads it;
the caller must not write to that array before the tape's backward() call.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .data import NUM_IC50_CLASSES
from .errors import DimensionMismatch, MissingTensor, ShapeMismatch, TapeMismatch, ZeroVector
from .modality import MODALITY_ORDER, Modality
from .seeding import substream

LN_EPS = 1e-5
NORM_EPS = 1e-12
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

PROJ_DROPOUT = 0.1
HEAD_DROPOUT = 0.3
DTI_HIDDEN = (512, 256)


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
    """Per-call cache consumed by backward() for exactly that call.

    ``stages[0]["x"]`` is the caller's input array itself, in its own dtype,
    so writing to that array before backward() changes the gradients. A stage
    after a LayerNorm stage has no ``x``; backward() re-forms it from the
    previous stage's cache and ``params``' current gamma and beta, so the
    parameters must not change before backward() either. backward() empties
    the tape as it reads it: ``stages``, ``unit_out`` and ``prenorm_norms``
    are None afterwards, and stage 0's input is freed after its weight
    gradient when the caller holds no other reference to it.
    """

    params: MlpParams
    out_shape: tuple
    stages: list
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


def empty_params(specs) -> MlpParams:
    """float32 parameters of the specs' shapes, left uninitialised for assign_named to fill."""
    def empty(*shape):
        return np.empty(shape, dtype=np.float32)
    layers = [LayerParams(w=empty(s.in_dim, s.out_dim), b=empty(s.out_dim),
                          gamma=empty(s.out_dim) if s.layer_norm else None,
                          beta=empty(s.out_dim) if s.layer_norm else None) for s in specs]
    return MlpParams(specs=tuple(specs), layers=layers)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _gelu_factor(x, phi):
    """The oracle ``gelu_grad(x)`` bit for bit, with Phi(x) = ``phi`` from the forward."""
    d = -0.5 * x
    d *= x
    np.exp(d, out=d)
    d *= x * _INV_SQRT_2PI
    d += phi
    return d


def _stage_output(spec, layer, h, mask, out=None):
    """A stage's output from ``h``, its activation or, with LayerNorm, its ``xhat``.

    Gamma and beta where the stage has LayerNorm, then ``mask`` and 1/(1 - p)
    where a mask is given, into ``out`` (which may be ``h``) or a new array.
    The forward and backward()'s re-form both call it, so their bits match.
    """
    if spec.layer_norm:
        h = out = np.multiply(h, layer.gamma, out=out)
        h += layer.beta
    if mask is not None:
        h = np.multiply(h, mask, out=out)
        h /= 1.0 - spec.dropout
    return h


def dropout_masks(params: MlpParams, rows, rng):
    """One bool keep-mask per layer for a ``"train"`` forward of ``rows`` rows; None where p = 0.

    Each mask is ``rng.random((rows, out_dim)) >= p``, drawn in layer order.
    Masks drawn before the forward runs leave the forward's bytes free of
    when, and on which thread, it runs.
    """
    return [rng.random((rows, s.out_dim)) >= s.dropout if s.dropout > 0.0 else None
            for s in params.specs]


def mlp_forward(params: MlpParams, x, mode="eval", masks=None):
    """The head's output and, in ``"train"`` mode, the tape backward() reads; None in ``"eval"``.

    A ``"train"`` forward of a head with dropout takes ``masks``, one per
    layer as ``dropout_masks`` draws them for these rows.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    h = np.asarray(x)
    in_dim = params.specs[0].in_dim
    if h.ndim != 2 or h.shape[1] != in_dim:
        raise DimensionMismatch(f"expected input dim {in_dim}, got shape {h.shape}")
    stages = []
    # Each in-place step below acts on an array made in this loop and not cached,
    # and rounds exactly like its out-of-place form. Stage 0 caches the input as
    # given; the float64 upcast, which is exact, is made where a GEMM reads it.
    # A LayerNorm stage's output is not cached: backward re-forms it.
    keep_x = True
    for i, (spec, layer) in enumerate(zip(params.specs, params.layers)):
        cache = {"x": h} if train and keep_x else {}
        keep_x = not spec.layer_norm
        h = np.asarray(h, dtype=np.float64) @ np.asarray(layer.w, dtype=np.float64)
        h += layer.b
        if spec.activation == "gelu":
            # halving is exact above the subnormal range, so h * Phi rounds like
            # gelu's 0.5 * h * (1 + erf)
            phi = h * _INV_SQRT2
            erf(phi, out=phi)
            phi += 1.0
            phi *= 0.5
            if train:
                cache["dact"] = _gelu_factor(h, phi)
            h *= phi
            del phi
        elif spec.activation == "relu":
            if train:
                cache["dact"] = h > 0.0
            np.maximum(h, 0.0, out=h)
        mask = None
        if spec.dropout > 0.0 and train:
            if masks is None or masks[i] is None:
                raise ValueError("train-mode dropout needs a mask per dropout layer")
            if masks[i].shape != h.shape:
                raise ShapeMismatch(f"layer {i} mask {masks[i].shape} != output {h.shape}")
            mask = cache["mask"] = masks[i]
        if spec.layer_norm:
            # h.var's own sum of squared deviations, the deviations then reused for xhat
            h -= h.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(np.square(h).sum(axis=1, keepdims=True) / h.shape[1] + LN_EPS)
            h *= inv
            if train:  # xhat is kept, so the stage's output goes to a new array
                cache["xhat"], cache["inv"] = h, inv
        h = _stage_output(spec, layer, h, mask, out=None if "xhat" in cache else h)
        stages.append(cache)
    return h, ForwardTape(params=params, out_shape=h.shape, stages=stages) if train else None


def backward(tape: ForwardTape, upstream_grad, input_grad=True):
    """Exact parameter gradients, and the input gradient, for one train-mode forward call.

    For projection heads the upstream gradient is taken with respect to the
    unit-normalized output and is chained through the normalization Jacobian
    (I/||u|| - u u^T/||u||^3) before the MLP stages. With ``input_grad=False``
    the first layer's ``gy @ W.T`` is not formed and None is returned in its
    place; the parameter gradients are unchanged. The tape is consumed: each
    cached array is dropped once read, a stage's before the next GEMM.
    """
    if tape.stages is None:
        raise TapeMismatch("this tape was already read by backward(); a tape is read once")
    gy = np.asarray(upstream_grad, dtype=np.float64)
    if gy.shape != tape.out_shape:
        raise TapeMismatch(f"upstream grad shape {gy.shape} != forward output {tape.out_shape}")
    stages, tape.stages = tape.stages, None
    if tape.unit_out is not None:
        u, norms = tape.unit_out, tape.prenorm_norms
        tape.unit_out = tape.prenorm_norms = None
        gy = (gy - u * (u * gy).sum(axis=1, keepdims=True)) / norms
        del u, norms
    specs, layers = tape.params.specs, tape.params.layers
    grads = []
    for i in reversed(range(len(stages))):
        spec, layer = specs[i], layers[i]
        # stage i's cache leaves the list here; stage i - 1's stays for re-forming x below
        cache = stages.pop()
        # gy may be the caller's array until a step below makes a new one; in-place
        # steps act only on arrays made here and round like their out-of-place forms
        if "mask" in cache:
            gy = gy * cache.pop("mask")
            gy /= 1.0 - spec.dropout
        dgamma = dbeta = None
        if spec.layer_norm:
            xhat, inv = cache.pop("xhat"), cache.pop("inv")
            dgamma = (gy * xhat).sum(axis=0)
            dbeta = gy.sum(axis=0)
            dxhat = gy * layer.gamma
            radial = dxhat * xhat
            radial = np.multiply(xhat, radial.mean(axis=1, keepdims=True), out=radial)
            dxhat -= dxhat.mean(axis=1, keepdims=True)
            dxhat -= radial
            dxhat *= inv
            gy = dxhat  # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            del xhat, inv, radial, dxhat
        if "dact" in cache:
            gy = gy * cache.pop("dact")
        x = cache.pop("x", None)
        if x is None:  # the previous stage's LayerNorm output, held only for this GEMM
            prev = stages[-1]
            x = _stage_output(specs[i - 1], layers[i - 1], prev["xhat"], prev.get("mask"))
        dw = np.asarray(x, dtype=np.float64).T @ gy
        del x
        db = gy.sum(axis=0)
        gy = gy @ np.asarray(layer.w, dtype=np.float64).T if i or input_grad else None
        grads.append(LayerParams(w=dw, b=db, gamma=dgamma, beta=dbeta))
    grads.reverse()
    return grads, gy


def project(head: Head, raw, mode="eval", masks=None):
    """Map raw embeddings into the shared space; rows come out unit-norm."""
    y, tape = mlp_forward(head.params, raw, mode, masks)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms <= NORM_EPS):
        k = int(np.argmax(norms <= NORM_EPS))
        raise ZeroVector(f"pre-normalization output row {k} has norm {norms[k, 0]:.3e}")
    y /= norms  # y is the forward's own array, which no tape holds
    if tape is not None:
        tape.unit_out, tape.prenorm_norms = y, norms
    return y, tape


def ic50_forward(head: Head, f_fused, mode="eval", masks=None):
    """IC50 activity-class logits from fused [f^s; f^t; f^h; f^p] features."""
    return mlp_forward(head.params, f_fused, mode, masks)


def dti_forward(head: Head, f_s, f_p, mode="eval", masks=None):
    """Two interaction logits from the [f^s; f^p] concatenation."""
    f_s = np.asarray(f_s, dtype=np.float64)
    f_p = np.asarray(f_p, dtype=np.float64)
    if f_s.shape != f_p.shape:
        raise DimensionMismatch(f"drug/protein feature shapes differ: {f_s.shape} vs {f_p.shape}")
    fused = np.concatenate([f_s, f_p], axis=-1)
    return mlp_forward(head.params, fused, mode, masks)


# ---------------------------------------------------------------------------
# model assembly and tensor naming
# ---------------------------------------------------------------------------


def build_model(in_dims: dict, shared_dim, proj_hidden, ic50_hidden, seed: int) -> AlignmentModel:
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
