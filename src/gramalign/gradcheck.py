"""Central finite-difference verification of every analytic gradient.

Each component reports the worst vector-level relative error
max|a - f| / max(max|a|, max|f|, tiny) over the requested number of random
seeds, using step h = 1e-5 in float64 with dropout disabled. Thresholds:
1e-6 for the tuple-volume gradient, 1e-5 everywhere else.
"""

from dataclasses import dataclass

import numpy as np

from .data import NUM_IC50_CLASSES, class_weights
from .errors import SingularGram
from .heads import (
    Head,
    backward,
    dti_forward,
    dti_specs,
    ic50_forward,
    ic50_specs,
    init_params,
    mlp_tensor_items,
    project,
    projector_specs,
)
from .losses import Batch, clip_bimodal, ic50_loss, volume_contrastive
from .modality import MODALITY_ORDER, Modality
from .numerics import gram_volume_grad, volume_unclamped
from .seeding import substream

FD_STEP = 1e-5
TOL_VOLUME = 1e-6
TOL_DEFAULT = 1e-5


@dataclass
class ComponentResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _rel_err(analytic, fd) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    scale = max(np.max(np.abs(analytic), initial=0.0), np.max(np.abs(fd), initial=0.0), 1e-12)
    err = float(np.max(np.abs(analytic - fd), initial=0.0) / scale)
    return err if np.isfinite(err) else np.inf  # a NaN error would vanish in max(), so fail it


def _fd_on_array(fn, arr, h=FD_STEP):
    """Central differences of scalar fn() with respect to every entry of arr."""
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + h
        up = fn()
        arr[idx] = old - h
        down = fn()
        arr[idx] = old
        g[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return g


def _worst(fn, pairs):
    """Worst error of each (array, analytic gradient) pair against central differences of fn()."""
    return max(_rel_err(grad, _fd_on_array(fn, arr)) for arr, grad in pairs)


def _head_worst(seed, stream, specs, forward, inputs=1):
    """Worst error over a head's parameter tensors and its input gradient, eval mode.

    The head is built from ``specs``; its input rows are ``inputs`` random
    blocks that ``forward`` takes as separate arguments.
    """
    rng = substream(seed, stream)
    head = Head(init_params(specs, seed))
    xs = [rng.standard_normal((2, head.in_dim // inputs)) for _ in range(inputs)]
    probe = rng.standard_normal((2, head.out_dim))
    _, tape = forward(head, *xs, "eval")
    grads, gin = backward(tape, probe)

    def fn():
        return float(np.sum(forward(head, *xs, "eval")[0] * probe))

    params = head.params
    named = zip(mlp_tensor_items("t", params.specs, params.layers),
                mlp_tensor_items("t", params.specs, grads))
    fd_in = np.concatenate([_fd_on_array(fn, x) for x in xs], axis=1)
    return max(_worst(fn, [(arr, grad) for (_, arr), (_, grad) in named]), _rel_err(gin, fd_in))


def check_gram_volume_grad(seed: int) -> float:
    rng = substream(seed, "gc-volume")
    n = int(rng.integers(2, 5))
    d = int(rng.integers(4, 9))
    f = rng.standard_normal((n, d))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    try:
        vg = gram_volume_grad(list(f))
    except SingularGram:
        return 0.0
    return _worst(lambda: volume_unclamped(f), [(f, np.stack(vg.per_vector))])


def check_projector(seed: int) -> float:
    return _head_worst(seed, "gc-proj", projector_specs(10, 12, 8), project)


def check_ic50_head(seed: int) -> float:
    return _head_worst(seed, "gc-ic50h", ic50_specs(4, 8), ic50_forward)


def check_dti_head(seed: int) -> float:
    return _head_worst(seed, "gc-dtih", dti_specs(4, (8, 6)), dti_forward, inputs=2)


def _random_batch(rng, batch_size, dim, with_labels=False):
    emb = {}
    for m in MODALITY_ORDER:
        f = rng.standard_normal((batch_size, dim))
        emb[m] = f / np.linalg.norm(f, axis=1, keepdims=True)
    labels = mask = None
    if with_labels:
        labels = rng.integers(0, NUM_IC50_CLASSES, size=batch_size)
        mask = rng.random(batch_size) < 0.7
    return Batch(embeddings=emb, ic50_labels=labels, ic50_mask=mask)


def check_volume_contrastive(seed: int) -> float:
    rng = substream(seed, "gc-vol-loss")
    batch_size = int(rng.integers(2, 5))
    dim = int(rng.integers(4, 9))
    batch = _random_batch(rng, batch_size, dim)
    anchor = MODALITY_ORDER[int(rng.integers(0, 4))]
    if rng.random() < 0.5:
        active = MODALITY_ORDER
    else:
        inactive = [m for m in MODALITY_ORDER if m is not anchor][int(rng.integers(0, 3))]
        active = tuple(m for m in MODALITY_ORDER if m is not inactive)
    out = volume_contrastive(batch, anchor, active, tau=0.5)
    return _worst(lambda: volume_contrastive(batch, anchor, active, tau=0.5).value,
                  [(batch.embeddings[m], out.grads[m]) for m in active])


def check_clip_bimodal(seed: int) -> float:
    rng = substream(seed, "gc-clip")
    batch_size = int(rng.integers(2, 5))
    dim = int(rng.integers(4, 9))
    batch = _random_batch(rng, batch_size, dim)
    out = clip_bimodal(batch, tau=0.3)
    return _worst(lambda: clip_bimodal(batch, tau=0.3).value,
                  [(batch.embeddings[m], out.grads[m]) for m in (Modality.SMILES, Modality.PROTEIN)])


def check_ic50_loss(seed: int) -> float:
    rng = substream(seed, "gc-ic50l")
    batch_size = int(rng.integers(2, 5))
    batch = _random_batch(rng, batch_size, 4, with_labels=True)
    if batch.ic50_mask is not None and not batch.ic50_mask.any():
        batch.ic50_mask[0] = True
    logits = rng.standard_normal((batch_size, NUM_IC50_CLASSES))
    weights = class_weights([0, 1, 2, 0, 1, 2, 0])
    out = ic50_loss(batch, logits, weights, smoothing=0.1)
    return _worst(lambda: ic50_loss(batch, logits, weights, smoothing=0.1).value,
                  [(logits, out.logit_grad)])


COMPONENTS = (
    ("gram_volume_grad", check_gram_volume_grad, TOL_VOLUME),
    ("projector", check_projector, TOL_DEFAULT),
    ("ic50_head", check_ic50_head, TOL_DEFAULT),
    ("dti_head", check_dti_head, TOL_DEFAULT),
    ("volume_contrastive", check_volume_contrastive, TOL_DEFAULT),
    ("clip_bimodal", check_clip_bimodal, TOL_DEFAULT),
    ("ic50_loss", check_ic50_loss, TOL_DEFAULT),
)


def run_gradcheck(seed: int = 0, trials: int = 50):
    """Run every component over ``trials`` seeds; returns per-component results."""
    results = []
    for name, fn, tol in COMPONENTS:
        worst = 0.0
        for k in range(trials):
            worst = max(worst, fn(seed * 100003 + k))
        results.append(ComponentResult(name=name, max_rel_err=worst, tolerance=tol))
    return results
