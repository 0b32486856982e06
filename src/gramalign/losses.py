"""Training objectives: volume contrastive, CLIP-style bimodal, weighted IC50 CE.

Every loss returns its value plus exact gradients. All of them are softmax
cross-entropies, and ``softmax`` holds the one exponential they share. The
volume and bimodal losses return a gradient block only for the modalities
they reach, and the IC50 loss the gradient of its logits; the trainer weights
and sums the blocks into each modality's embedding gradient. The
volume contrastive loss regularizes each pair volume as sqrt(det + 1e-10), so
its value and gradients stay finite even when a tuple collapses to a singular
Gram matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import NUM_IC50_CLASSES
from .errors import DimensionMismatch
from .kernels import pair_volume_coeffs, pair_volumes
from .modality import MODALITY_ORDER, Modality

EPS_VOL = 1e-10
DEFAULT_TAU = 0.07
DEFAULT_SMOOTHING = 0.1


@dataclass
class Batch:
    """Projected per-modality embeddings plus optional IC50 annotations."""

    embeddings: dict  # Modality -> (B, d) float64, rows unit-norm
    ic50_labels: np.ndarray | None = None  # (B,) ints, read where mask is set
    ic50_mask: np.ndarray | None = None  # (B,) bool

    def __post_init__(self):
        sizes = {m: e.shape[0] for m, e in self.embeddings.items()}
        if len(set(sizes.values())) > 1:
            raise DimensionMismatch(f"batch sizes differ across modalities: {sizes}")
        if (self.ic50_labels is None) != (self.ic50_mask is None):
            raise DimensionMismatch("ic50_labels and ic50_mask must be given together")
        if self.ic50_mask is not None:
            if len(self.ic50_mask) != self.size:
                raise DimensionMismatch("ic50 mask length != batch size")
            picked = np.asarray(self.ic50_labels)[np.asarray(self.ic50_mask, dtype=bool)]
            if picked.size and not 0 <= picked.min() <= picked.max() < NUM_IC50_CLASSES:
                raise DimensionMismatch(f"masked ic50 labels must lie in 0..{NUM_IC50_CLASSES - 1}")

    @property
    def size(self) -> int:
        return next(iter(self.embeddings.values())).shape[0]


@dataclass
class LossOut:
    value: float
    grads: dict = field(default_factory=dict)  # Modality -> (B, d), only those the loss reaches
    diagnostics: dict = field(default_factory=dict)
    logit_grad: np.ndarray | None = None  # only ic50_loss sets this


def _checked_pair_volumes(batch, anchor, active, tau):
    """Checked volume-loss inputs: the non-anchors in canonical order and their pair volumes."""
    active = tuple(active)
    if anchor not in active:
        raise DimensionMismatch(f"anchor {anchor.name} not in active set")
    if len(active) not in (3, 4):
        raise DimensionMismatch(f"active set must have 3 or 4 modalities, got {len(active)}")
    for m in active:
        if m not in batch.embeddings:
            raise DimensionMismatch(f"batch is missing modality {m.name}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    others = [m for m in MODALITY_ORDER if m in active and m != anchor]
    stack = np.stack([batch.embeddings[m] for m in others])
    return others, pair_volumes(batch.embeddings[anchor], stack, EPS_VOL)


def softmax(a, axis, out=None):
    """(p, lse): the softmax of 2-D ``a`` along ``axis`` and its log-sum-exp, kept 2-D.

    One exponential, run in place on the shifted copy of ``a`` (made in ``out``
    if given), which becomes p. Each line is shifted by its own maximum, so every
    line's sum is at least 1 and neither p nor lse underflows, whatever the range
    of ``a``. p equals ``scipy.special.softmax(a, axis)`` byte for byte.
    """
    a_max = a.max(axis=axis, keepdims=True)
    p = np.subtract(a, a_max, out=out)
    np.exp(p, out=p)
    total = p.sum(axis=axis, keepdims=True)
    p /= total
    return p, np.log(total) + a_max


def cross_entropy(logits, labels, weights, smoothing):
    """(value, dlogits) of the label-smoothed CE of the n rows of ``logits``, weighted per row.

    Row i's target is q = (1 - smoothing) * onehot(labels[i]) + smoothing / C;
    the value is sum_i weights[i] * CE_i / n and dlogits = weights * (p - q) / n.
    """
    n, c = logits.shape
    p, lse = softmax(logits, axis=1)
    logp = logits - lse
    q = np.full((n, c), smoothing / c)
    q[np.arange(n), labels] += 1.0 - smoothing
    value = float(np.sum(weights * -(q * logp).sum(axis=1)) / n)
    p -= q
    return value, (weights[:, None] * p) / n


def _info_nce(s):
    """Row and column InfoNCE over a similarity matrix with diagonal positives.

    Returns (combined value, row-direction value, column-direction value,
    d(combined)/dS). The positive term is included in each denominator and
    the sum ranges over the full batch. dS is the row softmax's array, formed
    in place with the same roundings as ``((P_rows - I) + (P_cols - I)) / 2B``.
    S is consumed: the column softmax runs in its array once its diagonal is copied.
    """
    b = s.shape[0]
    diag = np.diag(s).copy()
    ds, lse_rows = softmax(s, axis=1)
    p_cols, lse_cols = softmax(s, axis=0, out=s)
    l_fwd = float(np.mean(lse_rows[:, 0] - diag))
    l_rev = float(np.mean(lse_cols[0] - diag))
    on_diag = np.arange(b), np.arange(b)  # the identity's ones; p - 0 is p off them
    ds[on_diag] -= 1.0
    p_cols[on_diag] -= 1.0
    ds += p_cols
    ds /= 2.0 * b
    return 0.5 * (l_fwd + l_rev), l_fwd, l_rev, ds


def volume_similarity_forward(batch: Batch, anchor: Modality, active, tau: float):
    """(B, B) similarity matrix S with S[i, j] = -V(anchor_j, non-anchors_i)/tau.

    The diagonal holds the positive tuples. Volumes use the epsilon-regularized
    square root sqrt(det + 1e-10).
    """
    _, pv = _checked_pair_volumes(batch, anchor, active, tau)
    return -pv.vol / tau


def _volume_weights(out: LossOut, vol, tau):
    """-dS/tau of the volume InfoNCE over S = -vol/tau, in dS's own array.

    The loss value and its diagnostics go into ``out``.
    """
    out.value, l_fwd, l_rev, ds = _info_nce(-vol / tau)
    out.diagnostics = {"volume_forward": l_fwd, "volume_reverse": l_rev,
                       "mean_positive_volume": float(np.mean(np.diag(vol)))}
    np.negative(ds, out=ds)
    ds /= tau
    return ds


def volume_contrastive(batch: Batch, anchor: Modality, active, tau: float = DEFAULT_TAU):
    """Symmetric volume InfoNCE: 0.5 * (anchor-permuted + tuple-permuted).

    The forward direction permutes the anchor across the batch; the reverse
    direction permutes the three non-anchor modalities jointly with a single
    index, which makes the reverse similarity matrix the transpose of the
    forward one. ``grads`` holds the active modalities only, each a view of
    one (k, B, d) array; a dropped modality has no entry.
    """
    others, pv = _checked_pair_volumes(batch, anchor, active, tau)
    out = LossOut(value=0.0)
    # -dS/tau is passed without a name here, so the kernel holds its only reference
    # and frees it, like pv's volumes, at its last read
    g = pair_volume_coeffs(pv, _volume_weights(out, pv.vol, tau))
    out.grads = dict(zip([anchor, *others], g))
    return out


def clip_bimodal(batch: Batch, tau: float = DEFAULT_TAU):
    """Standard two-direction InfoNCE between SMILES and protein; ``grads`` holds those two."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    f_s = batch.embeddings[Modality.SMILES]
    f_p = batch.embeddings[Modality.PROTEIN]
    logits = f_s @ f_p.T
    logits /= tau
    value, l_sp, l_ps, dlogits = _info_nce(logits)
    return LossOut(
        value=value,
        grads={Modality.SMILES: dlogits @ f_p / tau, Modality.PROTEIN: dlogits.T @ f_s / tau},
        diagnostics={"clip_s_to_p": l_sp, "clip_p_to_s": l_ps},
    )


def ic50_loss(batch: Batch, logits, weights, smoothing: float = DEFAULT_SMOOTHING):
    """Class-weighted, label-smoothed cross-entropy over annotated samples.

    Targets are q = (1 - smoothing) * onehot + smoothing / C over the C IC50
    classes. The average runs over the annotated subset only; a batch with no
    annotations contributes exactly zero loss and zero gradient. The returned
    gradient is with respect to the logits; chaining into the embeddings is the
    IC50 head's backward.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != NUM_IC50_CLASSES:
        raise DimensionMismatch(f"expected (B, {NUM_IC50_CLASSES}) logits, got {logits.shape}")
    mask = (
        np.zeros(batch.size, dtype=bool)
        if batch.ic50_mask is None
        else np.asarray(batch.ic50_mask, dtype=bool)
    )
    n_valid = int(mask.sum())
    if n_valid == 0:
        return LossOut(value=0.0, logit_grad=np.zeros_like(logits), diagnostics={"ic50_n": 0.0})

    labels = np.asarray(batch.ic50_labels)[mask].astype(int)
    w = np.asarray(weights.weights, dtype=np.float64)[labels]
    with np.errstate(invalid="ignore"):  # an Inf logit makes NaN here; the trainer raises
        value, dsel = cross_entropy(logits[mask], labels, w, smoothing)
    grad = np.zeros_like(logits)
    grad[mask] = dsel
    return LossOut(value=value, logit_grad=grad, diagnostics={"ic50_n": float(n_valid)})
