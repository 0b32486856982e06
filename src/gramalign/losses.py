"""Training objectives: volume contrastive, CLIP-style bimodal, weighted IC50 CE.

Every loss returns its value plus exact gradients. The volume contrastive
loss regularizes each pair volume as sqrt(det + 1e-10), so its value and
gradients stay finite even when a tuple collapses to a singular Gram matrix.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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
    grads: dict = field(default_factory=dict)  # Modality -> (B, d)
    diagnostics: dict = field(default_factory=dict)
    logit_grad: np.ndarray | None = None  # only ic50_loss sets this


def _zero_grads(batch: Batch) -> dict:
    return {m: np.zeros_like(e) for m, e in batch.embeddings.items()}


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


def _info_nce(s):
    """Row and column InfoNCE over a similarity matrix with diagonal positives.

    Returns (combined value, row-direction value, column-direction value,
    d(combined)/dS). The positive term is included in each denominator and
    the sum ranges over the full batch.
    """
    b = s.shape[0]
    lse_rows = logsumexp(s, axis=1)
    lse_cols = logsumexp(s, axis=0)
    diag = np.diag(s)
    l_fwd = float(np.mean(lse_rows - diag))
    l_rev = float(np.mean(lse_cols - diag))
    p_rows = np.exp(s - lse_rows[:, None])
    p_cols = np.exp(s - lse_cols[None, :])
    eye = np.eye(b)
    ds = ((p_rows - eye) + (p_cols - eye)) / (2.0 * b)
    return 0.5 * (l_fwd + l_rev), l_fwd, l_rev, ds


def volume_similarity_forward(batch: Batch, anchor: Modality, active, tau: float):
    """(B, B) similarity matrix S with S[i, j] = -V(anchor_j, non-anchors_i)/tau.

    The diagonal holds the positive tuples. Volumes use the epsilon-regularized
    square root sqrt(det + 1e-10).
    """
    _, pv = _checked_pair_volumes(batch, anchor, active, tau)
    return -pv.vol / tau


def volume_contrastive(batch: Batch, anchor: Modality, active, tau: float = DEFAULT_TAU):
    """Symmetric volume InfoNCE: 0.5 * (anchor-permuted + tuple-permuted).

    The forward direction permutes the anchor across the batch; the reverse
    direction permutes the three non-anchor modalities jointly with a single
    index, which makes the reverse similarity matrix the transpose of the
    forward one. Gradients flow to every active modality; excluded modalities
    get exact zero blocks.
    """
    others, pv = _checked_pair_volumes(batch, anchor, active, tau)
    value, l_fwd, l_rev, ds = _info_nce(-pv.vol / tau)

    g = pair_volume_coeffs(pv, -ds / tau)
    grads = _zero_grads(batch)
    for u, m in enumerate([anchor, *others]):
        grads[m] = g[u]

    return LossOut(
        value=value,
        grads=grads,
        diagnostics={
            "volume_forward": l_fwd,
            "volume_reverse": l_rev,
            "mean_positive_volume": float(np.mean(np.diag(pv.vol))),
        },
    )


def clip_bimodal(batch: Batch, tau: float = DEFAULT_TAU):
    """Standard two-direction InfoNCE between SMILES and protein embeddings."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    f_s = batch.embeddings[Modality.SMILES]
    f_p = batch.embeddings[Modality.PROTEIN]
    logits = f_s @ f_p.T / tau
    value, l_sp, l_ps, dlogits = _info_nce(logits)
    grads = _zero_grads(batch)
    grads[Modality.SMILES] = dlogits @ f_p / tau
    grads[Modality.PROTEIN] = dlogits.T @ f_s / tau
    return LossOut(
        value=value,
        grads=grads,
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
    sel = logits[mask]
    logp = sel - logsumexp(sel, axis=1, keepdims=True)
    q = np.full((n_valid, NUM_IC50_CLASSES), smoothing / NUM_IC50_CLASSES)
    q[np.arange(n_valid), labels] += 1.0 - smoothing
    value = float(np.sum(w * -(q * logp).sum(axis=1)) / n_valid)

    grad = np.zeros_like(logits)
    grad[mask] = (w[:, None] * (np.exp(logp) - q)) / n_valid
    return LossOut(value=value, logit_grad=grad, diagnostics={"ic50_n": float(n_valid)})


def total_loss(vol: LossOut, bi: LossOut, ic50: LossOut, lambda_vol, lambda_bi, lambda_ic50):
    """Weighted sum of the three objectives, values and gradients alike."""
    value = 0.0
    grads = {}
    for lam, part in ((lambda_vol, vol), (lambda_bi, bi), (lambda_ic50, ic50)):
        value += lam * part.value
        for m, g in part.grads.items():
            if m in grads:
                grads[m] = grads[m] + lam * g
            else:
                grads[m] = lam * g
    diagnostics = {"volume": vol.value, "bimodal": bi.value, "ic50": ic50.value, "total": value}
    return LossOut(value=value, grads=grads, diagnostics=diagnostics)
