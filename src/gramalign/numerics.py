"""Gram matrices, PSD determinants, tuple volumes, and their analytic gradients.

Reference implementations for tuples of up to four vectors. All math runs in
float64 regardless of input dtype so finite-difference checks have headroom.
They work on the Gram matrix (partial-pivot LU determinants, cofactor
adjugates), one tuple at a time: the plain ground truth that the batched QR
routines in ``gramalign.kernels`` are tested against on well-conditioned
tuples. Near collapse, forming the Gram matrix squares the condition number,
so there the kernels are checked against a high-precision oracle instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, NotSymmetric, SingularGram, ZeroVector

EPS_NORM = 1e-12
EPS_DET = 1e-12
UNIT_TOL = 1e-9
SYM_TOL = 1e-9

MAX_TUPLE = 4


@dataclass
class VolumeGrad:
    """Volume of a vector tuple plus d(volume)/d(vector) for each input."""

    value: float
    per_vector: list  # one ndarray per input vector, same dim as the input


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm.

    Raises ZeroVector when the norm is at or below 1e-12, which signals a
    degenerate embedding the caller must not silently keep.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n <= EPS_NORM:
        raise ZeroVector(f"vector norm {n:.3e} <= {EPS_NORM:.0e}")
    return v / n


def _as_stack(vectors) -> np.ndarray:
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    dims = {r.shape for r in rows}
    if len(dims) != 1 or rows[0].ndim != 1:
        raise DimensionMismatch(f"vectors must share one dimension, got shapes {sorted(dims)}")
    return np.stack(rows)


def gram_matrix(vectors) -> np.ndarray:
    """Pairwise inner products of 2..4 unit vectors, as an n x n matrix."""
    f = _as_stack(vectors)
    n = f.shape[0]
    if not 2 <= n <= MAX_TUPLE:
        raise DimensionMismatch(f"need between 2 and {MAX_TUPLE} vectors, got {n}")
    norms = np.linalg.norm(f, axis=1)
    bad = np.abs(norms - 1.0) > UNIT_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotNormalized(f"vector {k} has norm {norms[k]:.12f}")
    g = f @ f.T
    # exact symmetry: f @ f.T is symmetric up to round-off; make it exact so
    # permutation invariance holds to the last bit
    g = 0.5 * (g + g.T)
    return g


def _lu_det(a: np.ndarray) -> float:
    """Determinant via partial-pivot LU. Exact zero on a zero pivot column."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            return 0.0
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= a[k, k]
        a[k + 1 :, k:] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k:])
    return float(det)


def det_psd(g: np.ndarray) -> float:
    """Determinant of a small symmetric matrix, round-off clamped at zero.

    Gram matrices of real vectors are PSD in exact arithmetic; a determinant
    in [-1e-12, 0) is round-off and is clamped to 0 so downstream square
    roots cannot produce NaN. Genuinely negative determinants (non-PSD
    symmetric input) pass through unchanged.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    if g.shape[0] > MAX_TUPLE:
        raise DimensionMismatch(f"supports n <= {MAX_TUPLE}, got n = {g.shape[0]}")
    asym = float(np.max(np.abs(g - g.T)))
    if asym > SYM_TOL:
        raise NotSymmetric(f"max |G_kj - G_jk| = {asym:.3e}")
    d = _lu_det(g)
    if -EPS_DET <= d < 0.0:
        d = 0.0
    return d


def _adjugate(g: np.ndarray) -> np.ndarray:
    """Adjugate via cofactor minors; d(det G)/dG = adj(G)^T."""
    n = g.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty_like(g)
    for r in range(n):
        for c in range(n):
            minor = np.delete(np.delete(g, r, axis=0), c, axis=1)
            adj[c, r] = (-1.0) ** (r + c) * _lu_det(minor)
    return adj


def gram_volume(vectors) -> float:
    """Volume spanned by 2..4 unit vectors: sqrt(det of their Gram matrix).

    Bounded to [0, 1]: Hadamard's inequality gives det <= 1 for unit
    vectors, so values outside the interval are round-off and are clipped.
    """
    d = det_psd(gram_matrix(vectors))
    return float(np.sqrt(min(max(d, 0.0), 1.0)))


def volume_unclamped(f: np.ndarray) -> float:
    """sqrt(max(det(F F^T), 0)) for an arbitrary stack of row vectors.

    No unit-norm validation: this is the smooth function whose gradient
    ``gram_volume_grad`` computes, and what finite-difference oracles must
    evaluate at perturbed (hence non-unit) points.
    """
    f = np.asarray(f, dtype=np.float64)
    g = f @ f.T
    return float(np.sqrt(max(_lu_det(0.5 * (g + g.T)), 0.0)))


def gram_volume_grad(vectors) -> VolumeGrad:
    """Volume and its gradient with respect to every input vector.

    Uses d(det G)/dF = 2 adj(G) F chained through the square root, giving
    dV/dF = adj(G) F / V. Refuses collapsed configurations: the square root
    has no gradient at V = 0, and silently returning zeros would hide
    gradient death from the caller.
    """
    f = _as_stack(vectors)
    g = gram_matrix(vectors)
    d = det_psd(g)
    if d <= EPS_DET:
        raise SingularGram(f"det(G) = {d:.3e} <= {EPS_DET:.0e}; regularize or skip")
    v = float(np.sqrt(d))
    grads = _adjugate(g) @ f / v
    return VolumeGrad(value=v, per_vector=[grads[k] for k in range(f.shape[0])])
