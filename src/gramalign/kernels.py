"""Batched tuple volumes from a QR factorisation of the raw vectors.

The volume contrastive loss needs, for a batch of B samples and an active
tuple of k modalities (anchor first), the volume of every
(anchor of sample j, non-anchors of sample i) tuple -- B*B Gram
determinants -- and the gradient of a weighted sum of those volumes.

Let the columns of F_i (d x m, m = k - 1) be sample i's non-anchor vectors,
F_i = Q_i R_i its thin QR, a_j sample j's anchor and t_ij = Q_i^T a_j. Then

    det G_ij = det S_i * rho_ij^2,   det S_i = prod(diag R_i)^2,
    rho_ij^2 = |a_j|^2 - |t_ij|^2   (squared distance of a_j from span F_i)

and, with r_ij = a_j - Q_i t_ij, y_ij = R_i^-1 t_ij and e_i^u the u-th row
of R_i^-1 Q_i^T,

    d det G_ij / d a_j   = 2 det S_i r_ij
    d det G_ij / d f_i^u = 2 det S_i (rho_ij^2 e_i^u - y_ij^u r_ij).

Summed over pairs against weights, the backward is B x B elementwise work,
per-sample m x m algebra and three GEMMs against the stacked Q factors; no
per-pair matrix is ever formed. Working from the vectors rather than from
their Gram matrix keeps near-collapsed tuples accurate: forming G squares
the condition number, the QR does not.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass
class PairVolumes:
    """V_ij = sqrt(max(det G_ij, 0) + eps), plus the factors the backward reuses.

    ``pair_volume_coeffs`` consumes it: it sets ``vol`` and ``rho2`` to None
    once it has read them.
    """

    vol: np.ndarray  # (B, B), row i = non-anchors of sample i, column j = anchor of sample j
    anchor: np.ndarray  # (B, d)
    # (B, m, d), C-contiguous: row u of sample i is column u of Q_i, the
    # orthonormal basis of that sample's non-anchors
    qt: np.ndarray
    r: np.ndarray  # (B, m, m), upper triangular
    det_s: np.ndarray  # (B,), Gram determinant of each sample's non-anchors
    t: np.ndarray  # (B, m, B), t[i, :, j] = Q_i^T a_j
    rho2: np.ndarray  # (B, B), squared distance of a_j from span F_i


def pair_volumes(anchor, others, eps) -> PairVolumes:
    """Volumes of all (anchor_j, others_i) tuples.

    ``anchor`` is (B, d); ``others`` stacks the m = k - 1 non-anchor
    modalities as (m, B, d), with 1 <= m <= d.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    others = np.asarray(others, dtype=np.float64)
    if anchor.ndim != 2 or others.ndim != 3 or others.shape[1:] != anchor.shape:
        raise DimensionMismatch(
            f"expected anchor (B, d) and others (m, B, d), got {anchor.shape} and {others.shape}"
        )
    m, b, d = others.shape
    if not 1 <= m <= d:
        raise DimensionMismatch(f"need 1 <= {m} non-anchor modalities <= dimension {d}")
    q, r = np.linalg.qr(others.transpose(1, 2, 0))
    qt = np.ascontiguousarray(q.transpose(0, 2, 1))  # the one copy of the transpose
    del q
    det_s = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1) ** 2
    t = (qt.reshape(b * m, d) @ anchor.T).reshape(b, m, b)
    rho2 = np.einsum("jd,jd->j", anchor, anchor)[None, :] - np.einsum("iuj,iuj->ij", t, t)
    rho2 = np.maximum(rho2, 0.0)
    vol = np.sqrt(det_s[:, None] * rho2 + eps)
    return PairVolumes(vol, anchor, qt, r, det_s, t, rho2)


def pair_volume_coeffs(pv: PairVolumes, weights) -> np.ndarray:
    """(k, B, d) gradient of sum_ij w_ij V_ij: the anchor first, then each non-anchor.

    dV_ij = d(det G_ij) / (2 V_ij), so every pair contributes through the
    single coefficient c_ij = w_ij det S_i / V_ij.

    Both arguments are consumed. c is formed in ``weights``' own array when
    that is float64, and ``pv.vol`` and ``pv.rho2`` are set to None once read,
    so each of the three B x B arrays is freed at its last read when the
    caller keeps no other reference to it. A caller that reads ``weights`` or
    ``pv.vol`` afterwards passes a copy or reads it first.
    """
    b, m, d = pv.qt.shape
    c = np.asarray(weights, dtype=np.float64)
    del weights
    c *= pv.det_s[:, None]
    c /= pv.vol
    pv.vol = None
    crho = (c * pv.rho2).sum(axis=1)
    pv.rho2 = None
    qt = pv.qt
    # samples whose non-anchors are exactly dependent have det S_i = 0, hence c_i. = 0
    singular = pv.det_s == 0.0
    rinv = np.linalg.inv(np.where(singular[:, None, None], np.eye(m), pv.r))
    rinv[singular] = 0.0

    grads = np.empty((m + 1, b, d))
    ct = c[:, None, :] * pv.t
    np.subtract(c.sum(axis=0)[:, None] * pv.anchor, ct.reshape(b * m, b).T @ qt.reshape(b * m, d),
                out=grads[0])

    # Each product below goes into a buffer nobody reads any more: cy into ct's, the
    # two (B*m, d) products into grads[1:], which the final transpose then fills.
    # Scaled in place: x * c rounds like c * x.
    cy = np.matmul(rinv, pv.t, out=ct)
    cy *= c[:, None, :]  # (B, m, B): c_ij y_ij^u
    del c
    g = rinv @ qt  # (B, m, d): e_i^u
    g *= crho[:, None, None]
    scratch = grads[1:].reshape(b, m, d)
    np.matmul(cy.reshape(b * m, b), pv.anchor, out=scratch.reshape(b * m, d))
    g -= scratch
    np.matmul(cy @ pv.t.transpose(0, 2, 1), qt, out=scratch)
    g += scratch
    grads[1:] = g.transpose(1, 0, 2)
    return grads


def tuple_volumes(vectors) -> np.ndarray:
    """(n,) volumes sqrt(det(F_i F_i^T)) of n tuples given as k arrays of shape (n, d)."""
    f = np.stack([np.asarray(v, dtype=np.float64) for v in vectors], axis=2)
    n, d, k = f.shape
    if d < k:  # k vectors in fewer than k dimensions span no volume
        return np.zeros(n)
    r = np.linalg.qr(f, mode="r")
    return np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1))
