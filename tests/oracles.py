"""Per-tuple references for Gram determinants, tuple volumes and volume gradients.

Recursive cofactor expansion on nested Python lists: no LU, no QR, nothing
shared with the package. It works on the Gram matrix, which squares the
condition number, so it is a reference on well-conditioned tuples only.
"""

import math

import numpy as np


def cofactor_det(m):
    """Determinant of a square nested list by expansion along its first row."""
    if not m:
        return 1.0
    det = 0.0
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        det += ((-1.0) ** c) * m[0][c] * cofactor_det(minor)
    return det


def _gram(vectors):
    return [[float(np.dot(a, b)) for b in vectors] for a in vectors]


def cofactor_volume(vectors, eps=0.0):
    """sqrt(max(det G, 0) + eps) for the Gram matrix G of a sequence of vectors."""
    return math.sqrt(max(cofactor_det(_gram(vectors)), 0.0) + eps)


def cofactor_volume_grad(vectors, eps=0.0):
    """(n, d) gradient of ``cofactor_volume``: adj(G) F / V, the adjugate from cofactors.

    d det G / dF = 2 adj(G) F, and dV = d(det G) / (2 V).
    """
    f = np.array([np.asarray(v, dtype=np.float64) for v in vectors])
    g = _gram(f)
    n = len(g)
    adj = np.empty((n, n))
    for r in range(n):
        for c in range(n):
            minor = [row[:c] + row[c + 1 :] for k, row in enumerate(g) if k != r]
            adj[c, r] = (-1.0) ** (r + c) * cofactor_det(minor)
    return adj @ f / cofactor_volume(f, eps)
