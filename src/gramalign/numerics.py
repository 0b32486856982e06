"""Checked volume of one tuple of unit vectors, and a determinant reference.

``gram_volume`` validates a tuple of 2..4 unit vectors and takes its volume
from the batched QR in ``gramalign.kernels``, the one volume algorithm of
the package. ``volume_unclamped`` is the independent reference the kernels
are checked against on well-conditioned tuples: LAPACK's LU determinant of
the Gram matrix. Near collapse, forming the Gram matrix squares the
condition number, so there the kernels are checked against a high-precision
oracle instead.
"""

import numpy as np

from .errors import DimensionMismatch, NotNormalized
from .kernels import tuple_volumes

UNIT_TOL = 1e-9

MAX_TUPLE = 4


def gram_volume(vectors) -> float:
    """Volume spanned by 2..4 unit vectors: sqrt(det of their Gram matrix).

    Bounded to [0, 1]: Hadamard's inequality gives det <= 1 for unit
    vectors, so values outside the interval are round-off and are clipped.
    A norm that is NaN or infinite is not a unit norm.
    """
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    shapes = {r.shape for r in rows}
    if len(shapes) != 1 or rows[0].ndim != 1:
        raise DimensionMismatch(f"vectors must share one dimension, got shapes {sorted(shapes)}")
    if not 2 <= len(rows) <= MAX_TUPLE:
        raise DimensionMismatch(f"need between 2 and {MAX_TUPLE} vectors, got {len(rows)}")
    norms = np.linalg.norm(rows, axis=1)
    bad = ~(np.abs(norms - 1.0) <= UNIT_TOL)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotNormalized(f"vector {k} has norm {norms[k]:.12f}")
    return float(np.clip(tuple_volumes([r[None] for r in rows])[0], 0.0, 1.0))


def volume_unclamped(f: np.ndarray) -> float:
    """sqrt(max(det(F F^T), 0)) for an arbitrary stack of row vectors.

    No unit-norm validation. The determinant is LAPACK's LU of the
    symmetrised Gram matrix, which shares nothing with the QR kernels.
    """
    f = np.asarray(f, dtype=np.float64)
    g = f @ f.T
    return float(np.sqrt(max(np.linalg.det(0.5 * (g + g.T)), 0.0)))
