"""Written-out references for the package's volume math, its GELU and its DTI split.

Gram determinants, tuple volumes and volume gradients come from recursive
cofactor expansion on nested Python lists: no LU, no QR, nothing shared with
the package. It works on the Gram matrix, which squares the condition number,
so it is a reference on well-conditioned tuples only.

``gelu`` and ``gelu_grad`` are the out-of-place GELU formulas; the heads'
in-place forward must give their bits.

``split_by_ids`` is the DTI split on id tuples, with the negative pool
materialised. It shares only the split kinds and the random substreams with the package.
"""

import math

import numpy as np
from scipy.special import erf

from gramalign.data import SplitKind
from gramalign.errors import InsufficientEntities
from gramalign.seeding import substream

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    """d gelu / dx = Phi(x) + x * phi(x), the factor a train-mode forward records in its tape."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


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


def brute_force_negatives(rows, cols, pos_set, count, rng):
    """The negative sampler written out: materialised grid, sorted set difference, same draw."""
    pool = sorted({(r, c) for r in rows for c in cols} - set(pos_set))
    if len(pool) < count:
        raise InsufficientEntities(
            f"need {count} negative pairs but only {len(pool)} non-positive pairs exist"
        )
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(idx.tolist())]


def _chunks(items, folds):
    """Partition into `folds` contiguous chunks, sizes differing by at most 1."""
    base, extra = divmod(len(items), folds)
    out, start = [], 0
    for f in range(folds):
        size = base + (1 if f < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def split_by_ids(positives, kind, folds, seed, drugs=None, proteins=None):
    """``make_split`` on id tuples: per fold, (train, test) lists of (drug_id, protein_id, label).

    Every entity is an id throughout, sets and sorted lists hold the grids,
    and ``brute_force_negatives`` draws each fold's negatives.
    """
    positives = list(dict.fromkeys(tuple(p) for p in positives))
    known_d = {d for d, _ in positives}
    known_p = {p for _, p in positives}
    drugs = known_d if drugs is None else set(drugs)
    proteins = known_p if proteins is None else set(proteins)
    if not known_d <= drugs or not known_p <= proteins:
        raise InsufficientEntities("positives reference entities outside the given universe")
    drugs, proteins = sorted(drugs), sorted(proteins)
    if len(drugs) < 2 or len(proteins) < 2:
        raise InsufficientEntities("need at least 2 distinct drugs and proteins")
    if folds < 2:
        raise InsufficientEntities(f"folds must be >= 2, got {folds}")

    def fold(train_pos, train_negs, test_pos, test_negs):
        return ([(d, p, 1) for d, p in train_pos] + [(d, p, 0) for d, p in train_negs],
                [(d, p, 1) for d, p in test_pos] + [(d, p, 0) for d, p in test_negs])

    layout_rng = substream(seed, "split-layout", kind.value)
    pos_set = set(positives)
    out = []
    if kind is SplitKind.WARM:
        order = [positives[i] for i in layout_rng.permutation(len(positives))]
        test_chunks = _chunks(order, folds)
        for f in range(folds):
            test_pos = test_chunks[f]
            train_pos = [p for c in range(folds) if c != f for p in test_chunks[c]]
            if not test_pos:
                raise InsufficientEntities(f"fold {f} has no test positives")
            neg_rng = substream(seed, "negatives", kind.value, f)
            negs = brute_force_negatives(drugs, proteins, pos_set,
                                         10 * (len(train_pos) + len(test_pos)), neg_rng)
            out.append(fold(train_pos, negs[: 10 * len(train_pos)], test_pos,
                            negs[10 * len(train_pos) :]))
        return out

    drug_cold = kind is SplitKind.DRUG_COLD
    entities = sorted(known_d) if drug_cold else sorted(known_p)
    if len(entities) < folds:
        raise InsufficientEntities(
            f"{kind.value} split needs >= {folds} distinct entities, got {len(entities)}"
        )
    groups = _chunks([entities[i] for i in layout_rng.permutation(len(entities))], folds)
    side = 0 if drug_cold else 1
    for f in range(folds):
        test_entities = set(groups[f])
        test_pos = [p for p in positives if p[side] in test_entities]
        train_pos = [p for p in positives if p[side] not in test_entities]
        if not test_pos:
            raise InsufficientEntities(f"fold {f} has no test positives")
        neg_rng = substream(seed, "negatives", kind.value, f)
        held = sorted(test_entities)
        if drug_cold:
            kept = [d for d in drugs if d not in test_entities]
            test_grid, train_grid = (held, proteins), (kept, proteins)
        else:
            kept = [p for p in proteins if p not in test_entities]
            test_grid, train_grid = (drugs, held), (drugs, kept)
        test_negs = brute_force_negatives(*test_grid, pos_set, 10 * len(test_pos), neg_rng)
        train_negs = brute_force_negatives(*train_grid, pos_set, 10 * len(train_pos), neg_rng)
        out.append(fold(train_pos, train_negs, test_pos, test_negs))
    return out
