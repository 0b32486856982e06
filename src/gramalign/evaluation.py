"""Retrieval and binary-classification metrics, plus the zero-shot harness.

Every metric here has a brute-force oracle in the test suite; implementations
are rank-based for speed but must agree with exhaustive enumeration exactly
(AUROC/AUPRC within 1e-12).

Nothing here sorts a query-by-candidate matrix. Recall@k finds each score
row's best relevant candidate and counts the candidates ranked above it, once
per distinct row however often it is queried, in chunks of RECALL_CHUNK rows,
so its working memory is one chunk of rows. AUROC and AUPRC take their tied
blocks from one stable argsort, so no scipy module is imported on this path.
"""

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoPositives, NoRelevant, SingleClass, ZeroVector
from .heads import project
from .modality import Modality

RECALL_KS = (1, 10, 100)
RECALL_CHUNK = 256  # query rows whose scores recall_at_k holds at a time
DEFAULT_THRESHOLD = 0.5


class Direction(Enum):
    S_TO_P = "S_TO_P"
    P_TO_S = "P_TO_S"


@dataclass
class RetrievalResult:
    direction: Direction
    recall_at: dict  # k -> fraction of queries with a relevant hit in top-k


def cosine_matrix(queries, candidates):
    """(Q, C) cosine similarities; rows are normalized internally."""
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    cn = np.linalg.norm(c, axis=1, keepdims=True)
    if np.any(qn <= 1e-12) or np.any(cn <= 1e-12):
        raise ZeroVector("cosine similarity is undefined for zero rows")
    sim = (q / qn) @ (c / cn).T
    return np.clip(sim, -1.0, 1.0, out=sim)


def recall_at_k(scores, relevant, ks=RECALL_KS, rows=None) -> dict:
    """Fraction of queries with any relevant candidate in the top min(k, C).

    Candidates are ranked by descending score; ties break toward the lower
    candidate index. Query i reads score row ``rows[i]``, or row i when
    ``rows`` is None, so callers share one matrix and may query a row many
    times. ``relevant[r]`` is score row r's non-empty set of candidate
    indices in [0, C), a sequence or a mapping over the queried rows. A
    queried row's scores must be finite.

    A row's first relevant hit is its best relevant candidate c*: the
    highest score s*, ties to the lower index. Its rank is
    #(s > s*) + #(s == s* and c < c*), the position a stable descending
    sort would give it, so no row is sorted, and each distinct row is
    ranked once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_r, n_c = scores.shape
    if rows is None:
        if len(relevant) != n_r:
            raise NoRelevant(f"{len(relevant)} relevance sets for {n_r} queries")
        rows = np.arange(n_r)
    rows = np.asarray(rows, dtype=np.int64)
    n_q = len(rows)
    if n_q == 0:
        raise NoRelevant("recall needs at least one query, got 0")
    uniq, inverse = np.unique(rows, return_inverse=True)
    if not 0 <= uniq[0] <= uniq[-1] < n_r:
        raise NoRelevant(f"queried score rows span [{uniq[0]}, {uniq[-1]}], outside [0, {n_r})")
    rel_sets = [frozenset(int(i) for i in relevant[r]) for r in uniq.tolist()]
    for r, rel in zip(uniq, rel_sets):
        if not rel:
            raise NoRelevant(f"score row {r} has no relevant candidates")
    sizes = [len(r) for r in rel_sets]
    rel_u = np.repeat(np.arange(len(uniq)), sizes)
    rel_c = np.fromiter(itertools.chain.from_iterable(rel_sets), dtype=np.int64, count=len(rel_u))
    outside = np.flatnonzero((rel_c < 0) | (rel_c >= n_c))
    if outside.size:
        i = outside[0]
        raise NoRelevant(f"score row {uniq[rel_u[i]]}: relevant index {rel_c[i]} "
                         f"outside [0, {n_c})")
    finite = np.isfinite(scores.min(axis=1)) & np.isfinite(scores.max(axis=1))  # NaN propagates
    bad = np.flatnonzero(~finite[uniq])
    if bad.size:
        raise NoRelevant(f"score row {uniq[bad[0]]} has a non-finite score")
    starts = np.cumsum([0, *sizes[:-1]])  # each row's first entry in rel_u / rel_c
    rel_s = scores[uniq[rel_u], rel_c]
    best = np.maximum.reduceat(rel_s, starts)
    best_c = np.minimum.reduceat(np.where(rel_s == best[rel_u], rel_c, n_c), starts)
    # each chunk of rows is a temporary that dies with its call
    rank = np.concatenate([
        _rank_of(scores[uniq[a : a + RECALL_CHUNK]], best[a : a + RECALL_CHUNK],
                 best_c[a : a + RECALL_CHUNK])
        for a in range(0, len(uniq), RECALL_CHUNK)
    ])[inverse]
    return {int(k): int(np.count_nonzero(rank < min(int(k), n_c))) / n_q for k in ks}


def _rank_of(chunk, s_star, c_star):
    """Each row's 0-based rank of candidate c* with score s*: #(s > s*) + #(s == s*, c < c*)."""
    s_star, c_star = s_star[:, None], c_star[:, None]
    # bool sums: count_nonzero(..., axis) would cast each mask to a chunk of intp
    above = (chunk > s_star).sum(axis=1)
    tied = chunk == s_star
    tied &= np.arange(chunk.shape[1]) < c_star
    return above + tied.sum(axis=1)


def _tied_blocks(keys):
    """The stable ascending argsort of ``keys``, and the last sorted position of each tied block."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    return order, np.flatnonzero(np.append(k[1:] != k[:-1], True))


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with half credit for ties; NaN if any score is NaN.

    Tied scores share the mean of their block's 1-based ranks, an exact
    half-integer, so the rank sum is exact and equals
    ``scipy.stats.rankdata``'s bit for bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    if np.isnan(scores).any():
        return float("nan")
    order, ends = _tied_blocks(scores)
    starts = np.append(0, ends[:-1] + 1)
    mean_rank = (starts + ends) / 2.0 + 1.0
    pos_in_block = np.diff(np.cumsum(labels[order] == 1)[ends], prepend=0)
    pos_rank_sum = float((mean_rank * pos_in_block).sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Area under the precision-recall step curve, descending-score sweep; NaN if any score is NaN.

    Tied scores are processed as one block; integration is the step rule
    sum((R_i - R_{i-1}) * P_i), i.e. average precision.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise NoPositives("AUPRC needs at least one positive")
    if np.isnan(scores).any():
        return float("nan")
    order, ends = _tied_blocks(-scores)
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds left to right, the order of the step-rule sum
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def classification_metrics(scores, labels) -> dict:
    """{"sensitivity", "f1", "accuracy"} at DEFAULT_THRESHOLD; zero denominators score 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    pred = scores >= DEFAULT_THRESHOLD
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))

    def _safe(num, den, name):
        if den == 0:
            warnings.warn(f"{name} denominator is zero; reporting 0", RuntimeWarning)
            return 0.0
        return num / den

    return {
        "sensitivity": _safe(tp, tp + fn, "sensitivity"),
        "f1": _safe(2 * tp, 2 * tp + fp + fn, "f1"),
        "accuracy": _safe(tp + tn, tp + fp + tn + fn, "accuracy"),
    }


def run_retrieval(model, smiles_table, protein_table, interactions):
    """Zero-shot retrieval in both directions over the full candidate pools.

    ``interactions`` are known (smiles_id, protein_id) pairs; each pair is one
    query in each direction, and its relevance set is the query entity's full
    set of known partners, so an entity with r partners is queried r times
    and ranked once. Embeddings are projected in eval mode and compared by
    cosine; recall is reported at each of RECALL_KS.
    """
    f_s, _ = project(model.projectors[Modality.SMILES], smiles_table.rows, "eval")
    f_p, _ = project(model.projectors[Modality.PROTEIN], protein_table.rows, "eval")

    rows = [(smiles_table.index_of(d), protein_table.index_of(p)) for d, p in interactions]
    partners_of_drug = {}
    partners_of_protein = {}
    for s_row, p_row in rows:
        partners_of_drug.setdefault(s_row, set()).add(p_row)
        partners_of_protein.setdefault(p_row, set()).add(s_row)

    sim = cosine_matrix(f_s, f_p)
    results = []
    for direction, mat, partner_map, side in (
        (Direction.S_TO_P, sim, partners_of_drug, 0),
        (Direction.P_TO_S, sim.T, partners_of_protein, 1),
    ):
        recall = recall_at_k(mat, partner_map, rows=[pair[side] for pair in rows])
        results.append(RetrievalResult(direction=direction, recall_at=recall))
    return results
