"""Retrieval and binary-classification metrics, plus the zero-shot harness.

Every metric here has a brute-force oracle in the test suite; implementations
are rank-based for speed but must agree with exhaustive enumeration exactly
(AUROC/AUPRC within 1e-12).
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
DEFAULT_THRESHOLD = 0.5


class Direction(Enum):
    S_TO_P = "S_TO_P"
    P_TO_S = "P_TO_S"


@dataclass
class RetrievalResult:
    direction: Direction
    recall_at: dict  # k -> fraction of queries with a relevant hit in top-k


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def cosine_matrix(queries, candidates):
    """(Q, C) cosine similarities; rows are normalized internally."""
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    cn = np.linalg.norm(c, axis=1, keepdims=True)
    if np.any(qn <= 1e-12) or np.any(cn <= 1e-12):
        raise ZeroVector("cosine similarity is undefined for zero rows")
    return np.clip((q / qn) @ (c / cn).T, -1.0, 1.0)


def recall_at_k(scores, relevant, ks=RECALL_KS) -> dict:
    """Fraction of queries with any relevant candidate in the top min(k, C).

    Candidates are ranked by descending score; ties break toward the lower
    candidate index. ``relevant`` is one non-empty set of candidate indices
    in [0, C) per query.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_q, n_c = scores.shape
    if len(relevant) != n_q:
        raise NoRelevant(f"{len(relevant)} relevance sets for {n_q} queries")
    rel_sets = [frozenset(int(i) for i in r) for r in relevant]
    for qi, r in enumerate(rel_sets):
        if not r:
            raise NoRelevant(f"query {qi} has no relevant candidates")
    rel_q = np.repeat(np.arange(n_q), [len(r) for r in rel_sets])
    rel_c = np.fromiter(itertools.chain.from_iterable(rel_sets), dtype=np.int64, count=len(rel_q))
    outside = np.flatnonzero((rel_c < 0) | (rel_c >= n_c))
    if outside.size:
        i = outside[0]
        raise NoRelevant(f"query {rel_q[i]}: relevant index {rel_c[i]} outside [0, {n_c})")
    relevance = np.zeros((n_q, n_c), dtype=bool)
    relevance[rel_q, rel_c] = True
    order = np.argsort(-scores, axis=1, kind="stable")
    hit = np.take_along_axis(relevance, order, axis=1)
    first = hit.argmax(axis=1)  # rank of each query's best relevant candidate
    return {int(k): int(np.count_nonzero(first < min(int(k), n_c))) / n_q for k in ks}


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    from scipy.stats import rankdata  # imported here: scipy.stats adds ~45 MB to every process

    ranks = rankdata(scores)  # 1-based, tied scores share the mean rank of their block
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Area under the precision-recall step curve, descending-score sweep.

    Tied scores are processed as one block; integration is the step rule
    sum((R_i - R_{i-1}) * P_i), i.e. average precision.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise NoPositives("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))  # last of each block
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds left to right, the order of the step-rule sum
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def classification_metrics(scores, labels, threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Thresholded sensitivity/F1/accuracy; zero denominators score 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    pred = scores >= threshold
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
        "confusion": ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn),
    }


def run_retrieval(model, smiles_table, protein_table, interactions, ks=RECALL_KS):
    """Zero-shot retrieval in both directions over the full candidate pools.

    ``interactions`` are known (smiles_id, protein_id) pairs; each pair is one
    query whose relevance set is the query entity's full set of known
    partners. Embeddings are projected in eval mode and compared by cosine.
    """
    f_s, _ = project(model.projectors[Modality.SMILES], smiles_table.rows, "eval")
    f_p, _ = project(model.projectors[Modality.PROTEIN], protein_table.rows, "eval")

    s_index = {e: i for i, e in enumerate(smiles_table.ids)}
    p_index = {e: i for i, e in enumerate(protein_table.ids)}
    partners_of_drug = {}
    partners_of_protein = {}
    for d_id, p_id in interactions:
        partners_of_drug.setdefault(s_index[d_id], set()).add(p_index[p_id])
        partners_of_protein.setdefault(p_index[p_id], set()).add(s_index[d_id])

    sim = cosine_matrix(f_s, f_p)
    results = []
    for direction, mat, partner_map, side in (
        (Direction.S_TO_P, sim, partners_of_drug, 0),
        (Direction.P_TO_S, sim.T, partners_of_protein, 1),
    ):
        query_rows = []
        relevant = []
        for d_id, p_id in interactions:
            q = s_index[d_id] if side == 0 else p_index[p_id]
            query_rows.append(q)
            relevant.append(partner_map[q])
        recall = recall_at_k(mat[query_rows], relevant, ks)
        results.append(RetrievalResult(direction=direction, recall_at=recall))
    return results
