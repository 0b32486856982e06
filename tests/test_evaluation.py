"""Metric tests against exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramalign.errors import NoPositives, NoRelevant, SingleClass, ZeroVector
from gramalign.evaluation import (
    ConfusionCounts,
    Direction,
    auprc,
    auroc,
    classification_metrics,
    cosine_matrix,
    recall_at_k,
    run_retrieval,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def auroc_oracle(scores, labels):
    """Pairwise counting: (#{pos > neg} + 0.5 #{pos = neg}) / (#pos #neg)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 for p in pos for n in neg if p > n)
    ties = sum(0.5 for p in pos for n in neg if p == n)
    return (wins + ties) / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    """Exhaustive threshold enumeration, step-rule integration."""
    n_pos = sum(labels)
    area, prev_r = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        r, p = tp / n_pos, tp / (tp + fp)
        area += (r - prev_r) * p
        prev_r = r
    return area


def recall_oracle(scores, relevant, k):
    q, c = scores.shape
    hits = 0
    for qi in range(q):
        ranked = sorted(range(c), key=lambda j: (-scores[qi, j], j))
        if any(j in relevant[qi] for j in ranked[: min(k, c)]):
            hits += 1
    return hits / q


class TestCosineMatrix:
    def test_identical_unit_rows(self):
        rows = np.eye(3)
        np.testing.assert_allclose(np.diag(cosine_matrix(rows, rows)), 1.0)

    def test_orthogonal(self):
        assert cosine_matrix(np.eye(2)[:1], np.eye(2)[1:])[0, 0] == pytest.approx(0.0)

    def test_hand_value(self):
        q = np.array([[1.0, 0.0]])
        c = np.array([[1.0, 1.0]])
        assert cosine_matrix(q, c)[0, 0] == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_matrix(np.zeros((1, 3)), np.eye(3))

    def test_range(self):
        rng = np.random.default_rng(0)
        sim = cosine_matrix(rng.standard_normal((5, 4)), rng.standard_normal((6, 4)))
        assert sim.min() >= -1.0 and sim.max() <= 1.0


class TestRecallAtK:
    def test_perfect_top1(self):
        scores = np.eye(4) + 0.01
        rel = [{i} for i in range(4)]
        assert recall_at_k(scores, rel)[1] == 1.0

    def test_rank_five_construction(self):
        q, c = 3, 12
        scores = np.zeros((q, c))
        scores[:, :4] = [4.0, 3.0, 2.0, 1.0]  # four decoys above the relevant item
        scores[:, 4] = 0.5
        rel = [{4}] * q
        out = recall_at_k(scores, rel)
        assert out[1] == 0.0
        assert out[10] == 1.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.choice([0.1, 0.2, 0.3, 0.7], size=(20, 50))  # plenty of ties
        rel = [set(rng.choice(50, size=3, replace=False).tolist()) for _ in range(20)]
        out = recall_at_k(scores, rel, ks=(1, 5, 10, 100))
        for k in (1, 5, 10, 100):
            assert out[k] == recall_oracle(scores, rel, k)

    def test_k_beyond_candidates_clamps(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((6, 7))
        rel = [{int(rng.integers(0, 7))} for _ in range(6)]
        out = recall_at_k(scores, rel, ks=(7, 100))
        assert out[100] == out[7] == 1.0  # every query has a relevant candidate

    def test_no_relevant_rejected(self):
        with pytest.raises(NoRelevant):
            recall_at_k(np.ones((2, 3)), [{0}, set()])

    @pytest.mark.parametrize(
        "relevant, expected",
        [
            ([{0}], {1: 1.0, 2: 1.0, 5: 1.0}),  # all tied: the lowest index ranks first
            ([{4}], {1: 0.0, 2: 0.0, 5: 1.0}),  # ...and the highest ranks last
            ([{1}, {2}], {1: 0.0, 2: 0.5, 5: 1.0}),
            ([{1, 3}], {1: 0.0, 2: 1.0, 5: 1.0}),
        ],
    )
    def test_ties_break_toward_lower_index(self, relevant, expected):
        scores = np.full((len(relevant), 5), 0.25)
        assert recall_at_k(scores, relevant, ks=(1, 2, 5)) == expected

    @pytest.mark.parametrize("bad", [-1, 3, 99])
    def test_relevant_index_outside_candidates_rejected(self, bad):
        with pytest.raises(NoRelevant, match="outside"):
            recall_at_k(np.ones((2, 3)), [{0}, {1, bad}])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert auroc([0.4, 0.6], [1, 0]) == 0.0

    def test_tie_half_credit_hand_value(self):
        assert auroc([0.8, 0.6, 0.6, 0.2], [1, 0, 1, 0]) == pytest.approx(0.875)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for levels in (7, 2, 1):  # 2 and 1 distinct scores: tie-heavy and all tied
            for _ in range(100):
                n = int(rng.integers(4, 33))
                scores = rng.choice(np.linspace(0, 1, levels), size=n)
                labels = rng.integers(0, 2, size=n)
                if labels.min() == labels.max():
                    labels[0] = 1 - labels[0]
                assert auroc(scores, labels) == pytest.approx(
                    auroc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
                )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(12)
        labels = rng.integers(0, 2, size=12)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auroc(scores, labels)
        assert auroc(np.exp(2.0 * scores), labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(16)  # continuous, no ties
        labels = rng.integers(0, 2, size=16)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_positive_ranked_last(self):
        assert auprc([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == pytest.approx(0.25)

    def test_no_positive_rejected(self):
        with pytest.raises(NoPositives):
            auprc([0.5, 0.6], [0, 0])

    def test_matches_threshold_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for levels in (5, 2, 1):  # 2 and 1 distinct scores: tie-heavy and all tied
            for _ in range(100):
                n = int(rng.integers(3, 17))
                scores = rng.choice(np.linspace(0, 1, levels), size=n)
                labels = rng.integers(0, 2, size=n)
                if labels.sum() == 0:
                    labels[0] = 1
                assert auprc(scores, labels) == pytest.approx(
                    auprc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
                )


class TestClassificationMetrics:
    def test_perfect(self):
        out = classification_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert out["sensitivity"] == out["f1"] == out["accuracy"] == 1.0
        assert out["confusion"] == ConfusionCounts(tp=2, fp=0, tn=2, fn=0)

    def test_all_predicted_negative(self):
        out = classification_metrics([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0])
        assert out["sensitivity"] == 0.0
        assert out["f1"] == 0.0
        assert out["accuracy"] == 0.5

    def test_zero_denominator_warns_and_scores_zero(self):
        # no positives at all: sensitivity and f1 denominators are zero
        with pytest.warns(RuntimeWarning):
            out = classification_metrics([0.1, 0.2], [0, 0])
        assert out["sensitivity"] == 0.0
        assert out["f1"] == 0.0
        assert out["accuracy"] == 1.0

    def test_hand_confusion(self):
        # TP=3, FP=1, FN=2, TN=4
        scores = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        out = classification_metrics(scores, labels)
        assert out["sensitivity"] == pytest.approx(0.6)
        assert out["f1"] == pytest.approx(6.0 / 9.0)
        assert out["accuracy"] == pytest.approx(0.7)


class TestRunRetrieval:
    def _setup(self, seed=0, n=40, d=12):
        from gramalign.data import synth_quadruplets
        from gramalign.heads import build_model
        from gramalign.modality import MODALITY_ORDER, Modality

        tables, quads = synth_quadruplets(n, (d, d, d, d), 0.0, seed=seed)
        in_dims = {m: d for m in MODALITY_ORDER}
        model = build_model(in_dims, shared_dim=8, proj_hidden=d, ic50_hidden=8, seed=seed)
        pairs = [
            (
                tables[Modality.SMILES].ids[q.smiles_row],
                tables[Modality.PROTEIN].ids[q.protein_row],
            )
            for q in quads
        ]
        return model, tables, pairs

    def test_untrained_projectors_near_chance(self):
        from gramalign.modality import Modality

        model, tables, pairs = self._setup()
        res = run_retrieval(model, tables[Modality.SMILES], tables[Modality.PROTEIN], pairs)
        assert {r.direction for r in res} == {Direction.S_TO_P, Direction.P_TO_S}
        for r in res:
            assert r.recall_at[1] <= 0.25  # chance is 1/40
            assert r.recall_at[100] == 1.0  # k clamps to the full pool

    def test_recall_monotone_in_k(self):
        from gramalign.modality import Modality

        model, tables, pairs = self._setup(seed=1)
        res = run_retrieval(model, tables[Modality.SMILES], tables[Modality.PROTEIN], pairs)
        for r in res:
            assert r.recall_at[1] <= r.recall_at[10] <= r.recall_at[100]
