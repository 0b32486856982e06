"""Metric tests against exhaustive oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gramalign
from gramalign.errors import NoPositives, NoRelevant, SingleClass, ZeroVector
from gramalign.evaluation import (
    RECALL_CHUNK,
    RECALL_KS,
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


def auroc_rankdata(scores, labels):
    """The Mann-Whitney formula on ``scipy.stats.rankdata``'s mean ranks (scipy as a test oracle)."""
    from scipy.stats import rankdata

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    pos_rank_sum = float(rankdata(scores)[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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

    @pytest.mark.parametrize(
        "n_q, n_c",
        [(1, 9), (5, 1), (RECALL_CHUNK - 1, 13), (RECALL_CHUNK, 13), (RECALL_CHUNK + 1, 13),
         (2 * RECALL_CHUNK + 3, 7)],
    )
    def test_chunks_match_exhaustive_oracle(self, n_q, n_c):
        """Query counts around the chunk size, one query and one candidate, heavy ties."""
        rng = np.random.default_rng(n_q * 31 + n_c)
        scores = rng.choice([-0.5, -0.0, 0.0, 0.25, 1.0], size=(n_q, n_c))
        rel = [set(rng.choice(n_c, size=int(rng.integers(1, min(n_c, 4) + 1)), replace=False).tolist())
               for _ in range(n_q)]
        ks = (1, 2, 5, 10, 100)
        out = recall_at_k(scores, rel, ks=ks)
        assert out == {k: recall_oracle(scores, rel, k) for k in ks}

    def test_rows_index_a_shared_matrix(self):
        """``rows`` reads each query's scores from a shared matrix, transposed views included."""
        rng = np.random.default_rng(8)
        sim = rng.choice([0.1, 0.2, 0.3], size=(40, RECALL_CHUNK + 5))
        rel = [set(rng.choice(40, size=int(rng.integers(1, 4)), replace=False).tolist())
               for _ in range(sim.shape[1])]  # one set per row of sim.T
        rows = rng.integers(0, sim.shape[1], size=RECALL_CHUNK + 9)  # more queries than rows
        per_query = [rel[r] for r in rows]
        ks = (1, 3, 10, 100)
        out = recall_at_k(sim.T, rel, ks=ks, rows=rows)
        assert out == recall_at_k(sim.T[rows], per_query, ks=ks)
        assert out == {k: recall_oracle(sim.T[rows], per_query, k) for k in ks}

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_rows_match_oracle(self, seed):
        """Many-to-many: rows queried many times, relevance from a mapping of the queried rows."""
        rng = np.random.default_rng(100 + seed)
        n_r, n_c = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        scores = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(n_r, n_c))
        rows = rng.integers(0, n_r, size=int(rng.integers(1, 60)))
        rel = {int(r): set(rng.choice(n_c, size=int(rng.integers(1, n_c + 1)),
                                      replace=False).tolist())
               for r in np.unique(rows)}
        ks = (1, 2, 5, 100)
        out = recall_at_k(scores, rel, ks=ks, rows=rows)
        assert out == {k: recall_oracle(scores[rows], [rel[r] for r in rows], k) for k in ks}

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_queried_row_outside_scores_rejected(self, bad):
        """A negative row would otherwise wrap to the last row's scores and relevance set."""
        with pytest.raises(NoRelevant, match="outside \\[0, 3\\)"):
            recall_at_k(np.ones((3, 4)), [{0}, {1}, {2}], rows=[0, bad])

    def test_hub_is_ranked_once(self):
        """One row queried 2000 times against 2000 relevant candidates stays small.

        Expanding the queries into one relevance set each holds 2000 x 2000
        entries, hundreds of MiB; ranking the row once needs a few arrays of
        2000 entries.
        """
        r = 2000
        rng = np.random.default_rng(12)
        scores = rng.standard_normal((3, 2 * r))
        partners = set(rng.choice(2 * r, size=r, replace=False).tolist())
        tracemalloc.start()
        try:
            out = recall_at_k(scores, {1: partners}, ks=(1, 2, 3), rows=[1] * r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert out == {k: recall_oracle(scores[1:2], [partners], k) for k in (1, 2, 3)}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = np.zeros((RECALL_CHUNK + 2, 4))
        scores[RECALL_CHUNK + 1, 2] = bad
        with pytest.raises(NoRelevant, match=f"row {RECALL_CHUNK + 1} has a non-finite score"):
            recall_at_k(scores, [{0}] * len(scores))

    def test_large_matrix_holds_one_chunk_at_a_time(self):
        """Q = C = 2000 (32 MB of scores) peaks within twice one chunk's float64 rows.

        One chunk and its masks take about 1.4 times that; a second live chunk
        or a Q x C array breaks the bound.
        """
        n = 2000
        rng = np.random.default_rng(9)
        scores = rng.standard_normal((n, n))
        rel = [{(7 * i) % n, (11 * i + 3) % n} for i in range(n)]
        tracemalloc.start()
        try:
            recall_at_k(scores, rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * RECALL_CHUNK * n * 8


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

    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.standard_normal(n),
        lambda rng, n: rng.choice([0.25, 0.75], size=n),
        lambda rng, n: np.full(n, 0.5),
        lambda rng, n: rng.choice([-0.0, 0.0, 1e-300, -1.0], size=n),
    ], ids=["random", "two-valued", "all-tied", "signed-zeros"])
    def test_equals_rankdata_reference_bit_for_bit(self, draw):
        rng = np.random.default_rng(10)
        for n in (2, 3, 17, 256, 4001):
            scores = draw(rng, n)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            got, want = auroc(scores, labels), auroc_rankdata(scores, labels)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_nan_score_gives_nan(self):
        assert math.isnan(auroc([0.9, np.nan, 0.1, 0.4], [1, 0, 0, 1]))
        assert math.isnan(auroc_rankdata([0.9, np.nan, 0.1, 0.4], [1, 0, 0, 1]))
        assert math.isnan(auprc([np.nan, 0.2, 0.9, 0.4], [1, 0, 1, 0]))

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
        assert out == {"sensitivity": 1.0, "f1": 1.0, "accuracy": 1.0}

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
        assert list(out) == ["sensitivity", "f1", "accuracy"]
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

    @pytest.mark.parametrize("seed", range(3))
    def test_many_to_many_matches_oracle(self, seed):
        """Entities with many partners: each pair is one query per direction, each scored
        against the query entity's full partner set, as the brute-force oracle expands it."""
        from gramalign.heads import project
        from gramalign.modality import Modality

        model, tables, _ = self._setup(seed=seed, n=24)
        s_tab, p_tab = tables[Modality.SMILES], tables[Modality.PROTEIN]
        rng = np.random.default_rng(seed)
        drugs = rng.integers(0, 6, size=60)  # six hub drugs and ten proteins: heavy repeats
        proteins = rng.integers(0, 10, size=60)
        pairs = list(dict.fromkeys((s_tab.ids[d], p_tab.ids[p]) for d, p in zip(drugs, proteins)))
        res = {r.direction: r.recall_at
               for r in run_retrieval(model, s_tab, p_tab, pairs)}

        f_s = project(model.projectors[Modality.SMILES], s_tab.rows, "eval")[0]
        f_p = project(model.projectors[Modality.PROTEIN], p_tab.rows, "eval")[0]
        sim = cosine_matrix(f_s, f_p)
        s_rows = [s_tab.index_of(d) for d, _ in pairs]
        p_rows = [p_tab.index_of(p) for _, p in pairs]
        for direction, mat, queries, partners in (
            (Direction.S_TO_P, sim, s_rows, p_rows),
            (Direction.P_TO_S, sim.T, p_rows, s_rows),
        ):
            rel = [{b for a, b in zip(queries, partners) if a == q} for q in queries]
            assert res[direction] == {k: recall_oracle(mat[queries], rel, k) for k in RECALL_KS}

    def test_recall_monotone_in_k(self):
        from gramalign.modality import Modality

        model, tables, pairs = self._setup(seed=1)
        res = run_retrieval(model, tables[Modality.SMILES], tables[Modality.PROTEIN], pairs)
        for r in res:
            assert r.recall_at[1] <= r.recall_at[10] <= r.recall_at[100]


SCIPY_STATS_PROBE = """
import sys
import numpy as np
from gramalign.data import SplitKind, make_split, synth_quadruplets
from gramalign.evaluation import auroc
from gramalign.heads import build_model
from gramalign.modality import MODALITY_ORDER, Modality
from gramalign.trainer import TrainConfig, train_dti

auroc([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1])
tables, quads = synth_quadruplets(24, (6, 6, 6, 6), 0.1, seed=0)
s_tab, p_tab = tables[Modality.SMILES], tables[Modality.PROTEIN]
pairs = sorted({(s_tab.ids[q.smiles_row], p_tab.ids[q.protein_row]) for q in quads})
folds = make_split(pairs, SplitKind.WARM, 2, seed=0, drugs=s_tab.ids, proteins=p_tab.ids)[:1]
model = build_model({m: 6 for m in MODALITY_ORDER}, 4, 6, 4, 0)
train_dti(model, s_tab, p_tab, folds, TrainConfig(dti_epochs=1, batch_size=16))
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""


def test_scoring_a_fold_never_imports_scipy_stats():
    """``auroc`` and a one-fold ``train_dti`` leave scipy.stats (about 45 MB of RSS) unloaded."""
    src = str(Path(gramalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_STATS_PROBE], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
