"""Tests for GEMB1 I/O, manifests, IC50 discretization, splits, and synth data."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramalign import data
from gramalign.data import (
    EmbeddingTable,
    PairDataset,
    Quadruplet,
    SplitKind,
    class_weights,
    discretize_ic50,
    load_embedding_table,
    load_manifest,
    make_split,
    synth_quadruplets,
    write_embedding_table,
    write_manifest,
)
from gramalign.errors import (
    BadMagic,
    EmptyClass,
    FormatError,
    InsufficientEntities,
    NonFiniteValue,
    NonPositiveIc50,
    TruncatedFile,
    UnknownId,
    WrongModality,
)
from gramalign.modality import MODALITY_ORDER, Modality


def small_table(rng, modality=Modality.SMILES, n=4, dim=3):
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    ids = [f"{modality.short}:{i}" for i in range(n)]
    return EmbeddingTable(modality=modality, ids=ids, rows=rows)


class TestGemb1:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = small_table(rng, n=2, dim=3)
        table.ids[1] = "molécule-β"  # unicode ids survive
        path = tmp_path / "t.gemb"
        write_embedding_table(table, path)
        back = load_embedding_table(path)
        assert back.modality == table.modality
        assert back.ids == table.ids
        assert back.rows.tobytes() == table.rows.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.gemb"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_embedding_table(path)

    def test_truncated_rows(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.gemb"
        write_embedding_table(small_table(rng, n=3, dim=2), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 7, 4)  # declare 4 rows, payload has 3
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile):
            load_embedding_table(path)

    def test_truncated_id(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.gemb"
        write_embedding_table(small_table(rng, n=2, dim=2), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            load_embedding_table(path)

    def test_non_finite_names_offset(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.gemb"
        write_embedding_table(small_table(rng, n=2, dim=2), path)
        blob = bytearray(path.read_bytes())
        # poison float #2 (row 1, col 0): header is 15 bytes, floats are 4 bytes
        struct.pack_into("<f", blob, 15 + 4 * 2, float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValue, match="offset 23"):
            load_embedding_table(path)

    def test_wrong_modality(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "t.gemb"
        write_embedding_table(small_table(rng, modality=Modality.TEXT), path)
        with pytest.raises(WrongModality):
            load_embedding_table(path, Modality.PROTEIN)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "t.gemb"
        write_embedding_table(small_table(rng), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_embedding_table(path)

    def test_write_makes_no_copy_of_the_rows(self, tmp_path):
        """A paper-width table goes to its file without a staging copy of its payload."""
        rows = np.ones((4000, 1280), dtype=np.float32)  # 20.5 MB
        table = EmbeddingTable(Modality.PROTEIN, [f"p{i}" for i in range(len(rows))], rows)
        tracemalloc.start()
        try:
            write_embedding_table(table, tmp_path / "p.gemb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4
        assert load_embedding_table(tmp_path / "p.gemb").rows.tobytes() == rows.tobytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        tables, quads = synth_quadruplets(12, (4, 4, 4, 6), 0.1, seed=7)
        path = tmp_path / "manifest.tsv"
        write_manifest(quads, tables, path)
        back = load_manifest(path, tables)
        assert back == quads

    def test_unknown_id(self, tmp_path):
        tables, quads = synth_quadruplets(6, (4, 4, 4, 6), 0.1, seed=7)
        path = tmp_path / "manifest.tsv"
        write_manifest(quads, tables, path)
        text = path.read_text().replace("smiles-000001", "smiles-999999")
        path.write_text(text)
        with pytest.raises(UnknownId):
            load_manifest(path, tables)

    def test_non_numeric_ic50_names_line(self, tmp_path):
        tables, quads = synth_quadruplets(6, (4, 4, 4, 6), 0.1, seed=7)
        path = tmp_path / "manifest.tsv"
        write_manifest(quads, tables, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\tabc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3: ic50_um 'abc'"):
            load_manifest(path, tables)


class TestDiscretizeIc50:
    @pytest.mark.parametrize(
        "value,expected",
        [(5, 0), (9.999, 0), (10, 1), (500, 1), (1000, 1), (1000.1, 2), (1e6, 2)],
    )
    def test_threshold_mapping(self, value, expected):
        assert discretize_ic50(value) == expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(NonPositiveIc50):
            discretize_ic50(bad)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e7), st.floats(1e-6, 1e7))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discretize_ic50(lo) <= discretize_ic50(hi)


class TestClassWeights:
    def test_balanced(self):
        cw = class_weights([0] * 10 + [1] * 10 + [2] * 10)
        np.testing.assert_allclose(cw.weights, [1, 1, 1])

    def test_hand_100_50_50(self):
        cw = class_weights([0] * 100 + [1] * 50 + [2] * 50)
        np.testing.assert_allclose(cw.weights, [0.666667, 1.333333, 1.333333], atol=1e-6)

    def test_hand_extreme_imbalance(self):
        # w = 1000 / (3 * N_c): 1000/3 = 333.333..., 1000/2994 = 0.334001...
        cw = class_weights([0, 1] + [2] * 998)
        np.testing.assert_allclose(cw.weights, [333.333333, 333.333333, 0.334001], atol=1e-6)

    def test_weighted_counts_recover_total(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=500).tolist() + [0, 1, 2]
        cw = class_weights(labels)
        assert sum(n * w for n, w in zip(cw.counts, cw.weights)) == pytest.approx(
            cw.total, abs=1e-9
        )

    def test_empty_class_named(self):
        with pytest.raises(EmptyClass, match="class 2"):
            class_weights([0, 1, 0, 1])


def brute_force_negatives(rows, cols, pos_set, count, rng):
    """The negative sampler written out: materialised grid, sorted set difference, same draw."""
    pool = sorted({(r, c) for r in rows for c in cols} - set(pos_set))
    if len(pool) < count:
        raise InsufficientEntities(
            f"need {count} negative pairs but only {len(pool)} non-positive pairs exist"
        )
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(idx.tolist())]


def _check_fold_invariants(folds, kind):
    all_test_positives = []
    for fold in folds:
        for ds in (fold.train, fold.test):
            pos = [(d, p) for d, p, y in ds.pairs if y == 1]
            neg = [(d, p) for d, p, y in ds.pairs if y == 0]
            assert len(neg) == 10 * len(pos)
            assert len(set(ds.pairs)) == len(ds.pairs)
        train_pairs = {(d, p) for d, p, _ in fold.train.pairs}
        test_pairs = {(d, p) for d, p, _ in fold.test.pairs}
        assert not train_pairs & test_pairs
        if kind is SplitKind.DRUG_COLD:
            assert not fold.train.drug_ids() & fold.test.drug_ids()
        if kind is SplitKind.TARGET_COLD:
            assert not fold.train.protein_ids() & fold.test.protein_ids()
        all_test_positives.extend(fold.test.positives())
    # each positive lands in exactly one test fold
    assert len(all_test_positives) == len(set(all_test_positives))


class TestMakeSplit:
    def _positives(self, n_entities=20, n_extra=5, seed=0):
        # one positive per entity pair plus a few cross pairs, so the
        # non-positive grid is large enough for 10:1 sampling
        rng = np.random.default_rng(seed)
        pos = [(f"d{i}", f"p{i}") for i in range(n_entities)]
        while len(pos) < n_entities + n_extra:
            i, j = rng.integers(0, n_entities, size=2)
            if i != j and (f"d{i}", f"p{j}") not in pos:
                pos.append((f"d{i}", f"p{j}"))
        return pos

    def test_warm_arithmetic(self):
        folds = make_split(self._positives(n_extra=0), SplitKind.WARM, 5, seed=3)
        assert len(folds) == 5
        for fold in folds:
            assert len(fold.test.positives()) == 4
            assert len([p for p in fold.test.pairs if p[2] == 0]) == 40
        _check_fold_invariants(folds, SplitKind.WARM)

    def test_drug_cold_disjointness(self):
        folds = make_split(self._positives(), SplitKind.DRUG_COLD, 4, seed=3)
        _check_fold_invariants(folds, SplitKind.DRUG_COLD)

    def test_target_cold_disjointness(self):
        folds = make_split(self._positives(), SplitKind.TARGET_COLD, 3, seed=3)
        _check_fold_invariants(folds, SplitKind.TARGET_COLD)

    def test_same_seed_identical(self):
        a = make_split(self._positives(), SplitKind.WARM, 5, seed=9)
        b = make_split(self._positives(), SplitKind.WARM, 5, seed=9)
        assert [f.train.pairs for f in a] == [f.train.pairs for f in b]
        assert [f.test.pairs for f in a] == [f.test.pairs for f in b]

    def test_different_seed_differs(self):
        a = make_split(self._positives(), SplitKind.WARM, 5, seed=9)
        b = make_split(self._positives(), SplitKind.WARM, 5, seed=10)
        assert [f.test.pairs for f in a] != [f.test.pairs for f in b]

    def test_insufficient_entities(self):
        pos = [("d0", "p0"), ("d0", "p1"), ("d1", "p0"), ("d1", "p1")]
        with pytest.raises(InsufficientEntities):
            make_split(pos, SplitKind.DRUG_COLD, 3, seed=0)  # 2 drugs, 3 folds

    def test_folds_minimum(self):
        with pytest.raises(InsufficientEntities):
            make_split(self._positives(), SplitKind.WARM, 1, seed=0)

    @pytest.mark.parametrize("universe", [False, True], ids=["positive-entities", "universe"])
    @pytest.mark.parametrize("kind", list(SplitKind), ids=lambda k: k.value)
    def test_matches_brute_force_sampler(self, monkeypatch, kind, universe):
        """Folds equal those drawn from the materialised pool, on random sparse grids."""
        rng = np.random.default_rng([11, list(SplitKind).index(kind), int(universe)])
        drawn = 0
        for _ in range(25):
            n_d, n_p = (int(n) for n in rng.integers(12, 40, size=2))
            # every entity in some positive, plus a few random pairs; unpadded
            # ids, so lexicographic order differs from numeric order
            m = max(n_d, n_p)
            rows = np.concatenate([np.arange(m) % n_d, rng.integers(0, n_d, size=5)])
            cols = np.concatenate([rng.permutation(m) % n_p, rng.integers(0, n_p, size=5)])
            pos = [(f"d{i}", f"p{j}") for i, j in zip(rows, cols)]
            kwargs = {}
            if universe:
                kwargs = {"drugs": [f"d{i}" for i in range(n_d + 4)],
                          "proteins": [f"p{j}" for j in range(n_p + 3)]}
            folds, seed = int(rng.integers(2, 5)), int(rng.integers(1000))

            def split():
                try:
                    out = make_split(pos, kind, folds, seed, **kwargs)
                except InsufficientEntities as e:
                    return str(e)
                return [(f.train.pairs, f.test.pairs) for f in out]

            fast = split()
            with monkeypatch.context() as mp:
                mp.setattr(data, "_draw_negatives", brute_force_negatives)
                assert split() == fast
            drawn += not isinstance(fast, str)
        assert drawn >= 15  # most cases draw folds rather than raise

    @pytest.mark.parametrize("kind", list(SplitKind), ids=lambda k: k.value)
    def test_large_universe_never_builds_the_grid(self, kind):
        """A 1500 x 1500 universe (2.25M pairs) splits within a 32 MB allocation peak."""
        n = 1500
        drugs = [f"d{i}" for i in range(n)]
        proteins = [f"p{i}" for i in range(n)]
        pos = [(drugs[i], proteins[(7 * i) % n]) for i in range(n)]
        tracemalloc.start()
        try:
            folds = make_split(pos, kind, 5, seed=1, drugs=drugs, proteins=proteins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        _check_fold_invariants(folds, kind)


class TestSynthQuadruplets:
    def test_determinism_bit_identical(self):
        t1, q1 = synth_quadruplets(16, (6, 6, 6, 8), 0.3, seed=42)
        t2, q2 = synth_quadruplets(16, (6, 6, 6, 8), 0.3, seed=42)
        assert q1 == q2
        for m in MODALITY_ORDER:
            assert t1[m].rows.tobytes() == t2[m].rows.tobytes()

    def test_label_fraction(self):
        _, quads = synth_quadruplets(100, (4, 4, 4, 4), 0.1, seed=1)
        labeled = sum(q.ic50_class is not None for q in quads)
        assert labeled in (33, 34)

    def test_zero_noise_rankings_agree_across_modalities(self):
        tables, _ = synth_quadruplets(32, (8, 12, 16, 20), 0.0, seed=5)
        orders = []
        for m in MODALITY_ORDER:
            rows = tables[m].rows.astype(np.float64)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            sim = rows @ rows.T
            np.fill_diagonal(sim, -np.inf)
            orders.append(np.argsort(-sim, axis=1, kind="stable"))
        for other in orders[1:]:
            np.testing.assert_array_equal(orders[0], other)

    def test_ic50_values_consistent_with_classes(self):
        _, quads = synth_quadruplets(60, (4, 4, 4, 4), 0.2, seed=3)
        for q in quads:
            if q.ic50_um is not None:
                assert q.ic50_class == discretize_ic50(q.ic50_um)

    def test_all_three_classes_present(self):
        _, quads = synth_quadruplets(60, (4, 4, 4, 4), 0.2, seed=3)
        classes = {q.ic50_class for q in quads if q.ic50_class is not None}
        assert classes == {0, 1, 2}

    def test_minimum_size(self):
        with pytest.raises(InsufficientEntities):
            synth_quadruplets(3, (4, 4, 4, 4), 0.1, seed=0)


@pytest.mark.parametrize(
    "ic50_um, ic50_class",
    [(None, None), (9.999, 0), (10.0, 1), (1000.0, 1), (1000.001, 2)],
)
def test_quadruplet_derives_ic50_class(ic50_um, ic50_class):
    """The class comes from the value, boundaries 10 and 1000 in the moderate band."""
    assert Quadruplet(0, 0, 0, 0, ic50_um=ic50_um).ic50_class == ic50_class


@pytest.mark.parametrize("ic50_um", [0.0, -1.0, float("nan"), float("inf")])
def test_quadruplet_rejects_non_positive_ic50(ic50_um):
    with pytest.raises(NonPositiveIc50):
        Quadruplet(0, 0, 0, 0, ic50_um=ic50_um)


def test_pair_dataset_helpers():
    ds = PairDataset(pairs=[("d0", "p0", 1), ("d1", "p1", 0)])
    assert ds.drug_ids() == {"d0", "d1"}
    assert ds.protein_ids() == {"p0", "p1"}
    assert ds.positives() == [("d0", "p0")]
