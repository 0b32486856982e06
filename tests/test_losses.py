"""Loss tests against independent brute-force oracles."""

import math

import mpmath
import numpy as np
import pytest

from gramalign.data import class_weights
from gramalign.losses import (
    EPS_VOL,
    Batch,
    _info_nce,
    clip_bimodal,
    cross_entropy,
    ic50_loss,
    softmax,
    volume_contrastive,
    volume_similarity_forward,
)
from gramalign.modality import MODALITY_ORDER, Modality
from oracles import cofactor_volume

S, T, H, P = MODALITY_ORDER


# ---------------------------------------------------------------------------
# oracles: plain-python enumeration, no shared code with the implementation
# ---------------------------------------------------------------------------


def oracle_volume_matrix(emb, anchor, active):
    others = [m for m in MODALITY_ORDER if m in active and m != anchor]
    b = emb[anchor].shape[0]
    return [
        [cofactor_volume([emb[anchor][j]] + [emb[m][i] for m in others], EPS_VOL)
         for j in range(b)]
        for i in range(b)
    ]


def oracle_row_infonce(s):
    b = len(s)
    total = 0.0
    for i in range(b):
        lse = math.log(sum(math.exp(x) for x in s[i]))
        total += lse - s[i][i]
    return total / b


def oracle_volume_contrastive(emb, anchor, active, tau):
    vol = oracle_volume_matrix(emb, anchor, active)
    b = len(vol)
    s = [[-vol[i][j] / tau for j in range(b)] for i in range(b)]
    s_t = [[s[j][i] for j in range(b)] for i in range(b)]
    return 0.5 * (oracle_row_infonce(s) + oracle_row_infonce(s_t))


def oracle_clip(emb, tau):
    fs, fp = emb[S], emb[P]
    b = fs.shape[0]
    logits = [[float(fs[i] @ fp[j]) / tau for j in range(b)] for i in range(b)]
    logits_t = [[logits[j][i] for j in range(b)] for i in range(b)]
    return 0.5 * (oracle_row_infonce(logits) + oracle_row_infonce(logits_t))


def unit_batch(rng, b, d, labels=False):
    emb = {}
    for m in MODALITY_ORDER:
        f = rng.standard_normal((b, d))
        emb[m] = f / np.linalg.norm(f, axis=1, keepdims=True)
    if labels:
        lab = rng.integers(0, 3, size=b)
        mask = rng.random(b) < 0.6
        return Batch(embeddings=emb, ic50_labels=lab, ic50_mask=mask)
    return Batch(embeddings=emb)


class TestVolumeSimilarity:
    def test_single_sample(self):
        batch = unit_batch(np.random.default_rng(0), 1, 6)
        s = volume_similarity_forward(batch, P, MODALITY_ORDER, tau=0.07)
        assert s.shape == (1, 1)
        vol = cofactor_volume([batch.embeddings[m][0] for m in MODALITY_ORDER], EPS_VOL)
        assert s[0, 0] == pytest.approx(-vol / 0.07, abs=1e-9)

    def test_identical_samples_constant_matrix(self):
        batch = unit_batch(np.random.default_rng(1), 1, 6)
        emb = {m: np.repeat(batch.embeddings[m], 2, axis=0) for m in MODALITY_ORDER}
        s = volume_similarity_forward(Batch(embeddings=emb), P, MODALITY_ORDER, tau=0.07)
        assert np.ptp(s) == pytest.approx(0.0, abs=1e-12)

    def test_entries_match_independent_recomputation(self):
        batch = unit_batch(np.random.default_rng(2), 2, 5)
        s = volume_similarity_forward(batch, S, MODALITY_ORDER, tau=0.5)
        vol = oracle_volume_matrix(batch.embeddings, S, MODALITY_ORDER)
        for i in range(2):
            for j in range(2):
                assert s[i, j] == pytest.approx(-vol[i][j] / 0.5, abs=1e-12)

    def test_entries_nonpositive(self):
        batch = unit_batch(np.random.default_rng(3), 4, 8)
        s = volume_similarity_forward(batch, T, MODALITY_ORDER, tau=0.07)
        assert np.all(s <= 0.0)

    def test_anchor_must_be_active(self):
        from gramalign.errors import DimensionMismatch

        batch = unit_batch(np.random.default_rng(4), 2, 5)
        with pytest.raises(DimensionMismatch):
            volume_similarity_forward(batch, S, (T, H, P), tau=0.07)


class TestVolumeContrastive:
    def test_single_sample_zero_loss(self):
        batch = unit_batch(np.random.default_rng(0), 1, 6)
        out = volume_contrastive(batch, P, MODALITY_ORDER, tau=0.07)
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_samples_ln2(self):
        base = unit_batch(np.random.default_rng(1), 1, 8)
        emb = {m: np.repeat(base.embeddings[m], 2, axis=0) for m in MODALITY_ORDER}
        out = volume_contrastive(Batch(embeddings=emb), P, MODALITY_ORDER, tau=0.07)
        assert out.value == pytest.approx(math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 5))
        d = int(rng.integers(4, 9))
        batch = unit_batch(rng, b, d)
        anchor = MODALITY_ORDER[int(rng.integers(0, 4))]
        if seed % 2:
            active = MODALITY_ORDER
        else:
            others = [m for m in MODALITY_ORDER if m is not anchor]
            active = tuple(m for m in MODALITY_ORDER if m is not others[seed % 3])
        out = volume_contrastive(batch, anchor, active, tau=0.07)
        expected = oracle_volume_contrastive(batch.embeddings, anchor, active, 0.07)
        assert out.value == pytest.approx(expected, abs=1e-9)

    def test_grads_hold_the_active_modalities_only(self):
        batch = unit_batch(np.random.default_rng(5), 3, 6)
        active = (S, T, P)  # HTA dropped
        out = volume_contrastive(batch, P, active, tau=0.07)
        assert set(out.grads) == set(active)
        assert len({id(g.base) for g in out.grads.values()}) == 1  # views of one array
        for m in active:
            assert np.abs(out.grads[m]).max() > 0.0
        expected = oracle_volume_contrastive(batch.embeddings, P, active, 0.07)
        assert out.value == pytest.approx(expected, abs=1e-9)

    def test_loss_nonnegative(self):
        for seed in range(5):
            batch = unit_batch(np.random.default_rng(seed), 4, 8)
            out = volume_contrastive(batch, P, MODALITY_ORDER, tau=0.07)
            assert out.value >= 0.0

    def test_gradients_match_finite_differences(self):
        from gramalign.gradcheck import check_volume_contrastive

        assert max(check_volume_contrastive(s) for s in range(10)) <= 1e-5

    def test_shrinking_positive_volume_decreases_forward_loss(self):
        rng = np.random.default_rng(7)
        batch = unit_batch(rng, 3, 8)
        vol = np.array(oracle_volume_matrix(batch.embeddings, P, MODALITY_ORDER))

        def forward_loss(v):
            s = -v / 0.07
            return _info_nce(s)[1]

        base = forward_loss(vol)
        for i in range(3):
            shrunk = vol.copy()
            shrunk[i, i] -= 1e-6
            assert forward_loss(shrunk) < base or not np.isclose(
                forward_loss(shrunk), base
            ), "forward loss must strictly decrease when a positive volume shrinks"
            assert forward_loss(shrunk) < base


def reference_info_nce(s):
    """``_info_nce`` as the plain formulas: every array formed out of place, and np.eye."""
    b = s.shape[0]
    m_rows, m_cols = s.max(axis=1, keepdims=True), s.max(axis=0, keepdims=True)
    e_rows, e_cols = np.exp(s - m_rows), np.exp(s - m_cols)
    z_rows, z_cols = e_rows.sum(axis=1, keepdims=True), e_cols.sum(axis=0, keepdims=True)
    lse_rows, lse_cols = np.log(z_rows) + m_rows, np.log(z_cols) + m_cols
    diag = np.diag(s)
    l_fwd, l_rev = float(np.mean(lse_rows[:, 0] - diag)), float(np.mean(lse_cols[0] - diag))
    eye = np.eye(b)
    ds = ((e_rows / z_rows - eye) + (e_cols / z_cols - eye)) / (2.0 * b)
    return 0.5 * (l_fwd + l_rev), l_fwd, l_rev, ds


@pytest.mark.parametrize("b", [1, 2, 9, 512])
def test_info_nce_equals_out_of_place_reference(b):
    rng = np.random.default_rng(b)
    s = rng.standard_normal((b, b)) / 0.07
    got, want = _info_nce(s.copy()), reference_info_nce(s)  # _info_nce consumes its S
    assert got[:3] == want[:3]
    assert got[3].tobytes() == want[3].tobytes()


def wide_scores(b=24, seed=0):
    """Scores -V/tau with tau = 1e-3 whose range exceeds 745: some whole rows and some whole
    columns lie more than 745 below the global maximum, where exp(s - s.max()) is 0."""
    rng = np.random.default_rng(seed)
    vol = rng.uniform(0.0, 0.05, (b, b))
    vol[::3] += 0.8  # every third row...
    vol[:, 1::4] += 0.8  # ...and every fourth column sits far from the top
    s = -vol / 1e-3
    assert np.ptp(s) > 745
    assert not np.exp(s - s.max()).sum(axis=1).all() and not np.exp(s - s.max()).sum(axis=0).all()
    return s


def mp_softmax(s, axis):
    """(p, lse) at 50 digits: a log of an exact sum of exact exponentials, shifted by nothing."""
    lines = s if axis == 1 else s.T
    with mpmath.workdps(50):
        lse = [mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(x))) for x in line))
               for line in lines]
        p = [[float(mpmath.exp(mpmath.mpf(float(x)) - z)) for x in line]
             for line, z in zip(lines, lse)]
        lse = [float(z) for z in lse]
    p, lse = np.array(p), np.array(lse)
    return (p, lse[:, None]) if axis == 1 else (p.T, lse[None, :])


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_matches_mpmath_beyond_underflow_range(axis):
    s = wide_scores()
    p, lse = softmax(s, axis)
    want_p, want_lse = mp_softmax(s, axis)
    assert p.shape == s.shape and lse.shape == want_lse.shape
    assert np.all(np.isfinite(lse))
    np.testing.assert_allclose(lse, want_lse, rtol=1e-14, atol=0)
    np.testing.assert_allclose(p, want_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.sum(axis=axis), 1.0, rtol=0, atol=1e-12)


def test_info_nce_matches_mpmath_beyond_underflow_range():
    s = wide_scores()
    b = len(s)
    value, l_fwd, l_rev, ds = _info_nce(s.copy())
    (p_rows, lse_rows), (p_cols, lse_cols) = mp_softmax(s, 1), mp_softmax(s, 0)
    want_fwd = math.fsum(lse_rows[:, 0] - np.diag(s)) / b
    want_rev = math.fsum(lse_cols[0] - np.diag(s)) / b
    assert np.isfinite([value, l_fwd, l_rev]).all()
    assert l_fwd == pytest.approx(want_fwd, rel=1e-12)
    assert l_rev == pytest.approx(want_rev, rel=1e-12)
    want_ds = ((p_rows - np.eye(b)) + (p_cols - np.eye(b))) / (2.0 * b)
    np.testing.assert_allclose(ds, want_ds, rtol=0, atol=1e-12)


def test_cross_entropy_unit_weights_equals_in_place_onehot_gradient():
    """Unweighted, unsmoothed CE (the DTI head's) rounds like ``p[y] -= 1; p /= n``."""
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((33, 2)) * 5.0
    labels = rng.integers(0, 2, 33)
    _, got = cross_entropy(logits, labels, np.ones(33), 0.0)
    want = softmax(logits, axis=1)[0]
    want[np.arange(33), labels] -= 1.0
    want /= 33
    assert got.tobytes() == want.tobytes()


class TestInfoNceSymmetry:
    def test_forward_on_s_equals_reverse_on_transpose(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.standard_normal((4, 4))
            _, fwd, _, _ = _info_nce(s.copy())
            _, _, rev_t, _ = _info_nce(s.T.copy())
            assert fwd == pytest.approx(rev_t, abs=1e-12)

    def test_symmetric_matrix_directions_agree(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        s = 0.5 * (a + a.T)
        _, fwd, rev, _ = _info_nce(s)
        assert fwd == pytest.approx(rev, abs=1e-12)


class TestClipBimodal:
    def test_single_sample_zero(self):
        batch = unit_batch(np.random.default_rng(0), 1, 6)
        assert clip_bimodal(batch, tau=0.07).value == pytest.approx(0.0, abs=1e-12)

    def test_aligned_onehot_closed_form(self):
        # distinct one-hot rows, perfectly aligned: per-direction loss is
        # log(1 + (B-1) * exp(-1/tau))
        b, tau = 3, 0.07
        eye = np.eye(8)[:b]
        emb = {m: eye.copy() for m in MODALITY_ORDER}
        out = clip_bimodal(Batch(embeddings=emb), tau=tau)
        expected = math.log(1.0 + (b - 1) * math.exp(-1.0 / tau))
        assert out.value == pytest.approx(expected, rel=1e-6)
        assert out.value == pytest.approx(1.25e-6, rel=1e-2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        batch = unit_batch(np.random.default_rng(seed), 4, 8)
        out = clip_bimodal(batch, tau=0.07)
        assert out.value == pytest.approx(oracle_clip(batch.embeddings, 0.07), abs=1e-9)

    def test_grads_hold_smiles_and_protein_only(self):
        batch = unit_batch(np.random.default_rng(3), 4, 8)
        out = clip_bimodal(batch, tau=0.07)
        assert set(out.grads) == {S, P}

    def test_gradients_match_finite_differences(self):
        from gramalign.gradcheck import check_clip_bimodal

        assert max(check_clip_bimodal(s) for s in range(10)) <= 1e-5


class TestIc50Loss:
    def _weights(self):
        return class_weights([0, 1, 2])

    def test_empty_mask_exactly_zero(self):
        batch = unit_batch(np.random.default_rng(0), 3, 4)
        out = ic50_loss(batch, np.zeros((3, 3)), self._weights())
        assert out.value == 0.0
        np.testing.assert_array_equal(out.logit_grad, 0.0)

    def test_uniform_logits_ln3(self):
        rng = np.random.default_rng(1)
        batch = unit_batch(rng, 4, 4, labels=True)
        batch.ic50_mask[:] = True
        out = ic50_loss(batch, np.zeros((4, 3)), self._weights(), smoothing=0.1)
        assert out.value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_hand_worked_example(self):
        # logits (2, 0, 0), label 0, class weight 1.5, smoothing 0.1:
        # p = softmax -> -log p = (lse-2, lse, lse) with lse = log(e^2 + 2)
        # q = (0.9 + 0.1/3, 0.1/3, 0.1/3); loss = 1.5 * sum(q * -log p)
        lse = math.log(math.exp(2.0) + 2.0)
        q0, qoff = 0.9 + 0.1 / 3.0, 0.1 / 3.0
        expected = 1.5 * (q0 * (lse - 2.0) + qoff * lse + qoff * lse)
        assert expected == pytest.approx(0.559317, abs=1e-6)

        emb = {m: np.eye(4)[:1] for m in MODALITY_ORDER}
        batch = Batch(
            embeddings=emb, ic50_labels=np.array([0]), ic50_mask=np.array([True])
        )
        weights = self._weights()
        weights.weights = np.array([1.5, 1.0, 1.0])
        out = ic50_loss(batch, np.array([[2.0, 0.0, 0.0]]), weights, smoothing=0.1)
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        from gramalign.gradcheck import check_ic50_loss

        assert max(check_ic50_loss(s) for s in range(10)) <= 1e-5

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            batch = unit_batch(np.random.default_rng(seed), 4, 4, labels=True)
            logits = rng.standard_normal((4, 3))
            assert ic50_loss(batch, logits, self._weights()).value >= 0.0

    def test_averages_over_annotated_subset_only(self):
        rng = np.random.default_rng(3)
        emb = {m: np.eye(8)[:4] for m in MODALITY_ORDER}
        logits = rng.standard_normal((4, 3))
        full = Batch(
            embeddings=emb,
            ic50_labels=np.array([0, 1, 2, 0]),
            ic50_mask=np.array([True, True, False, False]),
        )
        out = ic50_loss(full, logits, self._weights())
        np.testing.assert_array_equal(out.logit_grad[2:], 0.0)
        # value equals the two-sample mean computed by hand
        per = []
        for i in (0, 1):
            lp = logits[i] - math.log(np.exp(logits[i]).sum())
            q = np.full(3, 0.1 / 3)
            q[full.ic50_labels[i]] += 0.9
            per.append(-(q * lp).sum())
        assert out.value == pytest.approx(np.mean(per), abs=1e-12)
