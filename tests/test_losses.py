"""Loss tests against independent brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gramalign.data import class_weights
from gramalign.losses import (
    EPS_VOL,
    Batch,
    LossOut,
    _info_nce,
    _logsumexp,
    clip_bimodal,
    ic50_loss,
    total_loss,
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


def lse_cases():
    """(id, matrix): shapes from 1x1 to 1280x1280, tied maxima, magnitudes up to 1e3."""
    rng = np.random.default_rng(20)
    for shape in [(1, 1), (1, 7), (7, 1), (3, 5), (64, 64), (512, 5), (1280, 1280)]:
        yield f"{shape[0]}x{shape[1]}", rng.standard_normal(shape) * 10.0
    tied = rng.standard_normal((40, 30))
    tied[3, [2, 9, 17]] = tied[3].max() + 1.0  # three maxima in row 3
    tied[[1, 5, 30], 4] = tied[:, 4].max() + 1.0  # three maxima in column 4
    tied[7] = 2.5  # a constant row: every entry is its maximum
    yield "tied", tied
    yield "magnitude-1e3", rng.uniform(-1e3, 1e3, (200, 300))
    yield "grid", np.round(rng.standard_normal((100, 100)), 1)  # many exact ties
    yield "transposed", rng.standard_normal((300, 200)).T  # a strided view


LSE_CASES = dict(lse_cases())


@pytest.mark.parametrize("keepdims", [False, True], ids=["squeezed", "keepdims"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("case", list(LSE_CASES))
def test_logsumexp_equals_scipy_bit_for_bit(case, axis, keepdims):
    a = LSE_CASES[case]
    got = _logsumexp(a, axis=axis, keepdims=keepdims)
    want = logsumexp(a, axis=axis, keepdims=keepdims)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_info_nce(s):
    """``_info_nce`` with scipy's logsumexp, every array formed out of place and np.eye."""
    b = s.shape[0]
    lse_rows, lse_cols = logsumexp(s, axis=1), logsumexp(s, axis=0)
    diag = np.diag(s)
    l_fwd, l_rev = float(np.mean(lse_rows - diag)), float(np.mean(lse_cols - diag))
    p_rows, p_cols = np.exp(s - lse_rows[:, None]), np.exp(s - lse_cols[None, :])
    eye = np.eye(b)
    ds = ((p_rows - eye) + (p_cols - eye)) / (2.0 * b)
    return 0.5 * (l_fwd + l_rev), l_fwd, l_rev, ds


@pytest.mark.parametrize("b", [1, 2, 9, 512])
def test_info_nce_equals_out_of_place_reference(b):
    rng = np.random.default_rng(b)
    s = rng.standard_normal((b, b)) / 0.07
    before = s.copy()
    got, want = _info_nce(s), reference_info_nce(s)
    assert got[:3] == want[:3]
    assert got[3].tobytes() == want[3].tobytes()
    np.testing.assert_array_equal(s, before)  # the caller's scores are not written to


class TestInfoNceSymmetry:
    def test_forward_on_s_equals_reverse_on_transpose(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.standard_normal((4, 4))
            _, fwd, _, _ = _info_nce(s)
            _, _, rev_t, _ = _info_nce(s.T)
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


class TestTotalLoss:
    def _parts(self, rng):
        g = lambda: {m: rng.standard_normal((2, 3)) for m in MODALITY_ORDER}
        return (
            LossOut(value=0.5, grads=g()),
            LossOut(value=0.25, grads=g()),
            LossOut(value=0.125, grads=g()),
        )

    def test_single_component(self):
        vol, bi, ic = self._parts(np.random.default_rng(0))
        out = total_loss(vol, bi, ic, 1.0, 0.0, 0.0)
        assert out.value == pytest.approx(0.5)
        for m in MODALITY_ORDER:
            np.testing.assert_allclose(out.grads[m], vol.grads[m])

    def test_all_zero(self):
        zero = LossOut(value=0.0, grads={})
        assert total_loss(zero, zero, zero, 1.0, 1.0, 1.0).value == 0.0

    def test_weighted_sum(self):
        vol, bi, ic = self._parts(np.random.default_rng(1))
        out = total_loss(vol, bi, ic, 1.0, 1.0, 1.0)
        assert out.value == pytest.approx(0.875)
        for m in MODALITY_ORDER:
            np.testing.assert_allclose(
                out.grads[m], vol.grads[m] + bi.grads[m] + ic.grads[m]
            )

    def test_lambda_scaling(self):
        vol, bi, ic = self._parts(np.random.default_rng(2))
        out = total_loss(vol, bi, ic, 2.0, 0.5, 3.0)
        assert out.value == pytest.approx(2 * 0.5 + 0.5 * 0.25 + 3 * 0.125)

    @pytest.mark.parametrize("lams", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
    def test_sparse_parts_sum_present_terms_in_order(self, lams):
        """Each modality sums only the parts that reach it, bit-equal to (lv*v + lb*b) + li*i."""
        rng = np.random.default_rng(3)
        g = lambda ms: {m: rng.standard_normal((2, 3)) for m in ms}
        vol = LossOut(value=0.5, grads=g((S, T, P)))  # HTA dropped
        bi = LossOut(value=0.25, grads=g((S, P)))
        ic = LossOut(value=0.125, grads=g(MODALITY_ORDER))
        before = [{m: a.copy() for m, a in part.grads.items()} for part in (vol, bi, ic)]
        out = total_loss(vol, bi, ic, *lams)
        assert set(out.grads) == set(MODALITY_ORDER)
        for m in MODALITY_ORDER:
            terms = [lam * part.grads[m] for lam, part in zip(lams, (vol, bi, ic))
                     if m in part.grads]
            expected = terms[0]
            for t in terms[1:]:
                expected = expected + t
            assert out.grads[m].tobytes() == expected.tobytes()
            assert not any(np.shares_memory(out.grads[m], part.grads[m])
                           for part in (vol, bi, ic) if m in part.grads)
        for part, saved in zip((vol, bi, ic), before):
            for m, a in part.grads.items():
                assert a.tobytes() == saved[m].tobytes()
