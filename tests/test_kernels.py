"""Batched pair volumes against the per-tuple reference and a high-precision oracle."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from gramalign import kernels
from gramalign.errors import DimensionMismatch
from gramalign.losses import EPS_VOL, Batch, volume_contrastive
from gramalign.modality import MODALITY_ORDER
from gramalign.numerics import volume_unclamped
from oracles import cofactor_volume, cofactor_volume_grad


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def make_inputs(rng, batch, dim, n_others):
    anchor = unit_rows(rng.standard_normal((batch, dim)))
    others = unit_rows(rng.standard_normal((n_others, batch, dim)))
    return anchor, others


def tuple_of(anchor, others, i, j):
    """Rows of the (anchor_j, others_i) tuple."""
    return np.stack([anchor[j], *others[:, i]])


@pytest.mark.parametrize("n_others", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_backends_agree(batch, n_others):
    """The batched QR kernel and the per-tuple cofactor oracle in ``tests/oracles.py`` agree."""
    rng = np.random.default_rng(batch * 10 + n_others)
    anchor, others = make_inputs(rng, batch, 8, n_others)
    pv = kernels.pair_volumes(anchor, others, 1e-10)
    got_vol = pv.vol  # the kernel drops pv.vol and forms its coefficients in the weights' array
    w = rng.standard_normal((batch, batch))
    grads = kernels.pair_volume_coeffs(pv, w.copy())

    vol = np.empty((batch, batch))
    expected = np.zeros_like(grads)
    for i in range(batch):
        for j in range(batch):
            f = tuple_of(anchor, others, i, j)
            vol[i, j] = cofactor_volume(f, 1e-10)
            ref = w[i, j] * cofactor_volume_grad(f, 1e-10)
            expected[0, j] += ref[0]
            for u in range(n_others):
                expected[u + 1, i] += ref[u + 1]
    np.testing.assert_allclose(got_vol, vol, atol=1e-12)
    np.testing.assert_allclose(grads, expected, atol=1e-12)


# The case ids are those of the former numpy and numba backends, kept so the
# test names stay comparable across versions. The one QR routine must give the
# same volumes whether its inputs are C-contiguous or strided views.
@pytest.mark.parametrize("layout", ["pair_volumes_numpy", "pair_volumes_numba"])
def test_matches_per_tuple_volume(layout):
    rng = np.random.default_rng(5)
    anchor, others = make_inputs(rng, 6, 10, 3)
    if layout == "pair_volumes_numba":
        anchor = np.asfortranarray(anchor)
        others = np.ascontiguousarray(others.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not others.flags.c_contiguous and not anchor.flags.c_contiguous
    vol = kernels.pair_volumes(anchor, others, 0.0).vol
    for i in range(6):
        for j in range(6):
            ref = volume_unclamped(tuple_of(anchor, others, i, j))
            assert vol[i, j] == pytest.approx(ref, abs=1e-12)


def test_coeff_definition_against_adjugate():
    # with a one-hot weight on pair (i, j) the gradient is adj(G_ij) F_ij / V_ij
    rng = np.random.default_rng(9)
    anchor, others = make_inputs(rng, 4, 6, 2)
    eps = 1e-10
    for i in range(4):
        for j in range(4):
            w = np.zeros((4, 4))
            w[i, j] = 1.0
            # the kernel consumes its PairVolumes, so each weighting gets its own
            grads = kernels.pair_volume_coeffs(kernels.pair_volumes(anchor, others, eps), w)
            expected = cofactor_volume_grad(tuple_of(anchor, others, i, j), eps)
            np.testing.assert_allclose(grads[0, j], expected[0], atol=1e-10)
            np.testing.assert_allclose(grads[1:, i], expected[1:], atol=1e-10)
            untouched = np.ones(4, dtype=bool)
            untouched[j] = False
            assert not grads[0, untouched].any()


def test_eps_regularizes_collapsed_pairs():
    rng = np.random.default_rng(11)
    anchor, _ = make_inputs(rng, 3, 5, 1)
    # the anchor duplicated as the only non-anchor: every diagonal det is ~0
    pv = kernels.pair_volumes(anchor, anchor[None], 1e-10)
    assert np.all(np.isfinite(pv.vol))
    assert pv.vol.min() >= 0.0
    assert pv.vol.max() <= 1.0 + 1e-6
    assert np.all(np.isfinite(kernels.pair_volume_coeffs(pv, np.ones((3, 3)))))


def test_exactly_dependent_non_anchors_give_finite_gradients():
    rng = np.random.default_rng(12)
    anchor, _ = make_inputs(rng, 3, 5, 2)
    others = np.zeros((2, 3, 5))
    others[:, :, 0] = 1.0  # both non-anchors are e_0, so R_i is exactly singular
    pv = kernels.pair_volumes(anchor, others, 1e-10)
    assert not pv.det_s.any()
    np.testing.assert_allclose(pv.vol, np.sqrt(1e-10))
    grads = kernels.pair_volume_coeffs(pv, np.ones((3, 3)))
    assert np.all(np.isfinite(grads))


def reference_coeffs(pv, weights):
    """``pair_volume_coeffs`` with every product formed out of place."""
    b, m, d = pv.qt.shape
    c = np.asarray(weights, dtype=np.float64) * pv.det_s[:, None] / pv.vol
    # the transposed view of Q in the (B, d, m) layout np.linalg.qr returns, whose
    # products must round like those of the C-contiguous pv.qt
    qt = np.ascontiguousarray(pv.qt.transpose(0, 2, 1)).transpose(0, 2, 1)
    singular = pv.det_s == 0.0
    rinv = np.linalg.inv(np.where(singular[:, None, None], np.eye(m), pv.r))
    rinv[singular] = 0.0
    grads = np.empty((m + 1, b, d))
    ct = (c[:, None, :] * pv.t).reshape(b * m, b)
    grads[0] = c.sum(axis=0)[:, None] * pv.anchor - ct.T @ qt.reshape(b * m, d)
    cy = c[:, None, :] * (rinv @ pv.t)
    e = rinv @ qt
    g = (c * pv.rho2).sum(axis=1)[:, None, None] * e
    g -= (cy.reshape(b * m, b) @ pv.anchor).reshape(b, m, d)
    g += (cy @ pv.t.transpose(0, 2, 1)) @ qt
    grads[1:] = g.transpose(1, 0, 2)
    return grads


@pytest.mark.parametrize("k", [3, 4])
def test_coeffs_equal_out_of_place_reference(k):
    """The in-place products round exactly like the out-of-place formulas, singular samples too."""
    rng = np.random.default_rng(30 + k)
    anchor, others = make_inputs(rng, 64, 16, k - 1)
    others[:, 5] = 0.0
    others[:, 5, 0] = 1.0  # sample 5's non-anchors are all e_0, so det S_5 is exactly 0
    pv = kernels.pair_volumes(anchor, others, EPS_VOL)
    assert np.flatnonzero(pv.det_s == 0.0).tolist() == [5]
    w = rng.standard_normal((64, 64))
    want = reference_coeffs(pv, w).tobytes()  # before the kernel consumes pv and w
    assert kernels.pair_volume_coeffs(pv, w).tobytes() == want


def test_coeffs_peak_under_their_live_work_arrays():
    """At B=256, k=4 the coefficients hold no copy of Q and no B x B array of their own.

    Over what is live at entry, the peak is bounded by the (k, B, d) result,
    one (B, m, d) and one (B, m, B) work array, less two B x B arrays: c is
    formed in the weights' array, and V and rho^2 are dropped before the
    work arrays are made. On exit the weights, V and rho^2 are freed, as
    they are when the caller holds no other reference to them, as the
    volume loss does. Measured: 7.08 MiB against the 7.5 MiB bound, and
    2.50 MiB left on exit. Forming c in a new array and keeping V, rho^2
    and the weights until the return read 9.52 and 3.50 MiB.
    """
    b, d, m = 256, 512, 3
    rng = np.random.default_rng(40)
    anchor, others = make_inputs(rng, b, d, m)
    tracemalloc.start()
    try:
        pv = kernels.pair_volumes(anchor, others, EPS_VOL)
        w = [rng.standard_normal((b, b))]
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = kernels.pair_volume_coeffs(pv, w.pop())  # handed over, as the loss does
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pv.vol is None and pv.rho2 is None
    assert peak - entry <= grads.nbytes + 8 * (b * m * d + b * m * b - 2 * b * b)
    assert after - entry <= grads.nbytes - 3 * 8 * b * b + 2**16


def test_tuple_volumes_match_per_tuple_reference():
    rng = np.random.default_rng(13)
    vectors = list(unit_rows(rng.standard_normal((4, 9, 7))))
    vol = kernels.tuple_volumes(vectors)
    for n in range(9):
        ref = volume_unclamped(np.stack([v[n] for v in vectors]))
        assert vol[n] == pytest.approx(ref, abs=1e-12)
    assert not kernels.tuple_volumes([v[:, :3] for v in vectors]).any()


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        kernels.pair_volumes(np.ones((3, 4)), np.ones((2, 2, 4)), 0.0)
    with pytest.raises(DimensionMismatch):  # three non-anchors in two dimensions
        kernels.pair_volumes(np.ones((3, 2)), np.ones((3, 3, 2)), 0.0)


# ---------------------------------------------------------------------------
# near collapse, against a 60-digit oracle
# ---------------------------------------------------------------------------

ORACLE_DIGITS = 60
TAU = 0.07


def oracle_loss_grads(emb, active):
    """Volumes and volume-loss gradients of ``volume_contrastive`` in 60-digit arithmetic.

    The inputs are taken as exact; the anchor is ``active[0]``. Returns the
    (B, B) volumes and one (B, d) gradient per active modality, as floats.
    """
    with mpmath.workdps(ORACLE_DIGITS):
        b = len(emb[active[0]])
        rows = {m: [[mpmath.mpf(float(x)) for x in row] for row in emb[m]] for m in active}
        eps = mpmath.mpf(EPS_VOL)
        tau = mpmath.mpf(TAU)
        vol = [[None] * b for _ in range(b)]
        dvol = [[None] * b for _ in range(b)]  # d V_ij / d (tuple rows), as mp matrices
        for i in range(b):
            for j in range(b):
                f = mpmath.matrix([rows[active[0]][j]] + [rows[m][i] for m in active[1:]])
                g = f * f.T
                det = mpmath.det(g)
                vol[i][j] = mpmath.sqrt(max(det, 0) + eps)
                dvol[i][j] = det * g**-1 * f / vol[i][j]  # adj(G) F / V
        s = [[-vol[i][j] / tau for j in range(b)] for i in range(b)]
        lse_rows = [mpmath.log(mpmath.fsum(mpmath.exp(x) for x in s[i])) for i in range(b)]
        lse_cols = [mpmath.log(mpmath.fsum(mpmath.exp(s[i][j]) for i in range(b))) for j in range(b)]
        d = len(rows[active[0]][0])
        grads = {m: [[mpmath.mpf(0)] * d for _ in range(b)] for m in active}
        for i in range(b):
            for j in range(b):
                ds = (mpmath.exp(s[i][j] - lse_rows[i]) + mpmath.exp(s[i][j] - lse_cols[j])
                      - (2 if i == j else 0)) / (2 * b)
                w = -ds / tau
                for u, m in enumerate(active):
                    n = j if u == 0 else i
                    for x in range(d):
                        grads[m][n][x] += w * dvol[i][j][u, x]
        return (np.array([[float(v) for v in row] for row in vol]),
                {m: np.array([[float(v) for v in row] for row in g]) for m, g in grads.items()})


@pytest.mark.parametrize("noise", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("k", [3, 4])
def test_near_collapse_matches_mpmath_oracle(k, noise):
    """Matched tuples a noise level away from collapse, where training drives them.

    Each sample's modalities are one base direction plus Gaussian noise, so
    every sample's non-anchors are nearly dependent and every positive tuple
    nearly collapsed. Forming the Gram matrix loses about log10(1/noise^2)
    digits there; the QR route must keep V and the full loss gradients close
    to a 60-digit evaluation of the same inputs.
    """
    rng = np.random.default_rng(int(k * 100 + round(-np.log10(noise))))
    b, d = 6, 24
    base = rng.standard_normal((b, d))
    emb = {m: unit_rows(base + noise * rng.standard_normal((b, d))) for m in MODALITY_ORDER}
    active = MODALITY_ORDER[-k:]
    anchor = active[-1]
    order = (anchor, *(m for m in active if m != anchor))

    ref_vol, ref_grads = oracle_loss_grads(emb, order)
    others = np.stack([emb[m] for m in order[1:]])
    vol = kernels.pair_volumes(emb[anchor], others, EPS_VOL).vol
    out = volume_contrastive(Batch(embeddings=emb), anchor, active, TAU)

    assert np.max(np.abs(vol - ref_vol) / ref_vol) <= 1e-10
    for m in order:
        err = np.max(np.abs(out.grads[m] - ref_grads[m])) / np.max(np.abs(ref_grads[m]))
        assert err <= 1e-10, f"{m.name}: relative gradient error {err:.2e}"
