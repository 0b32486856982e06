"""Unit tests for Gram matrices, determinants, volumes, and volume gradients."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramalign.errors import (
    DimensionMismatch,
    NotNormalized,
    NotSymmetric,
    SingularGram,
)
from gramalign.numerics import (
    VolumeGrad,
    det_psd,
    gram_matrix,
    gram_volume,
    gram_volume_grad,
    volume_unclamped,
)


def cofactor_det(m):
    """Independent oracle: recursive cofactor expansion on nested lists."""
    n = len(m)
    if n == 1:
        return m[0][0]
    det = 0.0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        det += ((-1.0) ** c) * m[0][c] * cofactor_det(minor)
    return det


def random_unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


class TestGramMatrix:
    def test_orthonormal_basis(self):
        e = np.eye(4)
        np.testing.assert_allclose(gram_matrix([e[0], e[1], e[2], e[3]]), np.eye(4))

    def test_duplicate_vector(self):
        u = np.array([1.0, 2.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(gram_matrix([u, u]), np.ones((2, 2)), atol=1e-12)

    def test_sixty_degrees(self):
        g = gram_matrix([np.array([1.0, 0.0]), np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])])
        np.testing.assert_allclose(g, [[1, 0.5], [0.5, 1]], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gram_matrix([np.ones(3) / np.sqrt(3), np.ones(4) / 2.0])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            gram_matrix([np.array([1.0, 0.0]), np.array([0.0, 1.1])])

    def test_tuple_size_limits(self):
        e = np.eye(5)
        with pytest.raises(DimensionMismatch):
            gram_matrix([e[0]])
        with pytest.raises(DimensionMismatch):
            gram_matrix([e[k] for k in range(5)])


class TestDetPsd:
    def test_identity(self):
        assert det_psd(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert det_psd(np.diag([2.0, 3.0])) == pytest.approx(6.0, abs=1e-12)

    def test_rank_deficient(self):
        assert det_psd(np.ones((2, 2))) == 0.0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            det_psd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_tiny_negative_clamped(self):
        g = np.eye(2)
        g[0, 1] = g[1, 0] = 1.0 + 1e-14  # det = -2e-14 up to round-off
        assert det_psd(g) == 0.0

    def test_genuinely_negative_passes_through(self):
        assert det_psd(np.array([[1.0, 2.0], [2.0, 1.0]])) == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_cofactor_expansion(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(50):
            a = rng.standard_normal((n, n))
            g = 0.5 * (a + a.T)
            assert det_psd(g) == pytest.approx(cofactor_det(g.tolist()), abs=1e-10)


class TestGramVolume:
    def test_unit_hypercube(self):
        e = np.eye(4)
        assert gram_volume([e[0], e[1], e[2], e[3]]) == pytest.approx(1.0, abs=1e-12)

    def test_linearly_dependent(self):
        e = np.eye(4)
        assert gram_volume([e[0], e[1], e[2], e[0]]) == pytest.approx(0.0, abs=1e-12)

    def test_half_determinant_by_hand(self):
        e = np.eye(4)
        mixed = (e[0] + e[3]) / np.sqrt(2.0)
        assert gram_volume([e[0], e[1], e[2], mixed]) == pytest.approx(0.70710678, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.sampled_from([4, 8, 16]))
    def test_bounds_and_permutation_invariance(self, seed, n, d):
        rng = np.random.default_rng(seed)
        f = random_unit_rows(rng, n, d)
        base = gram_volume(list(f))
        assert 0.0 <= base <= 1.0
        for perm in itertools.permutations(range(n)):
            assert abs(gram_volume([f[k] for k in perm]) - base) <= 1e-12

    def test_monotone_collapse(self):
        rng = np.random.default_rng(0)
        f = random_unit_rows(rng, 4, 8)
        for k in range(1, 4):
            g = f.copy()
            g[k] = f[0]
            assert gram_volume(list(g)) <= 1e-6

    def test_one_iff_orthogonal(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        assert gram_volume(list(q.T)) == pytest.approx(1.0, abs=1e-9)


class TestGramVolumeGrad:
    def test_orthonormal_tangent_gradient_zero(self):
        # at the constrained maximum, the gradient is purely radial: any
        # direction orthogonal to the vector itself sees zero derivative
        e = np.eye(4)
        vg = gram_volume_grad([e[0], e[1], e[2], e[3]])
        assert vg.value == pytest.approx(1.0, abs=1e-12)
        for k in range(4):
            g = vg.per_vector[k]
            tangent = g - (g @ e[k]) * e[k]
            np.testing.assert_allclose(tangent, 0.0, atol=1e-12)

    def test_sine_angle_closed_form(self):
        theta = np.pi / 3
        u = np.array([1.0, 0.0])
        v = np.array([np.cos(theta), np.sin(theta)])
        vg = gram_volume_grad([u, v])
        assert vg.value == pytest.approx(np.sin(theta), abs=1e-12)
        dv_dtheta = vg.per_vector[1] @ np.array([-np.sin(theta), np.cos(theta)])
        assert dv_dtheta == pytest.approx(np.cos(theta), abs=1e-10)

    def test_singular_configuration_rejected(self):
        e = np.eye(3)
        with pytest.raises(SingularGram):
            gram_volume_grad([e[0], e[0], e[1]])

    def test_finite_difference_agreement_100_seeds(self):
        h = 1e-5
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            d = int(rng.integers(4, 9))
            f = random_unit_rows(rng, n, d)
            try:
                vg = gram_volume_grad(list(f))
            except SingularGram:
                continue
            analytic = np.stack(vg.per_vector)
            fd = np.zeros_like(f)
            for idx in np.ndindex(f.shape):
                fp = f.copy()
                fp[idx] += h
                fm = f.copy()
                fm[idx] -= h
                fd[idx] = (volume_unclamped(fp) - volume_unclamped(fm)) / (2 * h)
            scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
            worst = max(worst, float(np.abs(analytic - fd).max() / scale))
        assert worst <= 1e-6

    def test_grad_shape_contract(self):
        rng = np.random.default_rng(3)
        f = random_unit_rows(rng, 3, 6)
        vg = gram_volume_grad(list(f))
        assert isinstance(vg, VolumeGrad)
        assert len(vg.per_vector) == 3
        assert all(g.shape == (6,) for g in vg.per_vector)
