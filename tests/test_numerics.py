"""Unit tests for tuple volumes, the determinant reference, and one tuple's volume gradient."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramalign.errors import DimensionMismatch, NotNormalized
from gramalign.kernels import pair_volume_coeffs, pair_volumes
from gramalign.numerics import gram_volume, volume_unclamped
from oracles import cofactor_det, cofactor_volume


def random_unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def kernel_tuple_grad(vectors):
    """V and the (n, d) dV/dF of one tuple from the kernel: a batch of one, the first row the anchor."""
    f = np.asarray(vectors, dtype=np.float64)[:, None]
    pv = pair_volumes(f[0], f[1:], 0.0)
    return float(pv.vol[0, 0]), pair_volume_coeffs(pv, np.ones((1, 1)))[:, 0]


class TestGramMatrix:
    """Tuples whose Gram matrix is known in closed form, and ``gram_volume``'s input checks."""

    def test_orthonormal_basis(self):
        e = np.eye(4)
        assert gram_volume([e[0], e[1], e[2], e[3]]) == 1.0

    def test_duplicate_vector(self):
        u = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert gram_volume([u, u]) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self):
        v = gram_volume([np.array([1.0, 0.0]), np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])])
        assert v == pytest.approx(np.sqrt(0.75), abs=1e-12)  # det [[1, .5], [.5, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gram_volume([np.ones(3) / np.sqrt(3), np.ones(4) / 2.0])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            gram_volume([np.array([1.0, 0.0]), np.array([0.0, 1.1])])

    def test_tuple_size_limits(self):
        e = np.eye(5)
        with pytest.raises(DimensionMismatch):
            gram_volume([e[0]])
        with pytest.raises(DimensionMismatch):
            gram_volume([e[k] for k in range(5)])


class TestDetPsd:
    """``volume_unclamped``: the root of a PSD Gram determinant, round-off clamped at zero."""

    def test_identity(self):
        assert volume_unclamped(np.eye(4)) == 1.0

    def test_diagonal(self):
        f = np.diag([np.sqrt(2.0), np.sqrt(3.0)])
        assert volume_unclamped(f) == pytest.approx(np.sqrt(6.0), abs=1e-12)

    def test_rank_deficient(self):
        assert volume_unclamped(np.array([[1.0, 0.0], [1.0, 0.0]])) == 0.0

    def test_tiny_negative_clamped(self):
        negative = 0
        for seed in range(20):
            u = np.random.default_rng(seed).standard_normal(3)
            f = np.stack([u, u * (1.0 + 1e-13)])  # det = 0 up to round-off
            g = f @ f.T
            det = np.linalg.det(0.5 * (g + g.T))
            negative += det < 0.0
            assert volume_unclamped(f) == np.sqrt(max(det, 0.0))
        assert negative  # the clamp was exercised

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_cofactor_expansion(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(50):
            f = rng.standard_normal((n, n + 2))
            assert volume_unclamped(f) ** 2 == pytest.approx(cofactor_det((f @ f.T).tolist()),
                                                              abs=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_cofactor_volume_at_paper_width(self, k):
        """The benchmark's reference at pretraining's shared width of 512."""
        rng = np.random.default_rng(50 + k)
        for _ in range(20):
            f = random_unit_rows(rng, k, 512)
            ref = cofactor_volume(f)
            assert abs(volume_unclamped(f) - ref) <= 1e-12 * ref


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_not_normalized(self, bad):
        e = np.eye(4)
        with pytest.raises(NotNormalized):
            gram_volume([np.array([bad, 0.0, 0.0, 0.0]), e[1]])

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
    """The kernel's gradient of one tuple's volume: ``pair_volume_coeffs`` on a batch of one."""

    def test_orthonormal_tangent_gradient_zero(self):
        # at the constrained maximum, the gradient is purely radial: any
        # direction orthogonal to the vector itself sees zero derivative
        e = np.eye(4)
        value, grad = kernel_tuple_grad([e[0], e[1], e[2], e[3]])
        assert value == pytest.approx(1.0, abs=1e-12)
        for k in range(4):
            tangent = grad[k] - (grad[k] @ e[k]) * e[k]
            np.testing.assert_allclose(tangent, 0.0, atol=1e-12)

    def test_sine_angle_closed_form(self):
        theta = np.pi / 3
        u = np.array([1.0, 0.0])
        v = np.array([np.cos(theta), np.sin(theta)])
        value, grad = kernel_tuple_grad([u, v])
        assert value == pytest.approx(np.sin(theta), abs=1e-12)
        dv_dtheta = grad[1] @ np.array([-np.sin(theta), np.cos(theta)])
        assert dv_dtheta == pytest.approx(np.cos(theta), abs=1e-10)

    def test_finite_difference_agreement_100_seeds(self):
        """Against differences of the LU reference, which shares no code with the kernel."""
        h = 1e-5
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            d = int(rng.integers(4, 9))
            f = random_unit_rows(rng, n, d)
            _, analytic = kernel_tuple_grad(f)
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
        pv = pair_volumes(f[:1], f[1:, None], 0.0)
        assert pv.vol.shape == (1, 1)
        assert pair_volume_coeffs(pv, np.ones((1, 1))).shape == (3, 1, 6)
