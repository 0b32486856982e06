"""Tests for projectors, classifier heads, and the hand-rolled backward pass."""

import numpy as np
import pytest

from gramalign.errors import DimensionMismatch, TapeMismatch, ZeroVector
from gramalign.gradcheck import (
    check_dti_head,
    check_ic50_head,
    check_projector,
)
from gramalign.heads import (
    Head,
    LayerSpec,
    backward,
    build_model,
    dti_forward,
    dti_specs,
    gelu,
    gelu_grad,
    ic50_forward,
    ic50_specs,
    init_params,
    mlp_tensor_items,
    project,
    projector_specs,
)
from gramalign.modality import MODALITY_ORDER, Modality


class TestInitParams:
    def test_deterministic_in_seed(self):
        a = init_params(projector_specs(12, 8, 6), seed=4)
        b = init_params(projector_specs(12, 8, 6), seed=4)
        items_a = mlp_tensor_items("t", a.specs, a.layers)
        for (_, x), (_, y) in zip(items_a, mlp_tensor_items("t", b.specs, b.layers)):
            np.testing.assert_array_equal(x, y)

    def test_biases_zero_gamma_one(self):
        p = init_params(projector_specs(12, 8, 6), seed=0)
        for layer, spec in zip(p.layers, p.specs):
            np.testing.assert_array_equal(layer.b, 0.0)
            if spec.layer_norm:
                np.testing.assert_array_equal(layer.gamma, 1.0)
                np.testing.assert_array_equal(layer.beta, 0.0)

    def test_glorot_bound_768(self):
        # sqrt(6 / (768 + 768)) = 1/16 exactly
        p = init_params((LayerSpec(768, 768),), seed=1)
        w = p.layers[0].w
        assert np.abs(w).max() <= 0.0625
        assert np.abs(w).max() > 0.0625 * 0.99


class TestGelu:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_one(self):
        assert float(gelu(1.0)) == pytest.approx(0.841345, abs=1e-6)

    def test_negative_asymptote(self):
        assert abs(float(gelu(-30.0))) < 1e-12

    def test_grad_matches_fd(self):
        xs = np.linspace(-3, 3, 31)
        h = 1e-6
        fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-8)


class TestProject:
    def _head(self, seed=0, in_dim=10):
        return Head(init_params(projector_specs(in_dim, 8, 6), seed))

    def test_zero_params_raise(self):
        head = self._head()
        for layer in head.params.layers:
            layer.w[...] = 0.0
        with pytest.raises(ZeroVector):
            project(head, np.ones((1, 10)))

    def test_eval_deterministic(self):
        head = self._head()
        x = np.random.default_rng(1).standard_normal((1, 10))
        a, _ = project(head, x, "eval")
        b, _ = project(head, x, "eval")
        np.testing.assert_array_equal(a, b)

    def test_output_unit_norm(self):
        head = self._head()
        x = np.random.default_rng(2).standard_normal((5, 10))
        out, _ = project(head, x, "eval")
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_train_dropout_reproducible(self):
        head = self._head()
        x = np.random.default_rng(3).standard_normal((4, 10))
        a, _ = project(head, x, "train", np.random.default_rng(77))
        b, _ = project(head, x, "train", np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_dropout_zero_fraction(self):
        # one wide hidden layer, look at the fraction of exactly-zero units
        p = init_params((LayerSpec(20, 1000, "gelu", False, 0.3), LayerSpec(1000, 4)), seed=0)
        from gramalign.heads import mlp_forward

        x = np.random.default_rng(4).standard_normal((100, 20))
        h, tape = mlp_forward(p, x, "train", np.random.default_rng(5))
        mask = tape.stages[0]["mask"]
        frac = 1.0 - mask.mean()
        assert abs(frac - 0.3) < 0.01  # 1e5 draws

    def test_input_dim_checked(self):
        with pytest.raises(DimensionMismatch):
            project(self._head(), np.ones((1, 11)))
        with pytest.raises(DimensionMismatch):  # inputs are (rows, dim) batches
            project(self._head(), np.ones(10))


class TestHeadsForward:
    def test_ic50_zero_params_uniform(self):
        head = Head(init_params(ic50_specs(shared_dim=4, hidden=8), seed=0))
        for layer in head.params.layers:
            layer.w[...] = 0.0
        logits, _ = ic50_forward(head, np.ones((1, 16)))
        np.testing.assert_array_equal(logits, 0.0)

    def test_ic50_dim_checked(self):
        head = Head(init_params(ic50_specs(shared_dim=4, hidden=8), seed=0))
        with pytest.raises(DimensionMismatch):
            ic50_forward(head, np.ones((1, 15)))
        with pytest.raises(DimensionMismatch):
            ic50_forward(head, np.ones(16))

    def test_dti_zero_params(self):
        head = Head(init_params(dti_specs(shared_dim=4, hidden=(8, 6)), seed=0))
        for layer in head.params.layers:
            layer.w[...] = 0.0
        logits, _ = dti_forward(head, np.ones((1, 4)) / 2.0, np.ones((1, 4)) / 2.0)
        np.testing.assert_array_equal(logits, 0.0)

    def test_dti_relu_dead_path_yields_final_bias(self):
        head = Head(init_params(dti_specs(shared_dim=4, hidden=(8, 6)), seed=0))
        # huge negative biases kill every hidden unit; output = last-layer bias
        head.params.layers[0].b[...] = -1e6
        head.params.layers[2].b[...] = np.array([0.25, -0.5])
        logits, _ = dti_forward(head, np.ones((1, 4)), np.ones((1, 4)))
        np.testing.assert_allclose(logits, [[0.25, -0.5]])

    def test_dti_single_vectors_rejected(self):
        head = Head(init_params(dti_specs(shared_dim=4, hidden=(8, 6)), seed=0))
        with pytest.raises(DimensionMismatch):
            dti_forward(head, np.ones(4), np.ones(4))

    def test_dti_shape_mismatch(self):
        head = Head(init_params(dti_specs(shared_dim=4, hidden=(8, 6)), seed=0))
        with pytest.raises(DimensionMismatch):
            dti_forward(head, np.ones((1, 4)), np.ones((1, 5)))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        head = Head(init_params(projector_specs(6, 8, 4), seed=2))
        x = np.random.default_rng(0).standard_normal((3, 6))
        out, tape = project(head, x, "eval")
        grads, gin = backward(tape, np.zeros_like(out))
        np.testing.assert_array_equal(gin, 0.0)
        for g in grads:
            np.testing.assert_array_equal(g.w, 0.0)
            np.testing.assert_array_equal(g.b, 0.0)

    def test_tape_mismatch(self):
        head = Head(init_params(projector_specs(6, 8, 4), seed=2))
        x = np.random.default_rng(0).standard_normal((3, 6))
        out, tape = project(head, x, "eval")
        with pytest.raises(TapeMismatch):
            backward(tape, np.zeros((2, 4)))

    def test_single_vector_upstream_rejected(self):
        head = Head(init_params(projector_specs(6, 8, 4), seed=2))
        _, tape = project(head, np.ones((1, 6)), "eval")
        with pytest.raises(TapeMismatch):
            backward(tape, np.zeros(4))

    def test_l2_norm_jacobian_annihilates_radial_component(self):
        # identity single-layer "projector": output is exactly x / ||x||, so
        # the input gradient must be orthogonal to the output direction
        p = init_params((LayerSpec(4, 4),), seed=0)
        p.layers[0].w[...] = np.eye(4)
        head = Head(p)
        x = np.array([[1.0, 2.0, -0.5, 0.25]])
        out, tape = project(head, x, "eval")
        g = np.array([[0.3, -0.7, 0.2, 0.9]])
        _, gin = backward(tape, g)
        assert float(gin[0] @ out[0]) == pytest.approx(0.0, abs=1e-12)
        # closed form: (g - u <u, g>) / ||x||
        u = out[0]
        expected = (g[0] - u * (u @ g[0])) / np.linalg.norm(x)
        np.testing.assert_allclose(gin[0], expected, atol=1e-12)

    @pytest.mark.parametrize(
        "checker", [check_projector, check_ic50_head, check_dti_head]
    )
    def test_finite_difference_grads(self, checker):
        worst = max(checker(seed) for seed in range(10))
        assert worst <= 1e-5


def test_build_model_shapes_and_determinism():
    in_dims = {m: (24 if m is Modality.PROTEIN else 16) for m in MODALITY_ORDER}
    a = build_model(in_dims, shared_dim=8, proj_hidden=12, ic50_hidden=10, seed=5)
    b = build_model(in_dims, shared_dim=8, proj_hidden=12, ic50_hidden=10, seed=5)
    from gramalign.heads import named_tensors

    for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)
    assert a.projectors[Modality.PROTEIN].in_dim == 24
    assert a.shared_dim == 8
    assert a.ic50_head.params.specs[0].in_dim == 32
