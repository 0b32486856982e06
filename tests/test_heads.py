"""Tests for projectors, classifier heads, and the hand-rolled backward pass."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gramalign.errors import DimensionMismatch, ShapeMismatch, TapeMismatch, ZeroVector
from gramalign.gradcheck import (
    check_dti_head,
    check_ic50_head,
    check_projector,
)
from gramalign.heads import (
    LN_EPS,
    Head,
    ForwardTape,
    LayerSpec,
    MlpParams,
    backward,
    build_model,
    cast_params,
    dti_forward,
    dti_specs,
    dropout_masks,
    ic50_forward,
    ic50_specs,
    init_params,
    mlp_forward,
    mlp_tensor_items,
    project,
    projector_specs,
)
from gramalign.modality import MODALITY_ORDER, Modality
from oracles import gelu, gelu_grad


def drawn(params, x, seed):
    """The dropout masks of a train forward of ``x``, drawn from a generator seeded ``seed``."""
    return dropout_masks(params, len(x), np.random.default_rng(seed))


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


# 0, the tiny, the moderate and the saturated, on both sides
PHI_GRID = np.array([0.0, 1e-300, -1e-300, 5.0, -5.0, 40.0, -40.0, *np.linspace(-8, 8, 57)])


class TestPhiFromTape:
    """The forward's Phi gives gelu(), and its recorded factor gelu_grad(), bit for bit."""

    def _identity_gelu(self):
        # one GELU layer whose pre-activation is its input exactly
        p = init_params((LayerSpec(len(PHI_GRID), len(PHI_GRID), "gelu"),), seed=0)
        p.layers[0].w[...] = np.eye(len(PHI_GRID))
        return p

    def test_forward_equals_gelu_on_grid(self):
        p = self._identity_gelu()
        layer = p.layers[0]
        np.testing.assert_array_equal((PHI_GRID[None, :] @ layer.w + layer.b)[0], PHI_GRID)
        h, tape = mlp_forward(p, PHI_GRID[None, :], "train")
        assert h[0].tobytes() == gelu(PHI_GRID).tobytes()
        assert tape.stages[0]["dact"][0].tobytes() == gelu_grad(PHI_GRID).tobytes()

    def test_backward_factor_equals_gelu_grad_on_grid(self):
        # with one row and upstream 1, the bias gradient is the GELU factor itself
        _, tape = mlp_forward(self._identity_gelu(), PHI_GRID[None, :], "train")
        grads, _ = backward(tape, np.ones((1, len(PHI_GRID))))
        assert grads[0].b.tobytes() == gelu_grad(PHI_GRID).tobytes()


def without_dropout(specs):
    """``specs`` at dropout 0: a ``"train"`` forward keeps a tape and runs eval's arithmetic."""
    return tuple(replace(s, dropout=0.0) for s in specs)


def reference_forward(params, x, mask_rng):
    """The out-of-place forward formulas with gelu(), one list of stage caches.

    Each activation's cache is its derivative at the pre-activation:
    gelu_grad(pre) for GELU, the bool pre > 0 for ReLU. Every stage keeps its
    input ``x``. A stage with dropout draws its mask from ``mask_rng``.
    """
    h, stages = np.asarray(x, dtype=np.float64), []
    for spec, layer in zip(params.specs, params.layers):
        cache = {"x": h}
        h = h @ np.asarray(layer.w, dtype=np.float64) + np.asarray(layer.b, dtype=np.float64)
        if spec.activation == "gelu":
            cache["dact"], h = gelu_grad(h), gelu(h)
        elif spec.activation == "relu":
            cache["dact"], h = h > 0.0, np.maximum(h, 0.0)
        if spec.layer_norm:
            mu = h.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(h.var(axis=1, keepdims=True) + LN_EPS)
            cache["xhat"], cache["inv"] = (h - mu) * inv, inv
            h = cache["xhat"] * np.asarray(layer.gamma, dtype=np.float64) + np.asarray(
                layer.beta, dtype=np.float64)
        if spec.dropout > 0.0:
            cache["mask"] = mask_rng.random(h.shape) >= spec.dropout
            h = h * cache["mask"] / (1.0 - spec.dropout)
        stages.append(cache)
    return h, stages


def reference_backward(params, stages, gy):
    """The out-of-place backward formulas with gelu_grad(): parameter grads and input grad."""
    grads = []
    for spec, layer, cache in zip(reversed(params.specs), reversed(params.layers),
                                  reversed(stages)):
        if "mask" in cache:
            gy = gy * cache["mask"] / (1.0 - spec.dropout)
        dgamma = dbeta = None
        if spec.layer_norm:
            xhat, inv = cache["xhat"], cache["inv"]
            dgamma, dbeta = (gy * xhat).sum(axis=0), gy.sum(axis=0)
            dxhat = gy * np.asarray(layer.gamma, dtype=np.float64)
            gy = inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        if spec.activation is not None:
            gy = gy * cache["dact"]
        grads.append((cache["x"].T @ gy, gy.sum(axis=0), dgamma, dbeta))
        gy = gy @ np.asarray(layer.w, dtype=np.float64).T
    return grads[::-1], gy


@pytest.mark.parametrize("specs, rows, no_x", [
    (projector_specs(12, 16, 8), 9, {1, 2}),
    (without_dropout(projector_specs(12, 16, 8)), 9, {1, 2}),  # the unmasked re-form gradcheck runs
    (projector_specs(1280, 768, 512), 256, {1, 2}),  # paper widths, where BLAS threads
    (ic50_specs(512, 512), 256, set()),
    (dti_specs(16), 64, set()),
], ids=["projector-desk", "projector-desk-eval", "projector-paper", "ic50-paper", "dti"])
def test_forward_and_backward_equal_the_reference_formulas(specs, rows, no_x):
    """The tape-reusing, in-place forward and backward round exactly like the plain formulas.

    The stages in ``no_x`` follow a LayerNorm stage and keep no input; the
    backward re-forms it, and its weight gradient still has the reference's bits.
    """
    params = init_params(specs, seed=rows)
    for layer in params.layers:  # float32 masters with non-trivial LayerNorm parameters
        layer.w, layer.b = layer.w.astype(np.float32), (layer.b + 0.1).astype(np.float32)
        if layer.gamma is not None:
            layer.gamma = (layer.gamma * 1.5).astype(np.float32)
            layer.beta = (layer.beta - 0.2).astype(np.float32)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((rows, specs[0].in_dim))
    h, tape = mlp_forward(params, x, "train", drawn(params, x, 2))
    ref_h, ref_stages = reference_forward(params, x, np.random.default_rng(2))
    assert h.tobytes() == ref_h.tobytes()
    for i, (stage, ref) in enumerate(zip(tape.stages, ref_stages)):
        assert stage.keys() == ref.keys() - ({"x"} if i in no_x else set())
        for key, arr in stage.items():
            assert arr.tobytes() == ref[key].tobytes(), key
    gy = rng.standard_normal(h.shape)
    before = gy.copy()
    grads, gin = backward(tape, gy)
    np.testing.assert_array_equal(gy, before)  # the caller's gradient is not written to
    ref_grads, ref_gin = reference_backward(params, ref_stages, gy)
    assert gin.tobytes() == ref_gin.tobytes()
    for got, ref in zip(grads, ref_grads):
        for a, b in zip((got.w, got.b, got.gamma, got.beta), ref):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_input_cached_as_given_with_unchanged_bits():
    """Stage 0 keeps the caller's float32 rows, not a float64 copy, and no bit changes."""
    specs = projector_specs(12, 16, 8)
    params = init_params(specs, seed=3)
    x32 = np.random.default_rng(1).standard_normal((9, 12)).astype(np.float32)
    h, tape = mlp_forward(params, x32, "train", drawn(params, x32, 2))
    assert tape.stages[0]["x"] is x32
    ref_h, ref_tape = mlp_forward(params, x32.astype(np.float64), "train", drawn(params, x32, 2))
    assert h.tobytes() == ref_h.tobytes()
    gy = np.random.default_rng(4).standard_normal(h.shape)
    (grads, gin), (ref_grads, ref_gin) = backward(tape, gy), backward(ref_tape, gy)
    assert gin.tobytes() == ref_gin.tobytes()
    for got, ref in zip(grads, ref_grads):
        for a, b in zip((got.w, got.b, got.gamma, got.beta), (ref.w, ref.b, ref.gamma, ref.beta)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def tape_nbytes(tape):
    arrays = [a for stage in tape.stages for a in stage.values()]
    return sum(a.nbytes for a in arrays) + tape.unit_out.nbytes + tape.prenorm_norms.nbytes


def test_train_tape_keeps_one_array_per_gelu_layer():
    """Besides xhat, a GELU stage keeps only its derivative factor, and not the next input.

    The next layer's input, xhat * gamma + beta under the dropout mask, is
    re-formed by the backward, so no float64 copy of it is kept.
    """
    b, specs = 256, projector_specs(1280, 768, 512)  # paper widths
    x = np.random.default_rng(1).standard_normal((b, 1280)).astype(np.float32)
    params = init_params(specs, 0)
    out, tape = project(Head(params), x, "train", drawn(params, x, 2))
    expected = x.nbytes  # stage 0's input, as given
    for spec in specs[:2]:  # GELU, LayerNorm, dropout
        # float64 factor and xhat; LayerNorm's inv; the bool dropout mask
        expected += 2 * 8 * b * spec.out_dim + 8 * b + b * spec.out_dim
    expected += out.nbytes + 8 * b  # the unit-norm output and its pre-normalization norms
    assert tape_nbytes(tape) == expected


def recording_twin(head):
    """``head``'s parameters under dropout-0 specs, whose ``"train"`` forward keeps a tape."""
    return Head(MlpParams(without_dropout(head.params.specs), head.params.layers))


@pytest.mark.parametrize("specs, forward, inputs", [
    (projector_specs(12, 16, 8), project, 1),
    (ic50_specs(4, 8), ic50_forward, 1),
    (dti_specs(4, (8, 6)), dti_forward, 2),  # ReLU stages
    (ic50_specs(4, 8), mlp_forward, 1),
], ids=["projector", "ic50", "dti", "mlp"])
def test_forward_without_tape_gives_the_recording_bytes(specs, forward, inputs):
    """``mode`` is a forward's one switch: ``"train"`` keeps a tape, ``"eval"`` never does.

    Without dropout the two give the same bytes.
    """
    head = Head(init_params(specs, seed=3))
    for layer in head.params.layers:
        layer.b += 0.1  # so that ReLU units sit on both sides of zero
    rng = np.random.default_rng(4)
    xs = [rng.standard_normal((9, head.in_dim // inputs)) for _ in range(inputs)]
    twin = recording_twin(head)
    if forward is mlp_forward:
        head, twin = head.params, twin.params
    ref, ref_tape = forward(twin, *xs, "train")
    out, tape = forward(head, *xs, "eval")
    assert isinstance(ref_tape, ForwardTape) and ref_tape.out_shape == ref.shape
    assert tape is None and out.tobytes() == ref.tobytes()


def test_projection_without_tape_peaks_at_its_widest_layer():
    """A paper-width eval projection, which keeps no tape, holds one layer's arrays at a time.

    Its tracemalloc peak stays under the output plus the widest layer's GEMM:
    the float64 input, weight and product of that layer.
    """
    n, specs = 1024, projector_specs(1280, 768, 512)
    head = Head(init_params(specs, 3))
    cast_params(head.params, np.float32)
    x = np.random.default_rng(5).standard_normal((n, 1280)).astype(np.float32)
    ref, _ = project(recording_twin(head), x, "train")
    tracemalloc.start()
    try:
        out, tape = project(head, x, "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tape is None and out.tobytes() == ref.tobytes()
    widest = max(8 * (n * s.in_dim + s.in_dim * s.out_dim + n * s.out_dim) for s in specs)
    assert peak <= out.nbytes + widest


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
        a, _ = project(head, x, "train", drawn(head.params, x, 77))
        b, _ = project(head, x, "train", drawn(head.params, x, 77))
        np.testing.assert_array_equal(a, b)

    def test_dropout_zero_fraction(self):
        # one wide hidden layer, look at the fraction of exactly-zero units
        p = init_params((LayerSpec(20, 1000, "gelu", False, 0.3), LayerSpec(1000, 4)), seed=0)
        from gramalign.heads import mlp_forward

        x = np.random.default_rng(4).standard_normal((100, 20))
        h, tape = mlp_forward(p, x, "train", drawn(p, x, 5))
        mask = tape.stages[0]["mask"]
        frac = 1.0 - mask.mean()
        assert abs(frac - 0.3) < 0.01  # 1e5 draws

    def test_train_dropout_takes_one_mask_of_each_dropout_output(self):
        head = self._head()
        x = np.ones((3, 10))
        with pytest.raises(ValueError, match="mask"):
            project(head, x, "train")
        with pytest.raises(ShapeMismatch, match="mask"):
            project(head, x, "train", drawn(head.params, x[:2], 0))

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
        out, tape = project(head, x, "train", drawn(head.params, x, 1))
        grads, gin = backward(tape, np.zeros_like(out))
        np.testing.assert_array_equal(gin, 0.0)
        for g in grads:
            np.testing.assert_array_equal(g.w, 0.0)
            np.testing.assert_array_equal(g.b, 0.0)

    def test_tape_mismatch(self):
        head = Head(init_params(projector_specs(6, 8, 4), seed=2))
        x = np.random.default_rng(0).standard_normal((3, 6))
        out, tape = project(head, x, "train", drawn(head.params, x, 1))
        with pytest.raises(TapeMismatch):
            backward(tape, np.zeros((2, 4)))

    def test_single_vector_upstream_rejected(self):
        head = Head(init_params(projector_specs(6, 8, 4), seed=2))
        x = np.ones((1, 6))
        _, tape = project(head, x, "train", drawn(head.params, x, 1))
        with pytest.raises(TapeMismatch):
            backward(tape, np.zeros(4))

    def test_l2_norm_jacobian_annihilates_radial_component(self):
        # identity single-layer "projector": output is exactly x / ||x||, so
        # the input gradient must be orthogonal to the output direction
        p = init_params((LayerSpec(4, 4),), seed=0)
        p.layers[0].w[...] = np.eye(4)
        head = Head(p)
        x = np.array([[1.0, 2.0, -0.5, 0.25]])
        out, tape = project(head, x, "train")  # no dropout stage, so no masks
        g = np.array([[0.3, -0.7, 0.2, 0.9]])
        _, gin = backward(tape, g)
        assert float(gin[0] @ out[0]) == pytest.approx(0.0, abs=1e-12)
        # closed form: (g - u <u, g>) / ||x||
        u = out[0]
        expected = (g[0] - u * (u @ g[0])) / np.linalg.norm(x)
        np.testing.assert_allclose(gin[0], expected, atol=1e-12)

    @pytest.mark.parametrize("specs, forward", [
        (projector_specs(12, 16, 8), project),
        (ic50_specs(4, 8), ic50_forward),
        (dti_specs(4, (8, 6)), ic50_forward),  # the DTI head on its fused [f^s; f^p] input
    ], ids=["projector", "ic50", "dti"])
    def test_skipping_the_input_gradient_leaves_parameter_gradients(self, specs, forward):
        head = Head(init_params(specs, seed=3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, head.in_dim))
        out, tape = forward(head, x, "train", drawn(head.params, x, 5))
        _, again = forward(head, x, "train", drawn(head.params, x, 5))  # a tape is read once
        g = rng.standard_normal(out.shape)
        full, gin = backward(tape, g)
        skipped, none = backward(again, g, input_grad=False)
        assert gin.shape == x.shape and none is None
        names = mlp_tensor_items("h", specs, full)
        for (name, a), (_, b) in zip(names, mlp_tensor_items("h", specs, skipped)):
            assert a.tobytes() == b.tobytes(), name

    def test_tape_is_emptied_and_read_once(self):
        """backward() drops what it has read, and a second backward() on the tape is refused."""
        head = Head(init_params(projector_specs(12, 16, 8), seed=3))
        x = np.random.default_rng(4).standard_normal((9, 12))
        out, tape = project(head, x, "train", drawn(head.params, x, 5))
        backward(tape, np.ones_like(out))
        assert tape.stages is None and tape.unit_out is None and tape.prenorm_norms is None
        with pytest.raises(TapeMismatch, match="read once"):
            backward(tape, np.ones_like(out))

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
