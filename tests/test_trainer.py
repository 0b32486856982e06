"""Tests for Adam, the training loop, determinism/resume, and downstream DTI."""

import ast
import copy
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gramalign
from gramalign.checkpoint import load_checkpoint, save_checkpoint
from gramalign.data import (EmbeddingTable, Quadruplet, SplitKind, class_weights, make_split,
                            synth_quadruplets)
from gramalign.errors import EmptyDataset, MissingTensor, NonFiniteLoss, ShapeMismatch
from gramalign.heads import build_model, cast_params, named_tensors, project, ic50_forward
from gramalign.kernels import tuple_volumes
from gramalign.losses import Batch, clip_bimodal, ic50_loss, volume_contrastive
from gramalign.modality import MODALITY_ORDER, Modality
from gramalign.parallel import pinned_map, serial_map
from gramalign.scheduler import SchedulerConfig, make_history, record, smoothed
from gramalign.seeding import substream
from gramalign import heads, losses, parallel, scheduler, trainer
from gramalign.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    STEP_STAGES,
    AdamState,
    TrainConfig,
    _dataset_weights,
    _manifest_index,
    adam_step,
    alignment_volumes,
    init_adam,
    load_model,
    stage_clock,
    train,
    train_dti,
    train_step,
)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([[1.0, -2.0]]), "b": np.array([0.5])}
        state = stepped_adam(params)
        adam_step(params, {"w": np.zeros((1, 2)), "b": np.zeros(1)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [[1.0, -2.0]])
        np.testing.assert_array_equal(params["b"], [0.5])

    def test_single_step_hand_value(self):
        # theta=0, g=1, fresh state, lr=0.1: m_hat=1, v_hat=1 -> theta ~ -0.1
        params = {"t": np.array([0.0])}
        state = stepped_adam(params)
        adam_step(params, {"t": np.array([1.0])}, state, lr=0.1)
        assert params["t"][0] == pytest.approx(-0.1, abs=1e-7)
        assert state.t == 1  # the caller advances the step count, not the update

    def test_deterministic(self):
        def run():
            params = {"w": np.full((2, 2), 0.3)}
            state = init_adam(params)
            for k in range(5):
                state.t += 1
                adam_step(params, {"w": np.full((2, 2), 0.1 * (k + 1))}, state, lr=0.01)
            return params["w"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = stepped_adam(params)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"w": np.zeros((2, 3))}, state, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"v": np.zeros((2, 2))}, state, lr=0.1)

    def test_float32_masters_stay_float32(self):
        params = {"w": np.zeros((2, 2), dtype=np.float32)}
        state = stepped_adam(params)
        adam_step(params, {"w": np.ones((2, 2))}, state, lr=0.1)
        assert params["w"].dtype == np.float32
        assert state.m["w"].dtype == np.float32


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])  # masters, and every rounding
    @pytest.mark.parametrize("shape", [(5,), (ADAM_BLOCK - 1,), (ADAM_BLOCK,), (100_003,),
                                       (317, 331)])
    def test_blocked_update_equals_one_pass(self, shape, dtype):
        """Walking a tensor in blocks gives the one-pass formula's m, v and theta bit for bit."""
        rng = np.random.default_rng(shape[0])
        theta = rng.standard_normal(shape).astype(dtype)
        params, ref = {"w": theta.copy()}, theta.copy()
        state = init_adam(params)
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        for t in range(1, 4):
            g = rng.standard_normal(shape) * 10.0**-t
            state.t = t
            adam_step(params, {"w": g}, state, lr=1e-3)
            # the one-pass update over the whole tensor
            bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            m64 = ADAM_BETA1 * m.astype(np.float64) + (1 - ADAM_BETA1) * g
            v64 = ADAM_BETA2 * v.astype(np.float64) + (1 - ADAM_BETA2) * g * g
            step = 1e-3 * (m64 / bc1) / (np.sqrt(v64 / bc2) + ADAM_EPS)
            ref[...] = ref.astype(np.float64) - step
            m[...], v[...] = m64, v64
            assert params["w"].tobytes() == ref.tobytes()
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()

    def test_non_contiguous_tensor_rejected(self):
        """A strided parameter would be updated through a copy, so it is refused."""
        params = {"w": np.zeros((4, 4), dtype=np.float32)[:, :2]}
        with pytest.raises(ValueError, match="not contiguous"):
            adam_step(params, {"w": np.ones((4, 2))}, stepped_adam(params), lr=0.1)

    def test_update_before_the_step_count_advances_rejected(self):
        """At t = 0 the bias corrections divide by zero, so the update refuses to run."""
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError, match="advance state.t"):
            adam_step(params, {"w": np.ones(3)}, init_adam(params), lr=0.1)

    def test_a_subset_of_tensors_updates_only_those(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        state = stepped_adam(params)
        adam_step(params, {"a": np.ones(2)}, state, lr=0.1)
        assert params["b"].tolist() == [1.0, 1.0] and not state.m["b"].any()
        assert (params["a"] < 1.0).all() and state.m["a"].all()


def stepped_adam(params):
    """A fresh Adam state whose step count is advanced to 1, as before a run's first update."""
    state = init_adam(params)
    state.t = 1
    return state


def adam_update(params, lr):
    """A ``train_step`` hand-off applying Adam from a fresh state, as a run's first step does."""
    state = stepped_adam(params)
    return lambda grads: adam_step(params, grads, state, lr)


def small_setup(n=16, dim=8, seed=0, **cfg_kwargs):
    tables, quads = synth_quadruplets(n, (dim, dim, dim, dim), 0.1, seed=seed)
    defaults = dict(
        lr=1e-3, batch_size=8, epochs=2, shared_dim=8, proj_hidden=8, ic50_hidden=8, seed=seed
    )
    defaults.update(cfg_kwargs)
    return tables, quads, TrainConfig(**defaults)


def eval_total_loss(model, raw, labels, weights, cfg):
    feats = {m: project(model.projectors[m], raw[m], "eval")[0] for m in MODALITY_ORDER}
    batch = Batch(embeddings=feats, ic50_labels=labels, ic50_mask=labels >= 0)
    bi = clip_bimodal(batch, cfg.tau)
    fused = np.concatenate([feats[m] for m in MODALITY_ORDER], axis=1)
    logits, _ = ic50_forward(model.ic50_head, fused, "eval")
    ic = ic50_loss(batch, logits, weights, cfg.label_smoothing)
    vol = volume_contrastive(batch, Modality.PROTEIN, MODALITY_ORDER, cfg.tau)
    return cfg.lambda_vol * vol.value + cfg.lambda_bi * bi.value + cfg.lambda_ic50 * ic.value


class TestTrainStep:
    def _prepare(self, **cfg_kwargs):
        tables, quads, cfg = small_setup(n=8, dim=8, batch_size=8, **cfg_kwargs)
        model = build_model({m: 8 for m in MODALITY_ORDER}, 8, 8, 8, cfg.seed)
        for m in MODALITY_ORDER:
            cast_params(model.projectors[m].params, np.float32)
        cast_params(model.ic50_head.params, np.float32)
        params = dict(named_tensors(model))
        index, labels = _manifest_index(quads)
        weights = _dataset_weights(labels)
        raw = {m: tables[m].rows[index[:, m]] for m in MODALITY_ORDER}
        rngs = {
            "dropout": substream(cfg.seed, "dropout", 0),
            "scheduler": substream(cfg.seed, "scheduler", 0),
        }
        return model, params, weights, raw, labels, cfg, rngs

    def test_zero_lambdas_leave_params(self):
        model, params, weights, raw, labels, cfg, rngs = self._prepare(
            lambda_vol=0.0, lambda_bi=0.0, lambda_ic50=0.0
        )
        before = {k: v.copy() for k, v in params.items()}
        history = make_history(cfg.scheduler)
        train_step(model, raw, labels, history, weights, cfg, rngs, adam_update(params, cfg.lr),
                   serial_map)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_one_step_decreases_total_loss(self):
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        before = eval_total_loss(model, raw, labels, weights, cfg)
        history = make_history(cfg.scheduler)
        train_step(model, raw, labels, history, weights, cfg, rngs, adam_update(params, cfg.lr),
                   serial_map)
        after = eval_total_loss(model, raw, labels, weights, cfg)
        assert after < before

    def test_grad_norms_source_excludes_volume_loss(self):
        # with lambda_bi = lambda_ic50 = 0 the recorded norms must be exactly
        # zero even though the volume objective is active
        model, params, weights, raw, labels, cfg, rngs = self._prepare(
            lambda_vol=1.0, lambda_bi=0.0, lambda_ic50=0.0
        )
        history, grads = make_history(cfg.scheduler), {}
        _, _, _, norms = train_step(model, raw, labels, history, weights, cfg, rngs, grads.update,
                                    serial_map)
        assert norms == [0.0, 0.0, 0.0, 0.0]
        # the volume gradients still update the projectors
        assert any(np.abs(g).max() > 0 for g in grads.values())

    def test_decide_reads_a_gbar_that_holds_this_steps_norms(self, monkeypatch):
        """The gbar handed to ``decide`` already includes the step's own norms.

        At step 0 it is those norms bit for bit; at step 1 it is the decayed
        mean over both steps' norms, the newest first. The step returns it.
        """
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        seen, norms = [], []

        def decide_spy(gbar, *args):
            seen.append(np.array(gbar))
            return scheduler.decide(gbar, *args)

        monkeypatch.setattr(trainer, "decide", decide_spy)
        history = make_history(cfg.scheduler)
        for _ in range(2):  # the model stays as it is; the dropout stream moves on
            _, _, gbar, step_norms = train_step(model, raw, labels, history, weights, cfg, rngs,
                                                {}.update, serial_map)
            assert seen[-1].tobytes() == np.asarray(gbar).tobytes()
            norms.append(step_norms)
        assert norms[0] != norms[1]
        assert seen[0].tobytes() == np.array(norms[0]).tobytes()
        both = make_history(cfg.scheduler)
        for step_norms in norms:
            record(both, step_norms)
        assert seen[1].tobytes() == smoothed(both, cfg.scheduler.decay).tobytes()

    @pytest.mark.parametrize("p_drop, n_active", [(0.0, 4), (1.0, 3)])
    def test_step_is_the_weighted_sum_of_its_parts(self, p_drop, n_active):
        """Losses, norms and every gradient equal a step composed here from its parts.

        The oracle replays the dropout substream through ``dropout_masks``,
        ``project``, ``ic50_forward``, the three losses and ``heads.backward``,
        with the anchor and dropped modality ``train_step`` returns. The three
        lambdas are distinct and none is 1, so a misplaced or doubled weight
        shows, and the batch holds unannotated rows. Each embedding gradient
        is summed as (IC50 + bimodal) + volume, so the loss values and
        gradients are the same bits.
        """
        lam_vol, lam_bi, lam_ic50 = 0.7, 1.3, 0.4
        model, params, weights, raw, labels, cfg, rngs = self._prepare(
            lambda_vol=lam_vol, lambda_bi=lam_bi, lambda_ic50=lam_ic50,
            scheduler=SchedulerConfig(p_drop=p_drop))
        assert (labels < 0).any() and (labels >= 0).any()
        grads = {}  # collected through the hand-off, which leaves the model as it was
        values, decision, _, norms = train_step(
            model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs, grads.update,
            serial_map)
        active = [m for m in MODALITY_ORDER if m is not decision.dropped]
        assert len(active) == n_active

        rng = substream(cfg.seed, "dropout", 0)
        feats, tapes = {}, {}
        for m in MODALITY_ORDER:
            masks = heads.dropout_masks(model.projectors[m].params, len(labels), rng)
            feats[m], tapes[m] = project(model.projectors[m], raw[m], "train", masks)
        batch = Batch(embeddings=feats, ic50_labels=labels, ic50_mask=labels >= 0)
        bi = clip_bimodal(batch, cfg.tau)
        fused = np.concatenate([feats[m] for m in MODALITY_ORDER], axis=1)
        masks = heads.dropout_masks(model.ic50_head.params, len(labels), rng)
        logits, ic50_tape = ic50_forward(model.ic50_head, fused, "train", masks)
        ic = ic50_loss(batch, logits, weights, cfg.label_smoothing)
        head_grads, dfused = heads.backward(ic50_tape, ic.logit_grad)
        vol = volume_contrastive(batch, decision.anchor, active, cfg.tau)

        expected = {"volume": vol.value, "bimodal": bi.value, "ic50": ic.value,
                    "total": lam_vol * vol.value + lam_bi * bi.value + lam_ic50 * ic.value}
        assert list(values.items()) == list(expected.items())
        want = {}
        for m, block, norm in zip(MODALITY_ORDER, np.split(dfused, 4, axis=1), norms):
            g = lam_ic50 * block
            if m in bi.grads:
                g = g + lam_bi * bi.grads[m]
            assert norm == pytest.approx(np.linalg.norm(g), rel=1e-12)
            if m in active:
                g = g + lam_vol * vol.grads[m]
            proj_grads, _ = heads.backward(tapes[m], g)
            want.update(heads.mlp_tensor_items(f"proj.{m.short}",
                                               model.projectors[m].params.specs, proj_grads))
        for name, g in heads.mlp_tensor_items("ic50", model.ic50_head.params.specs, head_grads):
            want[name] = lam_ic50 * g
        assert grads.keys() == want.keys()
        for name, g in want.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)

    @pytest.mark.parametrize("p_drop, n_active", [(0.0, 4), (1.0, 3)])
    def test_per_head_updates_equal_one_update_over_all_gradients(self, p_drop, n_active):
        """Adam head by head inside the step leaves the bytes of one update after the step.

        Both runs start from the same moments at step count 3. The step hands
        over the IC50 head first, then each projector in MODALITY_ORDER; each
        head's backward reads only its own parameters, so updating a head
        before the next one's backward changes no gradient.
        """
        def prepared():
            model, params, weights, raw, labels, cfg, rngs = self._prepare(
                scheduler=SchedulerConfig(p_drop=p_drop))
            state = init_adam(params)
            rng = np.random.default_rng(8)
            for name, a in params.items():
                state.m[name][...] = 1e-3 * rng.standard_normal(a.shape)
                state.v[name][...] = 1e-6 * rng.random(a.shape)
            state.t = 3
            return model, params, state, (weights, cfg, rngs), raw, labels

        model, params, state, (weights, cfg, rngs), raw, labels = prepared()
        heads_in_order = []

        def per_head(grads):
            heads_in_order.append({name.rsplit(".", 2)[0] for name in grads})
            adam_step(params, grads, state, cfg.lr)

        _, decision, _, _ = train_step(model, raw, labels, make_history(cfg.scheduler), weights,
                                       cfg, rngs, per_head, serial_map)
        assert 4 - (decision.dropped is not None) == n_active
        assert heads_in_order == [{"ic50"}, *({f"proj.{m.short}"} for m in MODALITY_ORDER)]

        ref_model, ref_params, ref_state, (weights, cfg, rngs), raw, labels = prepared()
        grads = {}
        train_step(ref_model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs,
                   grads.update, serial_map)
        assert grads.keys() == ref_params.keys()
        adam_step(ref_params, grads, ref_state, cfg.lr)
        assert state.t == ref_state.t == 3
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name

    @pytest.mark.parametrize("p_drop, n_active", [(0.0, 4), (1.0, 3)])
    def test_stage_marks_follow_the_step(self, monkeypatch, p_drop, n_active):
        """The step marks its stages in this order, and ``stage_clock`` times exactly them.

        The IC50 head's ``update`` runs inside ``"adam"`` and the four
        projectors' inside the one ``"proj_backward"``, with their backwards.
        Replayed through a ``stage_clock`` whose clock advances one second per
        reading, each stage gets 1000 ms per mark that enters it and
        ``"other"`` gets none.
        """
        model, params, weights, raw, labels, cfg, rngs = self._prepare(
            scheduler=SchedulerConfig(p_drop=p_drop))
        marks, updated_in = [], []
        _, decision, _, _ = train_step(model, raw, labels, make_history(cfg.scheduler), weights,
                                       cfg, rngs, lambda grads: updated_in.append(marks[-1]),
                                       serial_map, enter=marks.append)
        assert 4 - (decision.dropped is not None) == n_active
        assert marks == ["proj_forward", "bimodal", "ic50", "other", "adam", "other",
                         "volume", "other", "proj_backward", "other"]
        assert updated_in == ["adam"] + ["proj_backward"] * 4

        seconds = itertools.count()
        monkeypatch.setattr(trainer.time, "perf_counter", lambda: next(seconds))
        stage_ms = {}
        enter = stage_clock(stage_ms)
        for stage in marks:
            enter(stage)
        assert list(stage_ms) == list(STEP_STAGES) == ["proj_forward", "bimodal", "ic50",
                                                       "volume", "proj_backward", "adam"]
        assert stage_ms == {"proj_forward": 1000.0, "bimodal": 1000.0, "ic50": 1000.0,
                            "volume": 1000.0, "proj_backward": 1000.0, "adam": 1000.0}

    def test_non_finite_volume_loss_leaves_the_projectors_untouched(self, monkeypatch):
        """A NaN volume loss raises after the IC50 head's update and before any projector's.

        The IC50 gradients go to the optimizer before the volume loss runs, so
        that they are not held through its peak; the projectors and their
        moments are still as they were when the step raises.
        """
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        state = stepped_adam(params)
        before = {name: (a.copy(), state.m[name].copy(), state.v[name].copy())
                  for name, a in params.items()}

        def poisoned(*args, **kwargs):
            out = volume_contrastive(*args, **kwargs)
            out.value = np.nan
            return out

        monkeypatch.setattr(trainer, "volume_contrastive", poisoned)
        with pytest.raises(NonFiniteLoss, match="volume"):
            train_step(model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs,
                       lambda grads: adam_step(params, grads, state, cfg.lr), serial_map)
        for name, (theta, m, v) in before.items():
            now = (params[name], state.m[name], state.v[name])
            same = [a.tobytes() == b.tobytes() for a, b in zip(now, (theta, m, v))]
            assert same == [not name.startswith("ic50.")] * 3, name

    def test_each_tape_released_after_its_backward(self, monkeypatch):
        """When a projector's backward runs, the IC50 tape and every earlier projector's are gone."""
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        made, alive = [], []  # weakrefs to each tape in creation order; liveness at each backward

        def tracked(forward):
            def call(*args, **kwargs):
                out, tape = forward(*args, **kwargs)
                made.append(weakref.ref(tape))
                return out, tape
            return call

        def checked_backward(*args, **kwargs):
            alive.append([ref() is not None for ref in made])
            return heads.backward(*args, **kwargs)

        monkeypatch.setattr(trainer, "project", tracked(trainer.project))
        monkeypatch.setattr(trainer, "ic50_forward", tracked(trainer.ic50_forward))
        monkeypatch.setattr(trainer, "backward", checked_backward)
        train_step(model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs, {}.update,
                   serial_map)
        # tapes: the four projectors, then IC50; backward: IC50, then the projectors in order
        assert alive == [
            [True, True, True, True, True],
            [True, True, True, True, False],
            [False, True, True, True, False],
            [False, False, True, True, False],
            [False, False, False, True, False],
        ]

    def test_non_finite_loss_raises(self):
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        model.ic50_head.params.layers[0].w[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss, match="ic50"):
            train_step(model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs,
                       {}.update, serial_map)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_one_non_finite_ic50_logit_raises(self, monkeypatch, bad):
        model, params, weights, raw, labels, cfg, rngs = self._prepare()
        row = int(np.flatnonzero(labels >= 0)[0])  # an annotated sample

        def poisoned(*args, **kwargs):
            logits, tape = heads.ic50_forward(*args, **kwargs)
            logits[row, 1] = bad
            return logits, tape

        monkeypatch.setattr(trainer, "ic50_forward", poisoned)
        with pytest.raises(NonFiniteLoss, match="ic50"):
            train_step(model, raw, labels, make_history(cfg.scheduler), weights, cfg, rngs,
                       {}.update, serial_map)


class TestTrain:
    def test_records_deterministic_across_runs(self):
        tables, quads, cfg = small_setup()
        a = train(tables, quads, cfg)
        b = train(tables, quads, cfg)
        assert a.records == b.records
        for (_, ta), (_, tb) in zip(named_tensors(a.model), named_tensors(b.model)):
            np.testing.assert_array_equal(ta, tb)

    def test_epochs_zero_equals_initialization(self, tmp_path):
        tables, quads, cfg = small_setup(epochs=0)
        result = train(tables, quads, cfg, out_dir=tmp_path)
        fresh = build_model({m: 8 for m in MODALITY_ORDER}, 8, 8, 8, cfg.seed)
        for m in MODALITY_ORDER:
            cast_params(fresh.projectors[m].params, np.float32)
        cast_params(fresh.ic50_head.params, np.float32)
        loaded, _, _ = load_model(result.checkpoint_path)
        for (_, ta), (_, tb) in zip(named_tensors(loaded), named_tensors(fresh)):
            np.testing.assert_array_equal(ta, tb)

    def test_final_checkpoint_is_the_last_epoch_serialized_once(self, tmp_path, monkeypatch):
        saved = []
        save = trainer.save_model_checkpoint
        monkeypatch.setattr(trainer, "save_model_checkpoint",
                            lambda path, *a: (saved.append(path.name), save(path, *a)))
        tables, quads, cfg = small_setup(epochs=3)
        result = train(tables, quads, cfg, out_dir=tmp_path)
        assert saved == ["epoch-0000.ckpt", "epoch-0001.ckpt", "epoch-0002.ckpt"]
        final = result.checkpoint_path.read_bytes()
        assert final == (tmp_path / "epoch-0002.ckpt").read_bytes()
        loaded, _, config = load_model(result.checkpoint_path)
        assert config["epochs_done"] == 3
        for (_, a), (_, b) in zip(named_tensors(loaded), named_tensors(result.model)):
            assert a.tobytes() == b.tobytes()

    def test_epochs_zero_serializes_final_checkpoint(self, tmp_path):
        tables, quads, cfg = small_setup(epochs=0)
        result = train(tables, quads, cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "final.ckpt", "run.log.jsonl", "run.timing.jsonl"]
        _, _, config = load_model(result.checkpoint_path)
        assert config["epochs_done"] == 0 and config["adam_t"] == 0

    def test_load_model_draws_no_initial_model(self, tmp_path, monkeypatch):
        tables, quads, cfg = small_setup(epochs=1)
        result = train(tables, quads, cfg, out_dir=tmp_path)

        def no_draw(*args):
            raise AssertionError("load_model drew a model only to overwrite it")
        monkeypatch.setattr(trainer, "build_model", no_draw)
        loaded, _, _ = load_model(result.checkpoint_path)
        for (na, a), (nb, b) in zip(named_tensors(loaded), named_tensors(result.model)):
            assert na == nb and a.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, error", [("proj.hta.ln1.b", MissingTensor),
                                             ("ic50.L1.w", ShapeMismatch)])
    def test_load_model_checks_every_tensor(self, tmp_path, name, error):
        tables, quads, cfg = small_setup(epochs=1)
        train(tables, quads, cfg, out_dir=tmp_path / "run")
        tensors, config = load_checkpoint(tmp_path / "run" / "final.ckpt")
        if error is MissingTensor:
            del tensors[name]
        else:
            tensors[name] = tensors[name][:-1]
        save_checkpoint(tmp_path / "bad.ckpt", tensors, config)
        with pytest.raises(error, match=name):
            load_model(tmp_path / "bad.ckpt")

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        tables, quads, cfg = small_setup(epochs=4)
        full = train(tables, quads, cfg, out_dir=tmp_path / "full")

        half_cfg = TrainConfig(**{**cfg.to_dict(), "scheduler": cfg.scheduler, "epochs": 2})
        train(tables, quads, half_cfg, out_dir=tmp_path / "half")
        resumed = train(
            tables,
            quads,
            cfg,
            out_dir=tmp_path / "resumed",
            resume=tmp_path / "half" / "epoch-0001.ckpt",
        )
        full_bytes = (tmp_path / "full" / "final.ckpt").read_bytes()
        resumed_bytes = (tmp_path / "resumed" / "final.ckpt").read_bytes()
        assert full_bytes == resumed_bytes
        for (_, ta), (_, tb) in zip(named_tensors(full.model), named_tensors(resumed.model)):
            np.testing.assert_array_equal(ta, tb)

    def test_resume_draws_no_initial_model(self, tmp_path, monkeypatch):
        """A resumed run builds its heads from their specs; every tensor comes from the checkpoint."""
        tables, quads, cfg = small_setup(epochs=4)
        full = train(tables, quads, cfg, out_dir=tmp_path / "full")

        def no_draw(*args):
            raise AssertionError("resume drew a model only to overwrite it")
        monkeypatch.setattr(heads, "init_params", no_draw)
        resumed = train(tables, quads, cfg, out_dir=tmp_path / "resumed",
                        resume=tmp_path / "full" / "epoch-0001.ckpt")
        assert (tmp_path / "resumed" / "final.ckpt").read_bytes() == (
            tmp_path / "full" / "final.ckpt").read_bytes()
        assert resumed.records == full.records[-len(resumed.records):]

    def test_resume_config_mismatch_rejected(self, tmp_path):
        tables, quads, cfg = small_setup(epochs=2)
        train(tables, quads, cfg, out_dir=tmp_path)
        other = TrainConfig(**{**cfg.to_dict(), "scheduler": cfg.scheduler, "lr": 5e-4})
        with pytest.raises(ValueError):
            train(tables, quads, other, resume=tmp_path / "epoch-0000.ckpt")

    @pytest.mark.parametrize(
        "name, error",
        [("adam.v.proj.hta.ln1.b", MissingTensor), ("adam.m.proj.text.L0.w", ShapeMismatch)],
        ids=["missing-adam-v", "wrong-size-adam-m"],
    )
    def test_resume_checks_every_restored_tensor(self, tmp_path, name, error):
        """Adam moments get the same missing-name and size checks as parameters."""
        tables, quads, cfg = small_setup(epochs=2)
        train(tables, quads, cfg, out_dir=tmp_path / "run")
        tensors, config = load_checkpoint(tmp_path / "run" / "epoch-0000.ckpt")
        if error is MissingTensor:
            del tensors[name]
        else:
            tensors[name] = tensors[name][:-1]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, tensors, config)
        with pytest.raises(error, match=name):
            train(tables, quads, cfg, out_dir=tmp_path / "resumed", resume=bad)
        assert not (tmp_path / "resumed").exists()

    def test_alignment_records_present(self):
        tables, quads, cfg = small_setup(epochs=2)
        result = train(tables, quads, cfg)
        aligns = [r for r in result.records if r["kind"] == "alignment"]
        assert [a["epochs_done"] for a in aligns] == [0, 1, 2]

    def test_empty_dataset_rejected(self):
        tables, _, cfg = small_setup()
        with pytest.raises(EmptyDataset):
            train(tables, [], cfg)

    def test_batch_larger_than_dataset_rejected(self):
        tables, quads, cfg = small_setup(n=4, batch_size=64)
        with pytest.raises(EmptyDataset):
            train(tables, quads, cfg)

    def test_scheduler_decisions_logged(self):
        tables, quads, cfg = small_setup(epochs=2)
        result = train(tables, quads, cfg)
        steps = [r for r in result.records if r["kind"] == "step"]
        assert steps
        assert [r["step"] for r in steps] == list(range(len(steps)))  # monotone
        for rec in steps:
            sched = rec["scheduler"]
            assert sched["branch"] in ("dominance", "argmin", "none")
            assert len(sched["gbar"]) == 4
            if sched["dropped"] is not None:
                assert sched["dropped"] != sched["anchor"]

    def test_wall_time_segregated_from_records(self):
        tables, quads, cfg = small_setup(epochs=1)
        result = train(tables, quads, cfg)
        assert all("wall_ms" not in r for r in result.records)
        assert all("wall_ms" in t for t in result.timings if t["kind"] == "step")

    def test_step_timings_carry_stage_times_and_peak_rss(self):
        """Each step's stages are timed inside its wall time; RSS is the peak so far."""
        tables, quads, cfg = small_setup(epochs=1)
        timings = train(tables, quads, cfg).timings
        assert timings and all(t["kind"] == "step" for t in timings)
        stages = {"proj_forward", "bimodal", "ic50", "volume", "proj_backward", "adam"}
        for t in timings:
            assert t.keys() == {"kind", "step", "wall_ms", "stage_ms", "peak_rss_mb"}
            assert t["stage_ms"].keys() == stages
            assert all(ms >= 0.0 for ms in t["stage_ms"].values())
            assert sum(t["stage_ms"].values()) <= t["wall_ms"]
            assert t["peak_rss_mb"] > 0.0
        rss = [t["peak_rss_mb"] for t in timings]
        assert rss == sorted(rss)


def separable_dti_setup(seed=0, n_drugs=12):
    """Two protein clusters; positives are every pair with a '+' protein."""
    rng = np.random.default_rng(seed)
    n_pos_prot, n_neg_prot, dim = 2, 20, 16
    drug_rows = rng.standard_normal((n_drugs, dim)).astype(np.float32)
    prot_rows = rng.standard_normal((n_pos_prot + n_neg_prot, dim)) * 0.3
    prot_rows[:n_pos_prot, 0] += 4.0
    prot_rows[n_pos_prot:, 0] -= 4.0
    smiles = EmbeddingTable(Modality.SMILES, [f"d{i}" for i in range(n_drugs)], drug_rows)
    protein = EmbeddingTable(
        Modality.PROTEIN,
        [f"p{j}" for j in range(n_pos_prot + n_neg_prot)],
        prot_rows.astype(np.float32),
    )
    positives = [(f"d{i}", f"p{j}") for i in range(n_drugs) for j in range(n_pos_prot)]
    model = build_model({m: dim for m in MODALITY_ORDER}, 8, 16, 8, 9)
    for m in MODALITY_ORDER:
        cast_params(model.projectors[m].params, np.float32)
    cast_params(model.ic50_head.params, np.float32)
    cfg = TrainConfig(
        lr=1e-3, batch_size=64, epochs=0, shared_dim=8, proj_hidden=16, seed=9, dti_epochs=60
    )
    return model, smiles, protein, positives, cfg


class TestStepMemory:
    def test_no_step_array_outlives_its_step(self):
        """Three steps peak no higher than one: no step holds arrays of the step before it.

        Holding one step's parameter gradients through the next puts a 3-step
        run about a fifth above a 1-step run at these proportions.
        """
        tables, quads = synth_quadruplets(128, (256, 256, 256, 384), 0.1, seed=0)

        def peak(epochs):
            cfg = TrainConfig(batch_size=128, epochs=epochs, shared_dim=128, proj_hidden=256)
            tracemalloc.start()
            try:
                train(tables, quads, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(1), peak(3)  # 128 quadruplets at B=128: one step per epoch
        assert three <= 1.02 * one, f"3-step peak {three / one:.3f}x the 1-step peak"

    def test_paper_step_keeps_no_next_layer_inputs(self, monkeypatch):
        """A paper-width B=256 step's peak through the volume loss, where all four tapes live.

        The step's own allocations peak there at 54.4 MiB of ``tracemalloc``;
        the bound leaves 1.6 MiB of margin. Tapes that also kept each
        projector's two next-layer inputs, 4 * 256 * (768 + 512) float64
        (10 MiB), peaked at 64.4 MiB.
        """
        tables, quads = synth_quadruplets(256, (768, 768, 768, 1280), 0.05, seed=0)
        cfg = TrainConfig(batch_size=256)
        model = trainer._new_model({m: tables[m].dim for m in MODALITY_ORDER}, cfg)
        index, labels = _manifest_index(quads)
        raw = {m: tables[m].rows[index[:, m]] for m in MODALITY_ORDER}
        rngs = {k: substream(cfg.seed, k, 0) for k in ("dropout", "scheduler")}
        peaks = []

        def volume_spy(*args, **kwargs):
            out = volume_contrastive(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(trainer, "volume_contrastive", volume_spy)
        tracemalloc.start()
        try:
            train_step(model, raw, labels, make_history(cfg.scheduler),
                       _dataset_weights(labels), cfg, rngs, lambda grads: None, pinned_map)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] <= 56 * 2**20, f"volume-loss peak {peaks[0] / 2**20:.1f} MiB"

    def test_paper_step_holds_one_heads_gradients_at_a_time(self):
        """A paper-width B=256 step with its five per-head Adam updates peaks under 50 MiB.

        The step holds at most one head's gradients per thread: the projector
        backwards run as parallel tasks, each updating its own head. The
        step's own allocations, with the model and the moments made before,
        peak at 48.3 MiB of ``tracemalloc``: 1.7 MiB of margin.
        Collecting all 6.44M float64 parameter gradients (49 MiB) for one
        update after the step peaked at 66.5 MiB, at the end of the projector
        backward.
        """
        tables, quads = synth_quadruplets(256, (768, 768, 768, 1280), 0.05, seed=0)
        cfg = TrainConfig(batch_size=256)
        model = trainer._new_model({m: tables[m].dim for m in MODALITY_ORDER}, cfg)
        index, labels = _manifest_index(quads)
        raw = {m: tables[m].rows[index[:, m]] for m in MODALITY_ORDER}
        rngs = {k: substream(cfg.seed, k, 0) for k in ("dropout", "scheduler")}
        params = dict(named_tensors(model))
        update = adam_update(params, cfg.lr)
        weights, history = _dataset_weights(labels), make_history(cfg.scheduler)
        tracemalloc.start()
        try:
            train_step(model, raw, labels, history, weights, cfg, rngs, update, pinned_map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * 2**20, f"step peak {peak / 2**20:.1f} MiB"


# one paper-width B=256 step; prints its recorded norms and a digest of every parameter gradient
PAPER_STEP = """
import hashlib, json
import numpy as np
from gramalign.data import synth_quadruplets
from gramalign.modality import MODALITY_ORDER
from gramalign.scheduler import SchedulerConfig, make_history
from gramalign.seeding import substream
from gramalign.parallel import pinned_map
from gramalign.trainer import (TrainConfig, _dataset_weights, _manifest_index, _new_model,
                               train_step)

tables, quads = synth_quadruplets(256, (768, 768, 768, 1280), 0.05, seed=11)
cfg = TrainConfig(batch_size=256, shared_dim=512, proj_hidden=768, seed=3)
model = _new_model({m: tables[m].dim for m in MODALITY_ORDER}, cfg)
index, labels = _manifest_index(quads)
raw = {m: tables[m].rows[index[:, m]] for m in MODALITY_ORDER}
rngs = {k: substream(cfg.seed, k, 0) for k in ("dropout", "scheduler")}
grads = {}  # every head's gradients, collected through the hand-off
_, _, _, norms = train_step(model, raw, labels, make_history(cfg.scheduler),
                            _dataset_weights(labels), cfg, rngs, grads.update, pinned_map)
digest = hashlib.sha256()
for name in sorted(grads):
    digest.update(name.encode())
    digest.update(np.ascontiguousarray(grads[name]).tobytes())
print(json.dumps({"norms": norms, "grads": digest.hexdigest()}))
"""


def test_paper_step_bytes_do_not_depend_on_blas_threads():
    """The recorded norms and every parameter gradient are the same bytes at 1 and 2 threads.

    The step's arrays are large enough for OpenBLAS to split its work; a BLAS
    dot for the norms rounds differently at each thread count.
    """
    src = str(Path(gramalign.__file__).resolve().parents[1])

    def step(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", PAPER_STEP], capture_output=True,
                              text=True, env=env, timeout=300, check=True)
        return json.loads(proc.stdout)

    assert step(1) == step(2)


def dti_fold_bytes():
    """SHA-256 of each fold's head tensors and metric row, for a 5-fold warm ``train_dti``.

    Each fold's 211 training pairs make three batches of 64 and a partial one of 19.
    """
    model, smiles, protein, positives, cfg = separable_dti_setup()
    cfg.dti_epochs = 2
    folds = make_split(positives, SplitKind.WARM, 5, seed=1, drugs=smiles.ids,
                       proteins=protein.ids)
    assert all(len(f.train.pairs) % cfg.batch_size for f in folds)
    out = []
    for head, metrics in train_dti(model, smiles, protein, folds, cfg):
        digest = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode())
        for name, a in heads.mlp_tensor_items("dti", head.params.specs, head.params.layers):
            digest.update(name.encode())
            digest.update(a.tobytes())
        out.append(digest.hexdigest())
    return out


DTI_FOLDS = """
import json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[2])
from test_trainer import dti_fold_bytes
print(json.dumps([len(os.sched_getaffinity(0)), dti_fold_bytes()]))
"""


def test_dti_fold_bytes_do_not_depend_on_threads(monkeypatch):
    """Every head tensor and metric row is the same bytes pooled, inline and at any BLAS count.

    Pooled, four workers and the calling thread share five folds under a short
    switch interval; inline, no OpenBLAS is found. The children run at 1 and 2
    OpenBLAS threads, and one pins itself to one CPU, so its map is a plain loop.
    """
    src = str(Path(gramalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    children = {
        (mode, threads): subprocess.Popen(
            [sys.executable, "-c", DTI_FOLDS, mode, str(Path(__file__).parent)],
            stdout=subprocess.PIPE, text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads))
        for mode, threads in [("all-cpus", "1"), ("all-cpus", "2"), ("one-cpu", "2")]
    }

    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with monkeypatch.context() as patch:
        patch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(5)))
        patch.setattr(parallel.threading, "Thread", CountedThread)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = dti_fold_bytes()
        finally:
            sys.setswitchinterval(interval)
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "blas_thread_controls", lambda: None)
        inline = dti_fold_bytes()
    if parallel.blas_thread_controls() is not None:
        assert len(started) == 4
    assert pooled == inline

    for (mode, threads), child in children.items():
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0, (mode, threads)
        cpus, fold_bytes = json.loads(out)
        assert fold_bytes == pooled, (mode, threads)
        if mode == "one-cpu":
            assert cpus == 1


def paper_adam_step(task_map):
    """A paper-width B=256 step with Adam: its losses, decision, gbar and norms, and a digest.

    The step runs its projector tasks through ``task_map``. The digest covers
    every parameter's bytes and both of its Adam moments'.
    """
    tables, quads = synth_quadruplets(256, (768, 768, 768, 1280), 0.05, seed=11)
    cfg = TrainConfig(batch_size=256, seed=3)
    model = trainer._new_model({m: tables[m].dim for m in MODALITY_ORDER}, cfg)
    params = dict(named_tensors(model))
    state = stepped_adam(params)
    index, labels = _manifest_index(quads)
    raw = {m: tables[m].rows[index[:, m]] for m in MODALITY_ORDER}
    rngs = {k: substream(cfg.seed, k, 0) for k in ("dropout", "scheduler")}
    losses, decision, gbar, norms = train_step(
        model, raw, labels, make_history(cfg.scheduler), _dataset_weights(labels), cfg, rngs,
        lambda grads: adam_step(params, grads, state, cfg.lr), task_map)
    digest = hashlib.sha256()
    for name in sorted(params):
        for a in (params[name], state.m[name], state.v[name]):
            digest.update(name.encode())
            digest.update(a.tobytes())
    dropped = None if decision.dropped is None else decision.dropped.short
    return [losses, decision.branch.value, dropped, decision.anchor.short,
            [float(x) for x in gbar], norms, digest.hexdigest()]


PAPER_ADAM_STEP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from gramalign.parallel import pinned_map
from test_trainer import paper_adam_step
print(json.dumps(paper_adam_step(pinned_map)))
"""


class CountedThread(threading.Thread):
    """A thread that records itself in ``started`` as it starts."""

    started = []

    def start(self):
        CountedThread.started.append(self)
        super().start()


@pytest.fixture
def counted_threads(monkeypatch):
    """Every thread ``pinned_map`` starts, with the CPUs it sees set by the caller."""

    def count(cpus):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(parallel.threading, "Thread", CountedThread)
        return CountedThread.started

    CountedThread.started = []
    return count


def test_pooled_step_bytes_do_not_depend_on_the_schedule(counted_threads):
    """Losses, decision, norms and every parameter and moment byte equal across schedules.

    Pooled, through ``pinned_map``, the step's projector tasks are shared by
    the calling thread and three workers under a short switch interval, so
    the projectors update in whichever order their tasks end; inline, through
    ``serial_map``, they run in MODALITY_ORDER. The children run the pooled
    step at 1 and 2 OpenBLAS threads. Each map starts min(CPUs, 4) - 1 workers.
    """
    src = str(Path(gramalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", PAPER_ADAM_STEP, str(Path(__file__).parent)],
            stdout=subprocess.PIPE, text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")
    }
    started = counted_threads(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = paper_adam_step(pinned_map)
    finally:
        sys.setswitchinterval(interval)
    inline = paper_adam_step(serial_map)
    if parallel.blas_thread_controls() is not None:
        assert len(started) == 2 * 3  # the forward and backward maps; inline starts none
    assert pooled == inline

    for threads, child in children.items():
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0, threads
        assert json.loads(out) == pooled, threads


def test_below_the_threshold_no_thread_starts(monkeypatch, counted_threads):
    """A desk-width run, its steps and alignment evals included, starts no thread."""
    tables, quads, cfg = small_setup(epochs=2)
    started = counted_threads(8)
    maps = []

    def eval_spy(*args):
        maps.append(args[-1])
        return alignment_volumes(*args)

    monkeypatch.setattr(trainer, "alignment_volumes", eval_spy)
    train(tables, quads, cfg)
    assert maps == [serial_map] * (cfg.epochs + 1)
    assert started == []


@pytest.mark.parametrize("min_work, want", [(0, pinned_map), (float("inf"), serial_map)],
                         ids=["pooled", "looped"])
def test_every_step_and_eval_of_a_run_gets_the_runs_one_map(monkeypatch, counted_threads,
                                                            min_work, want):
    """``train`` picks one map per run and hands that object to every step and alignment eval.

    With POOL_MIN_GEMM_WORK at 0 the map is ``pinned_map``; at infinity it is
    ``serial_map``, and no thread starts.
    """
    seen = []

    def spy(name):
        fn = getattr(trainer, name)

        def call(*args, **kwargs):
            seen.append((name, inspect.signature(fn).bind(*args, **kwargs).arguments["task_map"]))
            return fn(*args, **kwargs)
        return call

    for name in ("train_step", "alignment_volumes"):
        monkeypatch.setattr(trainer, name, spy(name))
    monkeypatch.setattr(trainer, "keep_freed_memory", lambda: None)
    monkeypatch.setattr(trainer, "POOL_MIN_GEMM_WORK", min_work)
    tables, quads, cfg = small_setup(epochs=2)
    started = counted_threads(2)
    train(tables, quads, cfg)
    steps = cfg.epochs * (len(quads) // cfg.batch_size)
    assert [name for name, _ in seen].count("train_step") == steps
    assert [name for name, _ in seen].count("alignment_volumes") == cfg.epochs + 1
    assert all(task_map is want for _, task_map in seen)
    if want is serial_map:
        assert started == []
    elif parallel.blas_thread_controls() is not None:
        assert len(started) == 2 * steps + cfg.epochs + 1  # one worker per map


@pytest.mark.parametrize("dims, batch, shared, hidden, want", [
    ((768, 768, 768, 1280), 256, 512, 768, pinned_map),  # paper widths
    ((32, 32, 32, 32), 64, 16, 32, serial_map),  # the desk walkthrough's run
], ids=["paper", "desk"])
def test_pool_min_gemm_work_maps_a_paper_width_run_and_loops_a_desk_one(
        monkeypatch, dims, batch, shared, hidden, want):
    """At the real threshold, a paper-width B=256 run maps its projector tasks; a desk run loops."""
    tables, quads = synth_quadruplets(8, dims, 0.05, seed=0)
    maps = []
    monkeypatch.setattr(trainer, "alignment_volumes",
                        lambda model, tables, index, task_map: maps.append(task_map) or (0.0, 0.0))
    monkeypatch.setattr(trainer, "keep_freed_memory", lambda: None)
    train(tables, quads, TrainConfig(batch_size=batch, epochs=0, shared_dim=shared,
                                     proj_hidden=hidden))
    assert maps == [want]


@pytest.mark.skipif(parallel.blas_thread_controls() is None, reason="no OpenBLAS beside numpy")
@pytest.mark.parametrize("min_work, threads, malloc_set", [
    (0, 1, 1),  # pooled: the whole loop at one BLAS thread, malloc set once
    (float("inf"), 2, 0),  # looped: the thread count it was given, malloc untouched
])
def test_train_holds_blas_at_one_thread_where_it_pools(tmp_path, monkeypatch, min_work, threads,
                                                        malloc_set):
    """A pooled run's steps, alignment evals and checkpoint writes run at one BLAS thread.

    A looped run's run at the count it was given. Either way the count
    returns, and only a pooled run sets glibc's malloc.
    """
    get, set_ = parallel.blas_thread_controls()
    seen, kept = [], []

    def spy(name, fn):
        def call(*args, **kwargs):
            seen.append((name, get()))
            return fn(*args, **kwargs)
        return call

    for name in ("train_step", "alignment_volumes", "save_model_checkpoint"):
        monkeypatch.setattr(trainer, name, spy(name, getattr(trainer, name)))
    monkeypatch.setattr(trainer, "keep_freed_memory", lambda: kept.append(get()))
    monkeypatch.setattr(trainer, "POOL_MIN_GEMM_WORK", min_work)
    tables, quads, cfg = small_setup(epochs=2)
    saved = get()
    set_(2)
    try:
        train(tables, quads, cfg, out_dir=tmp_path)
        assert get() == 2
    finally:
        set_(saved)
    assert {name for name, _ in seen} == {"train_step", "alignment_volumes",
                                          "save_model_checkpoint"}
    assert {t for _, t in seen} == {threads}
    assert len(kept) == malloc_set


@pytest.mark.parametrize("platform, maxrss, peak", [
    ("linux", 3000, 3000 * 1024),  # KiB
    ("freebsd14", 3000, 3000 * 1024),
    ("darwin", 3000, 3000),  # bytes
])
def test_peak_rss_bytes_reads_ru_maxrss_in_the_platforms_unit(monkeypatch, platform, maxrss,
                                                              peak):
    monkeypatch.setattr(trainer.sys, "platform", platform)
    monkeypatch.setattr(trainer.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert trainer.peak_rss_bytes() == peak


def test_peak_rss_mb_is_peak_rss_bytes_in_mib(monkeypatch):
    """``run.timing.jsonl`` reports MB = 2**20 bytes, the unit perfbench and the README use."""
    monkeypatch.setattr(trainer, "peak_rss_bytes", lambda: 3 * 2**20)
    tables, quads, cfg = small_setup(epochs=1)
    assert {t["peak_rss_mb"] for t in train(tables, quads, cfg).timings} == {3.0}


def test_without_resource_the_peak_rss_is_null(monkeypatch):
    monkeypatch.setattr(trainer, "resource", None)
    assert trainer.peak_rss_bytes() is None
    tables, quads, cfg = small_setup(epochs=1)
    assert {t["peak_rss_mb"] for t in train(tables, quads, cfg).timings} == {None}


def test_cli_imports_where_there_is_no_resource_module():
    """Windows has no ``resource`` module; the package and its CLI still import."""
    src = str(Path(gramalign.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['resource'] = None; import gramalign.cli; "
            "from gramalign.trainer import peak_rss_bytes; print(peak_rss_bytes())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "None"


class TestTrainDti:
    @pytest.mark.parametrize("scale", [1.0, 1e3], ids=["unit", "1e3"])
    @pytest.mark.parametrize("shape", [(1, 2), (7, 2), (512, 2), (33, 5)])
    def test_softmax_equals_scipy_byte_for_byte(self, shape, scale):
        from scipy.special import softmax

        logits = np.random.default_rng(shape[0]).uniform(-scale, scale, size=shape)
        logits[0, :2] = scale, -scale  # both ends of the range in one row
        got, want = losses.softmax(logits, axis=1)[0], softmax(logits, axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_trainer_imports_nothing_from_scipy(self):
        tree = ast.parse(inspect.getsource(trainer))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_separable_pairs_high_auroc(self):
        model, smiles, protein, positives, cfg = separable_dti_setup()
        folds = make_split(
            positives, SplitKind.WARM, 3, seed=1, drugs=smiles.ids, proteins=protein.ids
        )
        out = train_dti(model, smiles, protein, folds, cfg)
        for _, metrics in out:
            assert metrics["auroc"] >= 0.95

    def test_fold_count_matches(self):
        model, smiles, protein, positives, cfg = separable_dti_setup()
        cfg.dti_epochs = 2
        folds = make_split(
            positives, SplitKind.WARM, 5, seed=1, drugs=smiles.ids, proteins=protein.ids
        )
        out = train_dti(model, smiles, protein, folds, cfg)
        assert len(out) == 5
        assert [m["fold"] for _, m in out] == [0, 1, 2, 3, 4]

    def test_each_epoch_draws_dropout_from_its_own_substream(self, monkeypatch):
        """Fold f's epoch e starts its masks on a fresh substream(seed, "dti-dropout", f, e)."""
        model, smiles, protein, positives, cfg = separable_dti_setup()
        cfg.dti_epochs = 3
        folds = make_split(
            positives, SplitKind.WARM, 2, seed=1, drugs=smiles.ids, proteins=protein.ids
        )
        states = []  # the dropout generator's state as each training forward's masks are drawn

        def masks_spy(params, rows, rng):
            states.append(rng.bit_generator.state)
            return heads.dropout_masks(params, rows, rng)

        # one fold after another, so the states come in fold, epoch and batch order
        monkeypatch.setattr(trainer, "pinned_map", lambda fn, items: [fn(x) for x in items])
        monkeypatch.setattr(trainer, "dropout_masks", masks_spy)
        train_dti(model, smiles, protein, folds, cfg)
        start = 0  # the epoch's first training forward
        for fold in folds:
            n = len(fold.train.pairs)
            batches = -(-n // min(cfg.batch_size, n))
            assert batches > 1
            for epoch in range(cfg.dti_epochs):
                want = substream(cfg.seed, "dti-dropout", fold.index, epoch).bit_generator.state
                assert states[start] == want, (fold.index, epoch)
                start += batches
        assert start == len(states)

    def test_label_permutation_near_chance(self):
        model, smiles, protein, positives, cfg = separable_dti_setup(n_drugs=24)
        folds = make_split(
            positives, SplitKind.WARM, 3, seed=1, drugs=smiles.ids, proteins=protein.ids
        )
        rng = np.random.default_rng(0)
        permuted = copy.deepcopy(folds)
        for fold in permuted:
            for ds in (fold.train, fold.test):
                rng.shuffle(ds.pairs[:, 2])  # the label column, in place
        out = train_dti(model, smiles, protein, permuted, cfg)
        mean_auroc = np.mean([m["auroc"] for _, m in out])
        assert abs(mean_auroc - 0.5) <= 0.1


def test_batches_follow_a_many_to_many_manifest(monkeypatch):
    """Every batch and alignment evaluation reads the rows a per-Quadruplet walk reads.

    ``synth`` pairs quadruplet i with row i of every table, so a column mix-up
    in the manifest index would pass on it. Here the four columns are
    independent permutations, each table has fewer entities than a batch has
    rows, and some quadruplets carry no IC50 value.
    """
    rng = np.random.default_rng(5)
    n = 24
    sizes = {Modality.SMILES: 5, Modality.TEXT: 7, Modality.HTA: 4, Modality.PROTEIN: 9}
    tables = {m: EmbeddingTable(modality=m, ids=[f"{m.short}-{i}" for i in range(k)],
                                rows=rng.standard_normal((k, 6)))
              for m, k in sizes.items()}
    cols = {m: rng.permutation(np.arange(n) % k) for m, k in sizes.items()}
    ic50 = [[1.0, 100.0, 5000.0, None][i] for i in rng.integers(0, 4, size=n)]
    quads = [Quadruplet(*(int(cols[m][i]) for m in MODALITY_ORDER), ic50_um=ic50[i])
             for i in range(n)]
    annotated = [q.ic50_class for q in quads if q.ic50_class is not None]
    assert set(annotated) == {0, 1, 2} and len(annotated) < n
    cfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, shared_dim=4, proj_hidden=8,
                      ic50_hidden=8, seed=2)

    def walk(rows):
        """Each modality's table rows and the IC50 labels of quadruplets ``rows``, one by one."""
        raw = {m: np.stack([tables[m].rows[getattr(quads[r], f"{m.short}_row")] for r in rows])
               for m in MODALITY_ORDER}
        return raw, [-1 if quads[r].ic50_class is None else quads[r].ic50_class for r in rows]

    steps, evals = [], []

    def step_spy(model, raw, labels, history, weights, cfg, rngs, update, task_map, enter):
        steps.append((raw, labels.tolist(), weights))
        return train_step(model, raw, labels, history, weights, cfg, rngs, update, task_map,
                          enter)

    def project_spy(head, x, mode, *args, **kwargs):
        if mode == "eval":
            evals.append((head, x))
        return project(head, x, mode, *args, **kwargs)

    monkeypatch.setattr(trainer, "train_step", step_spy)
    monkeypatch.setattr(trainer, "project", project_spy)
    model = train(tables, quads, cfg).model

    want_weights = class_weights(annotated)
    per_epoch = n // cfg.batch_size
    assert len(steps) == cfg.epochs * per_epoch
    for step, (raw, labels, weights) in enumerate(steps):
        epoch, b = divmod(step, per_epoch)
        bs = cfg.batch_size
        rows = substream(cfg.seed, "shuffle", epoch).permutation(n)[b * bs : (b + 1) * bs]
        want_raw, want_labels = walk(rows)
        assert all(raw[m].tobytes() == want_raw[m].tobytes() for m in MODALITY_ORDER)
        assert labels == want_labels
        assert weights.counts == want_weights.counts
        assert weights.weights.tobytes() == want_weights.weights.tobytes()

    want_raw, _ = walk(range(n))  # n < ALIGNMENT_EVAL_CAP: every quadruplet is evaluated
    assert len(evals) == 4 * (cfg.epochs + 1)
    for head, x in evals:
        (m,) = [m for m in MODALITY_ORDER if model.projectors[m] is head]
        assert x.tobytes() == want_raw[m].tobytes()


def test_alignment_volumes_mismatch_uses_distinct_samples():
    """Mismatched tuple i takes row (i + k) mod n of the k-th modality, matched tuple i row i."""
    tables, quads, cfg = small_setup(n=12)
    model = build_model({m: 8 for m in MODALITY_ORDER}, 8, 8, 8, 0)
    index = _manifest_index(quads)[0][::-1]  # manifest rows that are not the table rows
    pos, mis = alignment_volumes(model, tables, index, serial_map)
    assert 0.0 <= pos <= 1.0
    assert 0.0 <= mis <= 1.0
    n = len(index)
    feats = [project(model.projectors[m], tables[m].rows[index[:, m]], "eval")[0]
             for m in MODALITY_ORDER]
    i = np.arange(n)
    assert pos == float(np.mean(tuple_volumes(feats)))
    assert mis == float(np.mean(tuple_volumes([f[(i + k) % n] for k, f in enumerate(feats)])))


def test_train_config_json_round_trip():
    cfg = TrainConfig(seed=3, epochs=7)
    back = TrainConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"nonsense": 1})
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"scheduler": {"nonsense": 1}})


def test_dataset_weights_fallback_uniform():
    """No annotations, or a class without any: unweighted CE, every weight exactly 1.0."""
    _, quads = synth_quadruplets(8, (4, 4, 4, 4), 0.1, seed=0)
    for q in quads:
        q.ic50_um = None
        q.ic50_class = None
    cw = _dataset_weights(_manifest_index(quads)[1])
    np.testing.assert_array_equal(cw.weights, [1.0, 1.0, 1.0])

    _, quads = synth_quadruplets(30, (4, 4, 4, 4), 0.1, seed=0)
    quads = [q for q in quads if q.ic50_class != 2]
    assert {q.ic50_class for q in quads} == {None, 0, 1}
    cw = _dataset_weights(_manifest_index(quads)[1])
    np.testing.assert_array_equal(cw.weights, [1.0, 1.0, 1.0])
