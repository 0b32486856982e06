"""Tests for Adam, the training loop, determinism/resume, and downstream DTI."""

import copy

import numpy as np
import pytest

from gramalign.checkpoint import load_checkpoint, save_checkpoint
from gramalign.data import EmbeddingTable, SplitKind, make_split, synth_quadruplets
from gramalign.errors import EmptyDataset, MissingTensor, NonFiniteLoss, ShapeMismatch
from gramalign.heads import build_model, cast_params, named_tensors, project, ic50_forward
from gramalign.losses import Batch, clip_bimodal, ic50_loss, volume_contrastive
from gramalign.modality import MODALITY_ORDER, Modality
from gramalign.scheduler import make_history
from gramalign.seeding import substream
from gramalign.trainer import (
    AdamState,
    TrainConfig,
    _batch_from_rows,
    _dataset_weights,
    adam_step,
    alignment_volumes,
    init_adam,
    load_model,
    train,
    train_dti,
    train_step,
)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([[1.0, -2.0]]), "b": np.array([0.5])}
        state = init_adam(params)
        adam_step(params, {"w": np.zeros((1, 2)), "b": np.zeros(1)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [[1.0, -2.0]])
        np.testing.assert_array_equal(params["b"], [0.5])

    def test_single_step_hand_value(self):
        # theta=0, g=1, fresh state, lr=0.1: m_hat=1, v_hat=1 -> theta ~ -0.1
        params = {"t": np.array([0.0])}
        state = init_adam(params)
        adam_step(params, {"t": np.array([1.0])}, state, lr=0.1)
        assert params["t"][0] == pytest.approx(-0.1, abs=1e-7)
        assert state.t == 1

    def test_deterministic(self):
        def run():
            params = {"w": np.full((2, 2), 0.3)}
            state = init_adam(params)
            for k in range(5):
                adam_step(params, {"w": np.full((2, 2), 0.1 * (k + 1))}, state, lr=0.01)
            return params["w"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = init_adam(params)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"w": np.zeros((2, 3))}, state, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"v": np.zeros((2, 2))}, state, lr=0.1)

    def test_float32_masters_stay_float32(self):
        params = {"w": np.zeros((2, 2), dtype=np.float32)}
        state = init_adam(params)
        adam_step(params, {"w": np.ones((2, 2))}, state, lr=0.1)
        assert params["w"].dtype == np.float32
        assert state.m["w"].dtype == np.float32


def small_setup(n=16, dim=8, seed=0, **cfg_kwargs):
    tables, quads = synth_quadruplets(n, (dim, dim, dim, dim), 0.1, seed=seed)
    defaults = dict(
        lr=1e-3, batch_size=8, epochs=2, shared_dim=8, proj_hidden=8, ic50_hidden=8, seed=seed
    )
    defaults.update(cfg_kwargs)
    return tables, quads, TrainConfig(**defaults)


def eval_total_loss(model, raw, labels, mask, weights, cfg):
    feats = {m: project(model.projectors[m], raw[m], "eval")[0] for m in MODALITY_ORDER}
    batch = Batch(embeddings=feats, ic50_labels=labels, ic50_mask=mask)
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
        weights = _dataset_weights(quads)
        raw, labels, mask = _batch_from_rows(tables, quads, list(range(8)))
        rngs = {
            "dropout": substream(cfg.seed, "dropout", 0),
            "scheduler": substream(cfg.seed, "scheduler", 0),
        }
        return model, params, weights, raw, labels, mask, cfg, rngs

    def test_zero_lambdas_leave_params(self):
        model, params, weights, raw, labels, mask, cfg, rngs = self._prepare(
            lambda_vol=0.0, lambda_bi=0.0, lambda_ic50=0.0
        )
        before = {k: v.copy() for k, v in params.items()}
        history = make_history(cfg.scheduler)
        _, _, _, _, grads = train_step(model, raw, labels, mask, history, weights, cfg, rngs)
        adam_step(params, grads, init_adam(params), cfg.lr)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_one_step_decreases_total_loss(self):
        model, params, weights, raw, labels, mask, cfg, rngs = self._prepare()
        before = eval_total_loss(model, raw, labels, mask, weights, cfg)
        history = make_history(cfg.scheduler)
        _, _, _, _, grads = train_step(model, raw, labels, mask, history, weights, cfg, rngs)
        adam_step(params, grads, init_adam(params), cfg.lr)
        after = eval_total_loss(model, raw, labels, mask, weights, cfg)
        assert after < before

    def test_grad_norms_source_excludes_volume_loss(self):
        # with lambda_bi = lambda_ic50 = 0 the recorded norms must be exactly
        # zero even though the volume objective is active
        model, params, weights, raw, labels, mask, cfg, rngs = self._prepare(
            lambda_vol=1.0, lambda_bi=0.0, lambda_ic50=0.0
        )
        history = make_history(cfg.scheduler)
        _, _, _, norms, grads = train_step(model, raw, labels, mask, history, weights, cfg, rngs)
        assert norms == [0.0, 0.0, 0.0, 0.0]
        # the volume gradients still update the projectors
        assert any(np.abs(g).max() > 0 for g in grads.values())

    def test_non_finite_loss_raises(self):
        model, params, weights, raw, labels, mask, cfg, rngs = self._prepare()
        model.ic50_head.params.layers[0].w[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss, match="ic50"):
            train_step(model, raw, labels, mask, make_history(cfg.scheduler), weights, cfg, rngs)


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


class TestTrainDti:
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

    def test_label_permutation_near_chance(self):
        model, smiles, protein, positives, cfg = separable_dti_setup(n_drugs=24)
        folds = make_split(
            positives, SplitKind.WARM, 3, seed=1, drugs=smiles.ids, proteins=protein.ids
        )
        rng = np.random.default_rng(0)
        permuted = copy.deepcopy(folds)
        for fold in permuted:
            for ds in (fold.train, fold.test):
                labs = [y for _, _, y in ds.pairs]
                rng.shuffle(labs)
                ds.pairs = [(d, p, y) for (d, p, _), y in zip(ds.pairs, labs)]
        out = train_dti(model, smiles, protein, permuted, cfg)
        mean_auroc = np.mean([m["auroc"] for _, m in out])
        assert abs(mean_auroc - 0.5) <= 0.1


def test_alignment_volumes_mismatch_uses_distinct_samples():
    tables, quads, cfg = small_setup(n=12)
    model = build_model({m: 8 for m in MODALITY_ORDER}, 8, 8, 8, 0)
    pos, mis = alignment_volumes(model, tables, quads)
    assert 0.0 <= pos <= 1.0
    assert 0.0 <= mis <= 1.0


def test_train_config_json_round_trip():
    cfg = TrainConfig(seed=3, epochs=7)
    back = TrainConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"nonsense": 1})
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"scheduler": {"nonsense": 1}})


def test_dataset_weights_fallback_uniform():
    _, quads = synth_quadruplets(8, (4, 4, 4, 4), 0.1, seed=0)
    for q in quads:
        q.ic50_um = None
        q.ic50_class = None
    cw = _dataset_weights(quads)
    np.testing.assert_array_equal(cw.weights, [1.0, 1.0, 1.0])
