"""The benchmark workloads: what each prepares, sets up, runs and checks.

Each workload is a closed loop in one process and one thread of control:
an operation starts when the previous one ends. Every operation of a run
repeats the same work on the same inputs, so operation times are comparable
and operation outputs must be byte-identical.

Inputs come from the ``gramalign`` command line (``synth``, and ``pretrain``
for the checkpoint that ``eval-dti`` reads), run in a child process during
preparation, so data generation stays out of both the timings and the
measured process's peak memory.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from gramalign import data, evaluation, heads, losses, numerics, trainer
from gramalign.cli import MANIFEST_FILE, TABLE_FILES
from gramalign.modality import MODALITY_ORDER, Modality

SYNTH_NOISE = 0.05


@dataclass
class OpResult:
    wall_s: float
    samples: int  # training samples processed by the op's training call
    train_s: float  # wall time of that training call
    fingerprint: bytes  # output bytes that must not differ between ops
    units: int  # per-layer metrics are reported per unit (step or pass)
    step_ms: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)  # end-to-end phase times, s
    quality: dict = field(default_factory=dict)
    finite: bool = True


def run_cli(root, *args):
    """Run one ``gramalign`` command from the source tree and wait for it."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    subprocess.run(
        [sys.executable, "-m", "gramalign.cli", *map(str, args)],
        cwd=root,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=150,
    )


def load_dataset(data_dir):
    tables = {m: data.load_embedding_table(data_dir / TABLE_FILES[m], m) for m in MODALITY_ORDER}
    return tables, data.load_manifest(data_dir / MANIFEST_FILE, tables)


def manifest_pairs(tables, quads):
    """Distinct (drug id, protein id) pairs in manifest order, as ``retrieve`` and ``dti`` use."""
    s_ids, p_ids = tables[Modality.SMILES].ids, tables[Modality.PROTEIN].ids
    return list(dict.fromkeys((s_ids[q.smiles_row], p_ids[q.protein_row]) for q in quads))


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pretrain:
    name: str
    why: str
    n: int
    dims: tuple
    config: dict  # TrainConfig fields; the seed comes from --seed
    gap_floor: float

    def prepare(self, root, work, seed):
        run_cli(root, "synth", "--out", work / "data", "--n", self.n,
                "--dims", ",".join(map(str, self.dims)), "--noise", SYNTH_NOISE, "--seed", seed)

    def train_config(self, seed):
        return trainer.TrainConfig.from_dict({**self.config, "seed": seed})

    def setup(self, work, seed):
        """Read the tables and manifest and build the model ``train`` starts from."""
        tables, quads = load_dataset(work / "data")
        cfg = self.train_config(seed)
        in_dims = {m: tables[m].dim for m in MODALITY_ORDER}
        heads.build_model(in_dims, cfg.shared_dim, cfg.proj_hidden, cfg.ic50_hidden, cfg.seed)
        return {"tables": tables, "quads": quads, "cfg": cfg, "captured": None}

    def op(self, state, work, index):
        out = work / f"op-{index}"
        cfg = state["cfg"]
        original = trainer.volume_contrastive

        def capture(*args, **kwargs):
            state["captured"] = (args, kwargs)
            return original(*args, **kwargs)

        trainer.volume_contrastive = capture
        try:
            t0 = time.perf_counter()
            result = trainer.train(state["tables"], state["quads"], cfg, out_dir=out)
            wall = time.perf_counter() - t0
        finally:
            trainer.volume_contrastive = original
        log = (out / "run.log.jsonl").read_bytes()
        shutil.rmtree(out)
        steps = [r for r in result.records if r["kind"] == "step"]
        align = [r for r in result.records if r["kind"] == "alignment"]
        finite = all(math.isfinite(v) for r in steps for v in r["losses"].values()) and all(
            math.isfinite(r[k]) for r in align for k in ("mean_positive_volume", "mean_mismatch_volume")
        )
        last = align[-1]
        return OpResult(
            wall_s=wall,
            samples=len(steps) * cfg.batch_size,
            train_s=wall,
            fingerprint=log,
            units=len(steps),
            step_ms=[t["wall_ms"] for t in result.timings],
            quality={"align_gap": last["mean_mismatch_volume"] - last["mean_positive_volume"]},
            finite=finite,
        )

    def checks(self, state, ops, seed):
        yield "volume_kernel_matches_numerics", *volume_check(state["captured"], seed)
        gaps = [o.quality["align_gap"] for o in ops]
        yield "align_gap_floor", min(gaps) >= self.gap_floor, f"min {min(gaps):.4f} >= {self.gap_floor}"


def volume_check(captured, seed, samples=64):
    """Sampled pairs of the last captured volume-loss batch against the reference.

    ``volume_similarity_forward`` gives S[i, j] = -V(anchor_j, others_i) / tau
    with V = sqrt(max(det, 0) + EPS_VOL); ``numerics.volume_unclamped`` is the
    single-tuple reference for sqrt(max(det, 0)).
    """
    if captured is None:
        return False, "no batch captured"
    (batch, anchor, active, *rest), kwargs = captured
    tau = rest[0] if rest else kwargs.get("tau", losses.DEFAULT_TAU)
    sim = losses.volume_similarity_forward(batch, anchor, active, tau)
    others = [m for m in MODALITY_ORDER if m in active and m != anchor]
    emb = batch.embeddings
    b = sim.shape[0]
    rng = np.random.default_rng(seed)
    pairs = [(i, i) for i in rng.choice(b, samples // 4, replace=False)]
    pairs += zip(rng.integers(0, b, samples - len(pairs)), rng.integers(0, b, samples - len(pairs)))
    worst = 0.0
    for i, j in pairs:
        ref = numerics.volume_unclamped(np.stack([emb[anchor][j]] + [emb[m][i] for m in others]))
        expected = math.sqrt(ref * ref + losses.EPS_VOL)
        worst = max(worst, abs(-sim[i, j] * tau - expected) / expected)
    return worst <= 1e-8, f"k={len(active)}, {len(pairs)} pairs, max rel err {worst:.2e} <= 1e-8"


# ---------------------------------------------------------------------------
# retrieval + DTI on a prepared checkpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalDti:
    name: str
    why: str
    n: int
    dims: tuple
    pretrain_args: tuple  # extra ``gramalign pretrain`` flags for the prepared checkpoint
    folds: int
    dti_epochs: int
    r1_floor: float
    auroc_floor: float

    def prepare(self, root, work, seed):
        run_cli(root, "synth", "--out", work / "data", "--n", self.n,
                "--dims", ",".join(map(str, self.dims)), "--noise", SYNTH_NOISE, "--seed", seed)
        run_cli(root, "pretrain", "--data", work / "data", "--out", work / "ckpt",
                "--seed", seed, *self.pretrain_args)

    def setup(self, work, seed):
        """Read the tables and manifest and load the checkpoint."""
        tables, quads = load_dataset(work / "data")
        model, cfg, _ = trainer.load_model(work / "ckpt" / "final.ckpt")
        cfg = dataclasses.replace(cfg, dti_epochs=self.dti_epochs)
        return {"tables": tables, "pairs": manifest_pairs(tables, quads), "model": model,
                "cfg": cfg, "recall": None}

    def op(self, state, work, index):
        model, cfg, pairs = state["model"], state["cfg"], state["pairs"]
        s_tab, p_tab = state["tables"][Modality.SMILES], state["tables"][Modality.PROTEIN]
        t0 = time.perf_counter()
        retrieval = evaluation.run_retrieval(model, s_tab, p_tab, pairs)
        t1 = time.perf_counter()
        folds = data.make_split(pairs, data.SplitKind.WARM, self.folds, cfg.seed,
                                drugs=s_tab.ids, proteins=p_tab.ids)
        t2 = time.perf_counter()
        results = trainer.train_dti(model, s_tab, p_tab, folds, cfg)
        t3 = time.perf_counter()
        recall = {r.direction.value: r.recall_at for r in retrieval}
        rows = [m for _, m in results]
        state["recall"] = recall
        numbers = [v for r in recall.values() for v in r.values()]
        numbers += [m[k] for m in rows for k in ("auroc", "auprc", "sensitivity", "f1", "accuracy")]
        return OpResult(
            wall_s=t3 - t0,
            samples=sum(len(f.train.pairs) for f in folds) * cfg.dti_epochs,
            train_s=t3 - t2,
            fingerprint=json.dumps([recall, rows], sort_keys=True).encode(),
            units=1,
            phases={"retrieve_s": t1 - t0, "dti_s": t3 - t1},
            quality={
                "retrieval_r1": float(np.mean([r[1] for r in recall.values()])),
                "dti_auroc": float(np.mean([m["auroc"] for m in rows])),
            },
            finite=all(math.isfinite(v) for v in numbers),
        )

    def checks(self, state, ops, seed):
        yield "recall_matches_full_sort_oracle", *recall_check(state)
        r1 = min(o.quality["retrieval_r1"] for o in ops)
        yield "retrieval_r1_floor", r1 >= self.r1_floor, f"min {r1:.4f} >= {self.r1_floor}"
        auc = min(o.quality["dti_auroc"] for o in ops)
        yield "dti_auroc_floor", auc >= self.auroc_floor, f"min {auc:.4f} >= {self.auroc_floor}"


def recall_check(state):
    """Recompute both retrieval directions by fully sorting every query's scores.

    Ranking is by descending score with ties to the lower candidate index,
    the rule ``recall_at_k`` documents; the scores are the package's own
    cosine matrix over eval-mode projections.
    """
    model, pairs = state["model"], state["pairs"]
    s_tab, p_tab = state["tables"][Modality.SMILES], state["tables"][Modality.PROTEIN]
    f_s, _ = heads.project(model.projectors[Modality.SMILES], s_tab.rows, "eval")
    f_p, _ = heads.project(model.projectors[Modality.PROTEIN], p_tab.rows, "eval")
    sim = evaluation.cosine_matrix(f_s, f_p)
    s_index = {e: i for i, e in enumerate(s_tab.ids)}
    p_index = {e: i for i, e in enumerate(p_tab.ids)}
    queries = {"S_TO_P": [], "P_TO_S": []}
    partners = {"S_TO_P": {}, "P_TO_S": {}}
    for d, p in pairs:
        i, j = s_index[d], p_index[p]
        queries["S_TO_P"].append(i)
        queries["P_TO_S"].append(j)
        partners["S_TO_P"].setdefault(i, set()).add(j)
        partners["P_TO_S"].setdefault(j, set()).add(i)
    oracle = {}
    for direction, mat in (("S_TO_P", sim), ("P_TO_S", sim.T)):
        ranked = {}
        for q in set(queries[direction]):
            row = mat[q].tolist()
            ranked[q] = sorted(range(len(row)), key=lambda c: (-row[c], c))
        oracle[direction] = {
            k: sum(any(c in partners[direction][q] for c in ranked[q][:k]) for q in queries[direction])
            / len(queries[direction])
            for k in evaluation.RECALL_KS
        }
    got = state["recall"]
    return got == oracle, f"package {got} vs oracle {oracle}"


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Pretrain(
            name="pretrain-paper",
            why="paper shapes, k=4 every step: volume backward, projector GEMMs, Adam over 6.44M "
            "params and 77 MB checkpoint writes dominate",
            n=1024,
            dims=(768, 768, 768, 1280),
            config={"batch_size": 512, "epochs": 2, "shared_dim": 512, "proj_hidden": 768,
                    "scheduler": {"p_drop": 0.0}},
            gap_floor=0.002,  # about ten times the gap at initialisation
        ),
        Pretrain(
            name="pretrain-desk",
            why="400 small steps: per-step Python glue, Adam over 44 small tensors, the k=3/k=4 "
            "mix and the per-epoch alignment LU loop show",
            n=256,
            dims=(32, 32, 32, 32),
            config={"lr": 1e-3, "batch_size": 64, "epochs": 100, "shared_dim": 16,
                    "proj_hidden": 32, "ic50_hidden": 32},
            gap_floor=0.1,
        ),
        EvalDti(
            name="eval-dti",
            why="retrieve + warm 5-fold dti on a prepared checkpoint: never runs the volume loss, "
            "so it is the control for training-step changes; split grid and DTI loop dominate",
            n=1000,
            dims=(32, 32, 32, 32),
            pretrain_args=("--epochs", 10, "--batch-size", 128, "--shared-dim", 16,
                           "--proj-hidden", 32, "--lr", 1e-3),
            folds=5,
            dti_epochs=2,
            r1_floor=0.02,
            auroc_floor=0.9,
        ),
    )
}
