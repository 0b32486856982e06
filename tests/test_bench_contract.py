"""The benchmark's gated workloads, run at desk size through perfbench's own code.

``perfbench/workloads.py`` reaches into the package by name: ``Pretrain.op``
patches ``trainer.volume_contrastive``, which ``train_step`` must look up
when it runs, and ``recall_check`` rebuilds retrieval from ``heads.project``,
``evaluation.cosine_matrix`` and ``RECALL_KS``. A renamed or rebound name
shows up here as a failed check, not only in a benchmark run.

Each workload is shrunk with ``dataclasses.replace`` and driven through its
``prepare``, ``setup``, two ``op`` calls and ``checks``. The quality floors
(``align_gap_floor``, ``retrieval_r1_floor``, ``dti_auroc_floor``) are set
for the full sizes, so they are not asserted here. The set-up and the
second operation run through ``perfbench/run.py``'s ``call`` under its
``Tracer``, as a ``--trace 1`` run drives them, so a trace point whose
counter no longer fits the package's call shows up here too. Nothing under
``perfbench/`` is changed.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
DESK = {
    "pretrain-paper": ("volume_kernel_matches_numerics", dict(
        n=64, dims=(8, 8, 8, 12),
        config={"batch_size": 32, "epochs": 1, "shared_dim": 4, "proj_hidden": 8,
                "ic50_hidden": 8, "scheduler": {"p_drop": 0.0}})),
    "eval-dti": ("recall_matches_full_sort_oracle", dict(
        n=40, dims=(8, 8, 8, 8),
        pretrain_args=("--epochs", 1, "--batch-size", 16, "--shared-dim", 4,
                       "--proj-hidden", 8),
        folds=2, dti_epochs=1)),
}
# spans a traced operation of each workload must hold
TRACED_SPANS = {
    "pretrain-paper": {"heads.project", "heads.backward", "trainer.train_step"},
    "eval-dti": {"heads.project", "heads.backward", "heads.dti_forward", "trainer.train_dti"},
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def runner():
    """``perfbench/run.py`` as a module; it imports ``tracer`` from its own directory."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        del sys.modules[spec.name]
        sys.modules.pop("tracer", None)


@pytest.mark.parametrize("name", sorted(DESK))
def test_gated_workload_at_desk_size(workloads, runner, tmp_path, capsys, name):
    """The set-up and the second operation run traced, as in a ``--trace 1`` run."""
    gate, sizes = DESK[name]
    workload = dataclasses.replace(workloads[name], **sizes)
    workload.prepare(ROOT, tmp_path, SEED)
    tracer = runner.Tracer()
    state = runner.call(tracer, "bench.setup", workload.setup, tmp_path, SEED)
    ops = [workload.op(state, tmp_path, 0),
           runner.call(tracer, "bench.op", workload.op, state, tmp_path, 1)]
    assert ops[0].fingerprint == ops[1].fingerprint
    assert all(op.finite for op in ops)
    assert "perfbench: cannot count" not in capsys.readouterr().err
    assert TRACED_SPANS[name] <= {span[2] for span in tracer.spans}
    checks = {check: (ok, detail) for check, ok, detail in workload.checks(state, ops, SEED)}
    ok, detail = checks[gate]
    assert ok, detail

