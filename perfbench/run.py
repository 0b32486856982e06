"""gramalign benchmark: one workload per run, measured end to end or traced per layer.

Run from the repository root, with no install step (the package is imported
from ``src``):

    python3 perfbench/run.py --workload pretrain-paper --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones, plus the tracing overhead; its spans are written to
``.perfbench_out/``. Every run prints an environment block, one row of
end-to-end figures by name and unit, a JSON report with every check, and,
as its last line, the JSON result ``{correct, attempted, failed, metrics}``.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 2  # every run compares two operations' outputs byte for byte
SETUP_REPS = 5  # set-ups before each operation
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics reported by every workload, with their units
END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
}


def percentile_tail(values):
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def environment(kernels, np, scipy):
    info = {
        "git_rev": "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "kernels_backend": getattr(kernels, "active_backend", lambda: "n/a")(),
        "kernels_has_numba": getattr(kernels, "HAS_NUMBA", None),
    }
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        info["git_rev"] = rev.stdout.strip() or info["git_rev"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["blas_threads"] = int(getattr(handle, symbol)())
    return info


def trace_points(tracer):
    """Wrap each layer's public functions where the package looks them up."""
    import numpy as np

    from gramalign import checkpoint, data, evaluation, heads, losses, trainer

    def gemm_flops(specs, rows):
        return sum(2 * rows * s.in_dim * s.out_dim for s in specs)

    def rows_of(x):
        x = np.asarray(x)
        return 1 if x.ndim == 1 else x.shape[0]

    def forward_flops(counts, args, _):
        counts["heads.gemm_flop"] += gemm_flops(args[0].params.specs, rows_of(args[1]))

    def backward_flops(counts, args, _):  # weight and input gradients: twice the forward
        counts["heads.gemm_flop"] += 2 * gemm_flops(args[0].params.specs, rows_of(args[1]))

    def pairs(counts, args, _):
        counts["kernels.pairs"] += np.shape(args[1])[1] ** 2

    def coeff_bytes(counts, _, result):
        counts["kernels.coeff_bytes"] += result.nbytes

    def k4(counts, _, result):
        counts["scheduler.k4"] += result.dropped is None

    def written(counts, args, _):
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def grid(counts, args, _):
        counts["data.grid_pairs"] += len(args[0])

    for owner, attr, name, observe in (
        (trainer, "train", "trainer.train", None),
        (trainer, "train_step", "trainer.train_step", None),
        (trainer, "adam_step", "trainer.adam_step", None),
        (trainer, "alignment_volumes", "trainer.alignment_volumes", None),
        (trainer, "save_model_checkpoint", "trainer.save_model_checkpoint", None),
        (trainer, "train_dti", "trainer.train_dti", None),
        (trainer, "load_model", "trainer.load_model", None),
        (trainer, "build_model", "heads.build_model", None),
        (heads, "build_model", "heads.build_model", None),
        (trainer, "project", "heads.project", forward_flops),
        (evaluation, "project", "heads.project", forward_flops),
        (trainer, "ic50_forward", "heads.ic50_forward", forward_flops),
        (trainer, "dti_forward", "heads.dti_forward", forward_flops),
        (trainer, "backward", "heads.backward", backward_flops),
        (trainer, "volume_contrastive", "losses.volume_contrastive", None),
        (trainer, "clip_bimodal", "losses.clip_bimodal", None),
        (trainer, "ic50_loss", "losses.ic50_loss", None),
        (trainer, "total_loss", "losses.total_loss", None),
        (losses, "pair_volumes", "kernels.pair_volumes", pairs),
        (losses, "pair_volume_coeffs", "kernels.pair_volume_coeffs", coeff_bytes),
        (trainer, "volume_unclamped", "numerics.volume_unclamped", None),
        (trainer, "record", "scheduler.record", None),
        (trainer, "smoothed", "scheduler.smoothed", None),
        (trainer, "decide", "scheduler.decide", k4),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", written),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (data, "load_embedding_table", "data.load_embedding_table", None),
        (data, "load_manifest", "data.load_manifest", None),
        (data, "make_split", "data.make_split", None),
        (data, "_sample_negatives", "data.sample_negatives", grid),
        (evaluation, "run_retrieval", "evaluation.run_retrieval", None),
        (evaluation, "cosine_matrix", "evaluation.cosine_matrix", None),
        (evaluation, "recall_at_k", "evaluation.recall_at_k", None),
        (evaluation, "auroc", "evaluation.auroc", None),
        (evaluation, "auprc", "evaluation.auprc", None),
        (evaluation, "classification_metrics", "evaluation.classification_metrics", None),
    ):
        tracer.wrap(owner, attr, name, observe)


def call(tracer, span_name, fn, *args):
    """``fn(*args)`` inside one span with every trace point installed, or plainly."""
    if tracer is None:
        return fn(*args)
    trace_points(tracer)
    try:
        with tracer.span(span_name):
            return fn(*args)
    finally:
        tracer.unwrap_all()


LAYERS = ("heads", "losses", "kernels", "scheduler", "trainer", "numerics", "checkpoint", "data",
          "evaluation")

# per-layer metric -> (unit, source, span name or counter); "op" sources are per unit
# (training step or eval pass) over traced operations, "setup" sources per set-up
PER_LAYER = {
    "kernels.pair_volumes_ms": ("ms", "incl", "kernels.pair_volumes"),
    "kernels.pair_coeffs_ms": ("ms", "incl", "kernels.pair_volume_coeffs"),
    "kernels.pairs_per_step": ("count", "count", "kernels.pairs"),
    "kernels.coeff_bytes_per_step": ("bytes", "count", "kernels.coeff_bytes"),
    "losses.volume_ms": ("ms", "incl", "losses.volume_contrastive"),
    "losses.volume_self_ms": ("ms", "self", "losses.volume_contrastive"),
    "losses.bimodal_ms": ("ms", "incl", "losses.clip_bimodal"),
    "losses.ic50_ms": ("ms", "incl", "losses.ic50_loss"),
    "heads.project_ms": ("ms", "incl", "heads.project"),
    "heads.backward_ms": ("ms", "incl", "heads.backward"),
    "heads.gemm_gflop_per_step": ("GFLOP", "count", "heads.gemm_flop"),
    "trainer.adam_ms": ("ms", "incl", "trainer.adam_step"),
    "trainer.step_self_ms": ("ms", "self", "trainer.train_step"),
    "trainer.alignment_eval_ms": ("ms", "incl", "trainer.alignment_volumes"),
    "trainer.train_dti_ms": ("ms", "incl", "trainer.train_dti"),
    "numerics.volume_unclamped_calls": ("count", "calls", "numerics.volume_unclamped"),
    "numerics.volume_unclamped_ms": ("ms", "incl", "numerics.volume_unclamped"),
    "scheduler.decide_ms": ("ms", "incl", "scheduler.decide"),
    "scheduler.k4_share": ("ratio", "share", "scheduler.k4"),
    "checkpoint.save_ms": ("ms", "incl", "checkpoint.save_checkpoint"),
    "checkpoint.bytes_written": ("bytes", "count", "checkpoint.bytes"),
    "checkpoint.load_ms": ("ms", "setup", "checkpoint.load_checkpoint"),
    "data.load_table_ms": ("ms", "setup", "data.load_embedding_table"),
    "data.load_manifest_ms": ("ms", "setup", "data.load_manifest"),
    "data.make_split_ms": ("ms", "incl", "data.make_split"),
    "data.grid_pairs": ("count", "count", "data.grid_pairs"),
    "evaluation.cosine_ms": ("ms", "incl", "evaluation.cosine_matrix"),
    "evaluation.recall_at_k_ms": ("ms", "incl", "evaluation.recall_at_k"),
    "evaluation.auroc_ms": ("ms", "incl", "evaluation.auroc"),
    "evaluation.auprc_ms": ("ms", "incl", "evaluation.auprc"),
}
STEP_SPANS = ("trainer.train_step", "trainer.adam_step")


def per_layer_metrics(tracer, units, step_ms_total):
    ops = summarize(tracer.spans, "bench.op", STEP_SPANS)
    setup = summarize(tracer.spans, "bench.setup")
    setups = sum(1 for s in tracer.spans if s[2] == "bench.setup")
    out = {}
    for metric, (unit, source, key) in PER_LAYER.items():
        if source == "incl":
            value = 1000.0 * ops["incl"][key] / units
        elif source == "self":
            value = 1000.0 * ops["self"][key] / units
        elif source == "calls":
            value = ops["calls"][key] / units
        elif source == "count":
            value = tracer.counts[key] / units / (1e9 if unit == "GFLOP" else 1.0)
        elif source == "share":
            decided = ops["calls"]["scheduler.decide"]
            value = tracer.counts[key] / decided if decided else 0.0
        else:
            value = 1000.0 * setup["incl"][key] / setups
        out[metric] = (value, unit)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (1000.0 * ops["layer_self"][layer] / units, "ms")
    for layer in LAYERS:
        share = ops["step_layer_self"][layer] / step_ms_total * 1000.0 if step_ms_total else 0.0
        out[f"step_share.{layer}"] = (share, "ratio")
    covered = sum(ops["layer_self"].values())
    out["trace.op_coverage"] = (covered / ops["root_s"], "ratio")
    step_cov = 1000.0 * ops["step_incl"] / step_ms_total if step_ms_total else 0.0
    out["trace.step_coverage"] = (step_cov, "ratio")
    return out


def median(values):
    return statistics.median(values) if values else None


def fmt(value, unit):
    if value is None:
        return "n/a"
    return f"{value:.6g} {unit}".rstrip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gramalign" / "__init__.py").is_file():
        print(f"perfbench: no gramalign source tree at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    # Both are read once, at interpreter or BLAS start, so set them by re-executing.
    # A fixed hash seed removes the up to 1.8x spread in set-up time that Python's
    # per-process string hash randomisation causes between otherwise equal runs.
    pinned = {"PYTHONHASHSEED": "0"}
    pinned.update((var, str(len(os.sched_getaffinity(0)))) for var in BLAS_THREAD_VARS)
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **pinned})
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from gramalign import kernels
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(kernels, np, scipy)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("note: numba absent means every number comes from the NumPy kernel fallback;"
          " such runs are not comparable to numba runs" if not env["kernels_has_numba"] else
          "note: numba kernels active")

    # on SIGTERM, unwind: the finally below removes the work directory, and
    # subprocess.run kills a preparation child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    checks, ops, failed_ops = [], [], 0
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.prepare(ROOT, work, args.seed)

        setup_times = []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds:
            for _ in range(SETUP_REPS):  # spread over the run, so the median sees all of it
                t0 = time.perf_counter()
                state = call(tracer, "bench.setup", workload.setup, work, args.seed)
                setup_times.append(time.perf_counter() - t0)
            traced = tracer is not None and len(ops) % 2 == 1
            try:
                result = call(tracer if traced else None, "bench.op", workload.op, state, work,
                              len(ops))
            except Exception:
                traceback.print_exc()
                failed_ops += 1
                break
            ops.append((traced, result))

        results = [r for _, r in ops]
        if results:
            checks.append(("logged_values_finite", all(r.finite for r in results),
                           "every logged loss and metric is finite"))
            same = all(r.fingerprint == results[0].fingerprint for r in results)
            checks.append(("outputs_identical_across_ops", same and len(results) >= MIN_OPS,
                           f"{len(results)} ops with seed {args.seed}"))
            for name, ok, detail in workload.checks(state, results, args.seed):
                checks.append((name, bool(ok), detail))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = failed_ops + len(ops) + len(checks)
    failed = failed_ops + sum(not ok for _, ok, _ in checks)
    plain = [r for traced, r in ops if not traced]
    traced_ops = [r for traced, r in ops if traced]
    step_ms = [ms for r in plain for ms in r.step_ms]
    tail = percentile_tail(step_ms)
    figures = {
        "setup_s": (median(setup_times), "s"),
        "train_samples_per_s": (median([r.samples / r.train_s for r in plain]), "samples/s"),
        "ops_per_min": (median([60.0 / r.wall_s for r in plain]), "1/min"),
        "step_ms_p50": (median(step_ms), "ms"),
        "step_ms_tail": (tail[1] if tail else None, "ms"),  # percentile and count in the row
        "retrieve_s": (median([r.phases["retrieve_s"] for r in plain if r.phases]), "s"),
        "dti_s": (median([r.phases["dti_s"] for r in plain if r.phases]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
    }
    for key in ("align_gap", "retrieval_r1", "dti_auroc"):
        figures[key] = (median([r.quality[key] for r in plain if key in r.quality]), "")

    print(f"row: workload={workload.name} seed={args.seed} trace={args.trace} ops={len(ops)}  "
          + "  ".join(f"{k}={fmt(v, u)}" for k, (v, u) in figures.items())
          + (f"  (step_ms_tail is p{tail[0]:.4g} of {tail[2]} steps)" if tail else ""))
    for name, ok, detail in checks:
        print(f"check: {'PASS' if ok else 'FAIL'} {name}: {detail}")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "ops": [{"traced": t, "wall_s": r.wall_s, "samples": r.samples, "train_s": r.train_s,
                 "step_ms_p50": median(r.step_ms), **r.phases, **r.quality} for t, r in ops],
        "setup_s_all": setup_times,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    metrics = {}
    if args.trace:
        units = sum(r.units for r in traced_ops)
        step_total = sum(ms for r in traced_ops for ms in r.step_ms)
        if units:
            layer = per_layer_metrics(tracer, units, step_total)
            speed = median([r.samples / r.train_s for r in traced_ops])
            layer["trace.throughput_ratio"] = (speed / figures["train_samples_per_s"][0], "ratio")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"{workload.name}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["span_count"] = len(tracer.spans)
    else:
        metrics = {k: {"value": figures[k][0], "unit": u} for k, u in END_TO_END.items()}
    print("report: " + json.dumps(report, sort_keys=True))
    if not metrics or any(m["value"] is None for m in metrics.values()):
        print("perfbench: no operation completed, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
