"""Measure where a pre-training step's memory goes, at given widths and batch size.

Usage: python tools/stepmem.py [--src SRC] [--dims 768,768,768,1280]
       [--shared-dim 512] [--proj-hidden 768] [--ic50-hidden 512] [--batch-size 512]

SRC is the directory holding the ``gramalign`` package (default: ``src``
beside this file). The tool makes ``synth`` data of 2B quadruplets and
trains one epoch of two steps through ``trainer.train``. ``tracemalloc``
starts before the package is imported, so every figure includes the module
code, the tables and the model. It prints:

- the step-2 ``tracemalloc`` peak, from the start of step 2's
  ``train_step`` to its return, which includes its per-head Adam updates,
  and the stage that holds it;
- the peak of each stage of step 2. The stages are those of
  ``run.timing.jsonl``, told apart by the functions ``train_step`` calls:
  ``proj_forward`` (``project``), ``bimodal`` (``clip_bimodal``), ``ic50``
  (``ic50_forward``, ``ic50_loss`` and the step's first ``backward``),
  ``volume`` (``volume_contrastive``), ``proj_backward`` (the other
  ``backward`` calls) and ``adam`` (each ``adam_step``); ``other`` is the
  step's own code between those calls;
- the live bytes at the volume loss's entry in step 2, in all and grouped
  by the line that allocated them, largest first, with that line's text;
- the process's peak RSS.

MiB = 2**20 bytes. The defaults are the paper's widths and B=512.
"""

import tracemalloc

tracemalloc.start()

import argparse  # noqa: E402
import linecache  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIB = 2**20
TOP_LINES = 25
STAGES = ("proj_forward", "bimodal", "ic50", "volume", "proj_backward", "adam", "other")


def _where(frame):
    """``dir/file.py:line  source text`` of an allocating frame.

    Called after the measurement: linecache keeps each source file it reads.
    """
    text = linecache.getline(frame.filename, frame.lineno).strip()
    return f"{'/'.join(Path(frame.filename).parts[-2:])}:{frame.lineno}  {text[:60]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the gramalign package")
    parser.add_argument("--dims", default="768,768,768,1280",
                        help="SMILES, text, HTA and protein input widths")
    parser.add_argument("--shared-dim", type=int, default=512)
    parser.add_argument("--proj-hidden", type=int, default=768)
    parser.add_argument("--ic50-hidden", type=int, default=512)
    parser.add_argument("--batch-size", type=int, default=512)
    args = parser.parse_args(argv)
    dims = tuple(int(d) for d in args.dims.split(","))
    b = args.batch_size

    sys.path.insert(0, str(Path(args.src).resolve()))
    from gramalign import trainer
    from gramalign.data import synth_quadruplets

    tables, quads = synth_quadruplets(2 * b, dims, 0.05, seed=0)
    cfg = trainer.TrainConfig(batch_size=b, epochs=1, shared_dim=args.shared_dim,
                              proj_hidden=args.proj_hidden, ic50_hidden=args.ic50_hidden)
    step, live = [0], []
    # the stage step 2 is in (None outside step 2), its backward calls so far, and the
    # peak of each stage, taken at every boundary before the peak is reset
    now = {"stage": None, "backwards": 0}
    stage_peaks = {}

    def enter(stage):
        """Credit the peak since the last boundary to the stage being left; start ``stage``."""
        left = now["stage"]
        stage_peaks[left] = max(stage_peaks.get(left, 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        now["stage"] = stage

    def staged(fn, stage):
        def call(*a, **kw):
            if now["stage"] is None:
                return fn(*a, **kw)
            enter(stage() if callable(stage) else stage)
            try:
                return fn(*a, **kw)
            finally:
                enter("other")
        return call

    def backward_stage():
        now["backwards"] += 1
        return "ic50" if now["backwards"] == 1 else "proj_backward"

    def step_spy(*a, **kw):
        step[0] += 1
        if step[0] != 2:
            return train_step(*a, **kw)
        tracemalloc.reset_peak()
        now["stage"] = "other"
        try:
            return train_step(*a, **kw)
        finally:
            enter(None)

    def volume_spy(*a, **kw):
        if now["stage"] is not None:
            enter("volume")
            # the snapshot's own objects are dropped and the peak reset before the loss runs
            snap = tracemalloc.take_snapshot().filter_traces(
                (tracemalloc.Filter(False, tracemalloc.__file__),))
            stats = snap.statistics("lineno")
            live.append((sum(s.size for s in stats), len(stats),
                         [(s.size, s.traceback[0]) for s in stats[:TOP_LINES]]))
            del snap, stats
            tracemalloc.reset_peak()
            try:
                return volume(*a, **kw)
            finally:
                enter("other")
        return volume(*a, **kw)

    spies = {
        "train_step": step_spy,
        "volume_contrastive": volume_spy,
        "project": staged(trainer.project, "proj_forward"),
        "clip_bimodal": staged(trainer.clip_bimodal, "bimodal"),
        "ic50_forward": staged(trainer.ic50_forward, "ic50"),
        "ic50_loss": staged(trainer.ic50_loss, "ic50"),
        "backward": staged(trainer.backward, backward_stage),
        "adam_step": staged(trainer.adam_step, "adam"),
    }
    real = {name: getattr(trainer, name) for name in spies}
    train_step, volume = real["train_step"], real["volume_contrastive"]
    for name, spy in spies.items():
        setattr(trainer, name, spy)
    try:
        trainer.train(tables, quads, cfg)
    finally:
        for name, fn in real.items():
            setattr(trainer, name, fn)

    stage_peaks.pop(None, None)
    held = max(stage_peaks, key=stage_peaks.get)
    total, n_lines, top = live[0]
    print(f"dims {args.dims}, shared {args.shared_dim}, hidden {args.proj_hidden}, "
          f"ic50 hidden {args.ic50_hidden}, B={b}")
    print(f"step 2 tracemalloc peak: {stage_peaks[held] / MIB:.1f} MiB, in {held}")
    print("step 2 peak by stage:")
    for stage in STAGES:
        print(f"  {stage:<13} {stage_peaks[stage] / MIB:8.1f} MiB")
    print(f"live at the volume loss's entry, step 2: {total / MIB:.1f} MiB")
    for size, frame in top:
        print(f"  {size / MIB:8.2f} MiB  {_where(frame)}")
    rest = total - sum(size for size, _ in top)
    print(f"  {rest / MIB:8.2f} MiB  {n_lines - len(top)} other lines")
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
