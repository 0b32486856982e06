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
  and the stage that holds it. ``tracemalloc`` counts every thread's
  allocations, and the step holds at most one head's gradients per thread:
  where ``trainer.train`` hands its steps ``pinned_map``, as it does at the
  default widths, the projector backwards run as parallel tasks, each
  updating its own head;
- the peak of each stage of step 2. The stages are ``trainer.STEP_STAGES``,
  those of ``run.timing.jsonl``, and their boundaries are the marks
  ``train_step`` makes through its ``enter`` hook, which the tool fills for
  step 2; ``other`` is the step's own code between stages;
- the live bytes at the volume loss's entry in step 2, in all and grouped
  by the line that allocated them, largest first, with that line's text;
- the process's peak RSS (``trainer.peak_rss_bytes``), or "unknown" where
  the platform has no ``resource`` module.

MiB = 2**20 bytes. The defaults are the paper's widths and B=512.
"""

import tracemalloc

tracemalloc.start()

import argparse  # noqa: E402
import linecache  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIB = 2**20
TOP_LINES = 25


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
    # step 2's current stage and the peak of each stage, taken at every mark before
    # the peak is reset
    now = ["other"]
    stage_peaks = {}

    def enter(stage):
        """Credit the peak since the last mark to the stage being left; start ``stage``."""
        left = now[0]
        stage_peaks[left] = max(stage_peaks.get(left, 0), tracemalloc.get_traced_memory()[1])
        if stage == "volume":
            # the snapshot's own objects are dropped before the peak is reset
            snap = tracemalloc.take_snapshot().filter_traces(
                (tracemalloc.Filter(False, tracemalloc.__file__),))
            stats = snap.statistics("lineno")
            live.append((sum(s.size for s in stats), len(stats),
                         [(s.size, s.traceback[0]) for s in stats[:TOP_LINES]]))
            del snap, stats
        tracemalloc.reset_peak()
        now[0] = stage

    def step_spy(*a, **kw):
        step[0] += 1
        if step[0] != 2:
            return train_step(*a, **kw)
        tracemalloc.reset_peak()
        try:
            return train_step(*a, **{**kw, "enter": enter})
        finally:
            enter("other")

    train_step = trainer.train_step
    trainer.train_step = step_spy
    try:
        trainer.train(tables, quads, cfg)
    finally:
        trainer.train_step = train_step

    held = max(stage_peaks, key=stage_peaks.get)
    total, n_lines, top = live[0]
    print(f"dims {args.dims}, shared {args.shared_dim}, hidden {args.proj_hidden}, "
          f"ic50 hidden {args.ic50_hidden}, B={b}")
    print(f"step 2 tracemalloc peak: {stage_peaks[held] / MIB:.1f} MiB, in {held}")
    print("step 2 peak by stage:")
    for stage in (*trainer.STEP_STAGES, "other"):
        print(f"  {stage:<13} {stage_peaks[stage] / MIB:8.1f} MiB")
    print(f"live at the volume loss's entry, step 2: {total / MIB:.1f} MiB")
    for size, frame in top:
        print(f"  {size / MIB:8.2f} MiB  {_where(frame)}")
    rest = total - sum(size for size, _ in top)
    print(f"  {rest / MIB:8.2f} MiB  {n_lines - len(top)} other lines")
    rss = trainer.peak_rss_bytes()
    print("peak RSS: unknown" if rss is None else f"peak RSS: {rss / MIB:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
