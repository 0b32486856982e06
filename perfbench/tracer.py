"""Span tracer that wraps gramalign's public functions from outside the package.

Each wrapped call records one span ``[id, parent id, name, start, end]`` in
memory; the spans are written out once, when the run ends. A function is
wrapped where its caller looks it up (``gramalign.trainer.project`` rather
than ``gramalign.heads.project``, because ``trainer`` imported the name), so
nothing inside the package changes. A span name is ``<layer>.<function>``,
where the layer is the package module that defines the function. A span's
self time is its duration minus the part of it covered by its child spans.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end], ids in start order
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        self._warned = set()

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` by a traced version; skip names that do not exist.

        ``observe(counts, args, result)`` runs after the call, outside its
        span, to add exact counts such as pairs or bytes.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                try:
                    observe(self.counts, args, result)
                except Exception as e:  # a changed signature must not fail the op
                    if name not in self._warned:
                        self._warned.add(name)
                        print(f"perfbench: cannot count {name}: {e!r}", file=sys.stderr)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def unwrap_all(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")


def summarize(spans, root_name, step_names=()):
    """Per-name and per-layer totals over the subtrees of spans named ``root_name``.

    Returns a dict with ``incl`` (inclusive seconds by span name), ``self``
    (self seconds by span name), ``calls`` (by span name), ``layer_self``
    (self seconds by layer, the root spans excluded), ``step_layer_self``
    (the same, restricted to subtrees of spans named in ``step_names``),
    ``step_incl`` (inclusive seconds of those step spans) and ``root_s``
    (total duration of the roots).
    """
    n = len(spans)
    child = [0.0] * n
    root_of = [-1] * n
    in_step = [False] * n
    for sid, parent, name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
            root_of[sid] = root_of[parent]
            in_step[sid] = in_step[parent]
        if name == root_name:
            root_of[sid] = sid
        if name in step_names:
            in_step[sid] = True
    out = {
        "incl": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "layer_self": defaultdict(float),
        "step_layer_self": defaultdict(float),
        "step_incl": 0.0,
        "root_s": 0.0,
    }
    for sid, parent, name, t0, t1 in spans:
        if root_of[sid] < 0:
            continue
        dur = t1 - t0
        if sid == root_of[sid]:
            out["root_s"] += dur
            continue
        own = dur - child[sid]
        layer = name.split(".", 1)[0]
        out["incl"][name] += dur
        out["self"][name] += own
        out["calls"][name] += 1
        out["layer_self"][layer] += own
        if in_step[sid]:
            out["step_layer_self"][layer] += own
            if name in step_names:
                out["step_incl"] += dur
    return out
