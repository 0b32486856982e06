"""Compare the deterministic run logs of two training runs and report their float drift.

Usage: python tools/logdrift.py A B

A and B are two ``run.log.jsonl`` files, or two directories (say, two
``tools/walkthrough.py`` outputs) in which every ``run.log.jsonl`` is
compared with the one at the same relative path in the other. For each pair
it prints the largest relative drift |a - b| / max(|a|, |b|) of every float
key, list items folded into ``key[]``, and the number of step records whose
scheduler ``branch``, ``dropped`` or ``anchor`` differ. It exits 1 when the
record counts, key sets, non-float values or decisions differ, or a log
exists on one side only; otherwise 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

LOG_NAME = "run.log.jsonl"
DECISION_KEYS = ("branch", "dropped", "anchor")
SHOWN_PROBLEMS = 5


def compare(a, b, key, drift, problems):
    """Walk two decoded JSON values in step: floats add to ``drift``, all else must match."""
    if type(a) is float and type(b) is float:
        if a == b:
            rel = 0.0
        elif math.isfinite(a) and math.isfinite(b):
            rel = abs(a - b) / max(abs(a), abs(b))
        else:
            rel = math.inf
        drift[key] = max(drift.get(key, 0.0), rel)
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            problems.append(f"{key or 'record'}: keys {sorted(a.keys() ^ b.keys())} "
                            "on one side only")
        for k in a.keys() & b.keys():
            compare(a[k], b[k], f"{key}.{k}" if key else k, drift, problems)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{key}: {len(a)} items against {len(b)}")
        for x, y in zip(a, b):
            compare(x, y, f"{key}[]", drift, problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{key}: {a!r} against {b!r}")


def compare_logs(path_a, path_b):
    """(drift per key, step records whose decision differs, problem lines) of two logs."""
    recs_a, recs_b = ([json.loads(line) for line in Path(p).read_text().splitlines()]
                      for p in (path_a, path_b))
    drift, decisions, problems = {}, 0, []
    if len(recs_a) != len(recs_b):
        problems.append(f"{len(recs_a)} records against {len(recs_b)}")
    for n, (a, b) in enumerate(zip(recs_a, recs_b), 1):
        found = []
        compare(a, b, "", drift, found)
        problems += [f"line {n}: {p}" for p in found]
        if a.get("kind") == "step" == b.get("kind"):
            sched_a, sched_b = a.get("scheduler", {}), b.get("scheduler", {})
            decisions += any(sched_a.get(k) != sched_b.get(k) for k in DECISION_KEYS)
    return drift, decisions, problems


def log_pairs(a, b):
    """(label, path in A or None, path in B or None) for each log to compare."""
    if a.is_file() and b.is_file():
        return [(a.name, a, b)]
    found = [{p.relative_to(root): p for p in root.rglob(LOG_NAME)} for root in (a, b)]
    return [(str(rel), found[0].get(rel), found[1].get(rel))
            for rel in sorted(found[0].keys() | found[1].keys())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help=f"a {LOG_NAME} file or a directory holding some")
    parser.add_argument("b", type=Path, help="the file or directory to compare it with")
    args = parser.parse_args(argv)
    for p in (args.a, args.b):
        if not p.exists():
            parser.error(f"{p} does not exist")
    if args.a.is_file() != args.b.is_file():
        parser.error("compare two files or two directories")
    pairs = log_pairs(args.a, args.b)
    if not pairs:
        parser.error(f"no {LOG_NAME} under {args.a} or {args.b}")
    failed = False
    worst = (0.0, None, None)
    for label, pa, pb in pairs:
        if pa is None or pb is None:
            print(f"{label}: only in {args.a if pb is None else args.b}")
            failed = True
            continue
        drift, decisions, problems = compare_logs(pa, pb)
        print(f"{label}: {decisions} step decision(s) differ")
        for key in sorted(drift):
            print(f"  {key:<32} {drift[key]:.3g}")
            worst = max(worst, (drift[key], key, label), key=lambda w: w[0])
        for line in problems[:SHOWN_PROBLEMS]:
            print(f"  differs: {line}")
        if len(problems) > SHOWN_PROBLEMS:
            print(f"  ... and {len(problems) - SHOWN_PROBLEMS} more differences")
        failed = failed or decisions > 0 or bool(problems)
    if worst[1] is not None:
        print(f"largest relative drift: {worst[0]:.3g} ({worst[1]} in {worst[2]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
