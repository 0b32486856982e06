"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload pretrain-paper --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``perfbench/run.py`` once per seed, one after another, with the run
length from ``BENCHMARK.json``. For each end-to-end metric it prints the ten
(or however many) values, their median, and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. A spread must stay within its bound,
and below a third of it for the benchmark to count as steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < metric["bound"] / 3 or metric["name"] == "setup_s"
        steady &= ok
        print(f"{metric['name']:22s} median {med:.6g} {metric['unit']:10s} spread {spread:.4f} "
              f"bound {metric['bound']} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
