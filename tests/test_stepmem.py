"""``tools/stepmem.py`` at desk size, in its own process as it is meant to run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_desk_run_reports_peak_live_lines_and_rss():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stepmem.py"), "--src", str(ROOT / "src"),
         "--dims", "8,8,8,12", "--shared-dim", "4", "--proj-hidden", "8",
         "--ic50-hidden", "8", "--batch-size", "16"],
        capture_output=True, text=True, check=True)
    out = proc.stdout
    peak, held = re.search(r"step 2 tracemalloc peak: ([\d.]+) MiB, in (\w+)", out).groups()
    peak = float(peak)
    # one line per stage of run.timing.jsonl, then the step's code between them
    stages = dict(re.findall(r"^  (\w+) +([\d.]+) MiB$", out, re.MULTILINE))
    assert list(stages) == ["proj_forward", "bimodal", "ic50", "volume", "proj_backward",
                            "adam", "other"]
    assert float(stages[held]) == peak == max(float(mib) for mib in stages.values())
    live = float(re.search(r"live at the volume loss's entry, step 2: ([\d.]+) MiB", out)[1])
    rss = float(re.search(r"peak RSS: ([\d.]+) MiB", out)[1])
    assert 0.0 < live <= peak < rss
    # at desk widths the module code outweighs every array, so the lines are not checked by name
    rows = re.findall(r"^ +([\d.]+) MiB  (.*)$", out, re.MULTILINE)
    sizes = [float(size) for size, _ in rows[:-1]]
    assert sizes and sizes == sorted(sizes, reverse=True)
    assert re.fullmatch(r"\d+ other lines", rows[-1][1])
    total = sum(sizes) + float(rows[-1][0])
    assert abs(total - live) <= 0.01 * len(rows)  # each printed to 0.01 MiB
