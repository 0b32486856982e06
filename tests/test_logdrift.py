"""``tools/logdrift.py`` on two hand-written run logs."""

import json
import math

import logdrift


def _records(ic50=0.5, dropped="hta"):
    step = {"kind": "step", "step": 0, "epoch": 0,
            "losses": {"volume": 2.0, "bimodal": 1.0, "ic50": ic50, "total": 3.5},
            "scheduler": {"branch": "argmin", "dropped": dropped, "anchor": "protein",
                          "gbar": [1.5, 0.1, 0.08, 1.6]},
            "grad_norms": [1.5, 0.1, 0.08, 1.6]}
    alignment = {"kind": "alignment", "epochs_done": 1, "mean_positive_volume": 0.25,
                 "mean_mismatch_volume": 0.75}
    return [step, alignment]


def _write(directory, records):
    path = directory / "run" / "run.log.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_one_ulp_drift_passes_and_is_reported(tmp_path, capsys):
    a = _write(tmp_path / "a", _records())
    up = math.nextafter(0.5, 1.0)
    b = _write(tmp_path / "b", _records(ic50=up))
    assert logdrift.main([str(a), str(b)]) == 0
    assert logdrift.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "0 step decision(s) differ" in out
    assert f"largest relative drift: {(up - 0.5) / up:.3g} (losses.ic50 in " in out


def test_changed_dropped_modality_fails(tmp_path, capsys):
    a = _write(tmp_path / "a", _records())
    b = _write(tmp_path / "b", _records(dropped="text"))
    assert logdrift.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "run/run.log.jsonl: 1 step decision(s) differ" in out
    assert "line 1: scheduler.dropped: 'hta' against 'text'" in out


def test_missing_record_or_key_fails(tmp_path):
    a = _write(tmp_path / "a", _records())
    shorter = _write(tmp_path / "b", _records()[:1])
    assert logdrift.main([str(a), str(shorter)]) == 1
    records = _records()
    del records[1]["mean_mismatch_volume"]
    other = _write(tmp_path / "c", records)
    assert logdrift.main([str(a), str(other)]) == 1
