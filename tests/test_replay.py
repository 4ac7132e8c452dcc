import copy
import importlib.util
import json
from pathlib import Path

import greenbound

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(greenbound.__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "replay", ROOT / "tools" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def test_replay_runs_each_call_and_reports_what_differs(tmp_path):
    numeric, boolean = replay.write_inputs(tmp_path)
    calls = replay.make_calls(numeric, boolean)
    # per input: gaps, then five commands at three norms with and without
    # --output; one solve per numeric input
    assert len(calls) == 31 * (len(numeric) + len(boolean)) + len(numeric)
    labels = ["gaps boolean-re",
              "check two-sided-3 --norm inf --output out.csv",
              "bounded_solution two-sided-3"]
    by_label = {call["label"]: call for call in calls}
    assert len(by_label) == len(calls)
    picked = [by_label[label] for label in labels]
    path = tmp_path / "calls.json"
    path.write_text(json.dumps(picked))
    results = replay.run_tree(SRC, path, tmp_path / "run")
    assert results[0]["code"] == 1
    assert results[0]["stderr"].startswith("error: cannot parse matrix file")
    assert results[1] == {"code": 0, "stdout": "", "stderr": "",
                          "output": "ok\n"}
    assert len(bytes.fromhex(results[2]["x"])) == 3 * 16  # x in C^3
    assert replay.differences(picked, results, results) == []
    changed = copy.deepcopy(results)
    changed[1]["output"] = "violation\n"
    changed[2]["x"] = "raised FloatOverflow: x"
    assert replay.differences(picked, results, changed) == [
        f"{labels[1]}: output line 1: 'ok' -> 'violation'",
        f"{labels[2]}: x line 1: {results[2]['x']!r} -> "
        "'raised FloatOverflow: x'"]
