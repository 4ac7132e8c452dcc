import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import greenbound
from greenbound.cli import Problem, make_grid

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
    # --output; per numeric input one solve and three green_function calls
    assert len(calls) == (31 * (len(numeric) + len(boolean))
                          + (1 + replay.GREEN_TIMES) * len(numeric))
    green = [call["label"] for call in calls
             if call["label"].startswith("green_function two-sided-3 ")]
    assert len(green) == replay.GREEN_TIMES == 3
    labels = ["gaps boolean-re",
              "check two-sided-3 --norm inf --output out.csv",
              "bounded_solution two-sided-3", green[0]]
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
    assert len(bytes.fromhex(results[3]["g"])) == 9 * 16  # G in C^(3x3)
    assert replay.differences(picked, results, results) == []
    changed = copy.deepcopy(results)
    changed[1]["output"] = "violation\n"
    changed[2]["x"] = "raised FloatOverflow: x"
    assert replay.differences(picked, results, changed) == [
        f"{labels[1]}: output line 1: 'ok' -> 'violation'",
        f"{labels[2]}: x line 1: {results[2]['x']!r} -> "
        "'raised FloatOverflow: x'"]


def test_replay_sizes_csv_tables_that_differ_by_numbers():
    table = "t,exact_norm,bound_qtds18\n-1.0,%s,\n1.0,2.0,%s\n"
    calls = [{"label": "compare a"}, {"label": "compare b --output out.csv"},
             {"label": "compare c"}]
    old = [{"code": 0, "stdout": table % ("1.0", "3.0")},
           {"code": 0, "stdout": "", "output": table % ("1.0", "3.0")},
           {"code": 0, "stdout": table % ("1.0", "3.0")}]
    new = [{"code": 0, "stdout": table % ("1.0000000000000002", "3.0")},
           {"code": 0, "stdout": "",
            "output": table % ("1.0000000000000004", "3.0")},
           {"code": 0, "stdout": table % ("inf", "")}]
    # numbers on both sides are sized per column, at the largest relative
    # difference; an inf or an empty cell is shown line by line
    assert replay.differences(calls, old, new) == [
        "compare c: stdout line 2: '-1.0,1.0,' -> '-1.0,inf,'",
        "column exact_norm: largest relative difference 4.44e-16 (2 ulps) "
        "in compare b --output out.csv"]


@pytest.mark.parametrize("p", [1, np.inf])
def test_entrywise_column_is_below_the_triangular_column(p):
    # || |N|^k ||_p <= ||N||_p^k for p = 1 and inf, so the norm of
    # E = sum_k W_k |N|^k is at most sum_k W_k ||N||_p^k on every
    # triangular input of the replay, one-sided, N x 1e4 and near-axis too
    ts = make_grid(-10.0, 10.0, 40)
    for label, a in replay.generated_inputs().items():
        if label.startswith("dense"):
            continue
        problem = Problem(a, p, ts)
        entrywise = np.asarray(problem.bound_entrywise_norm)
        assert (entrywise <= problem.bound_triangular
                * (1.0 + 1e-12)).all(), label
