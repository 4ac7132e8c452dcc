"""Replay the CLI, ``bounded_solution`` and ``green_function`` in two
source trees and print every difference.

    python tools/replay.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``greenbound`` package,
such as the ``src`` of two checkouts.  Each tree runs the same calls in its
own interpreter, with one BLAS thread, on the same input files:

* inputs: every matrix of ``tests/data/cli_compare_reference.json``, seeded
  triangular (two-sided, one-sided left and right, N x 1e4, near-axis) and
  dense matrices with n <= 80, two-sided n = 80 being two kernel times per
  block, a 3 x 3 triangular matrix whose gap sum gamma_minus + gamma_plus
  is 1e308, two triangular matrices with entries up to 1e300, beyond the
  balance's whole sweeps, which takes LAPACK zgebal's scales for them
  (D^-1 T D with D graded from 1e-150 to 1e150, n = 20, and N x 1e300,
  n = 8, where zgebal's bounds on a norm and on a scale act), and three
  files with a JSON boolean in ``data``;
* CLI calls on the 40-point grid from -10 to 10: ``gaps``, and ``exact``,
  ``bound --bound all``, ``compare``, ``check`` and ``check --bound-scale
  0.5`` at norms 1, 2 and inf, each with and without ``--output``;
* ``bounded_solution(a, f, t)`` on every numeric input, f(s) = e^{i w s} c
  with seeded w, c and t;
* ``green_function(a, t)`` on every numeric input at three seeded times.

A CLI call is compared by its exit code, stdout, stderr and ``--output``
file, a solve by the bytes of x or its exception, and a kernel call by the
bytes of G or its exception.  Each difference is
printed with the first line that differs, except that two CSV tables that
differ only by finite numbers are sized: each such CSV column gets one line
with its largest relative difference and the call that shows it.  The last
line counts the calls that differ.  The exit status is 0 when the trees
agree on every call and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REFERENCE = (Path(__file__).resolve().parents[1] / "tests" / "data"
             / "cli_compare_reference.json")
GRID = ["--t-min", "-10", "--t-max", "10", "--steps", "40"]
GREEN_TIMES = 3  # green_function calls per numeric input
OUTPUT = "out.csv"  # --output, relative to each tree's working directory
# a 2 x 2 file whose entry (0, 1) is the given JSON text
ENTRY_01 = '{"n": 2, "data": [[[1, 0], %s], [[0, 0], [1, 0]]]}'
BOOLEAN_FILES = {
    "boolean-re": ENTRY_01 % "[true, 0]",
    "boolean-im": ENTRY_01 % "[0, false]",
    "boolean-lower": ('{"n": 2, "data": [[[1, 0], [true, 0]], '
                      '[[0, 0], [-1, 0]]]}'),
}


def _cgauss(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _triangular(seed, n, side=0, gap=0.2, scale=1.0):
    """Upper triangular, Re of the diagonal at least gap from the axis: on
    both sides (side 0), all left (-1) or all right (+1); N times scale."""
    rng = np.random.default_rng(seed)
    mag = rng.uniform(gap, 2.0, n)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) if not side else side
    if not side and n > 1:
        signs[:2] = -1.0, 1.0
    nil = np.triu(_cgauss(rng, (n, n)), 1) * scale / math.sqrt(n)
    return np.diag(signs * mag + 1j * rng.uniform(-2.0, 2.0, n)) + nil


def _near_axis(seed, n):
    a = _triangular(seed, n)
    a[0, 0] = 1e-3 + 1j * a[0, 0].imag
    return a


def generated_inputs() -> dict:
    """Seeded matrices, n <= 80, and the huge-gaps matrix, by label."""
    inputs = {}
    for n in (1, 3, 8, 20, 50, 80):
        inputs[f"two-sided-{n}"] = _triangular(n, n)
    for n in (6, 20):
        inputs[f"left-{n}"] = _triangular(100 + n, n, side=-1)
        inputs[f"right-{n}"] = _triangular(200 + n, n, side=1)
    inputs["Nx1e4-12"] = _triangular(12, 12, scale=1e4)
    # entries up to 1e300: the balance takes LAPACK zgebal's scales
    grade = 10.0 ** np.linspace(-150, 150, 20)
    inputs["graded-1e150-20"] = _triangular(150, 20) * grade / grade[:, None]
    inputs["Nx1e300-8"] = _triangular(8, 8, scale=1e300)
    inputs["near-axis-20"] = _near_axis(20, 20)
    for n in (4, 8, 20, 50):
        rng = np.random.default_rng(300 + n)
        inputs[f"dense-{n}"] = _cgauss(rng, (n, n)) / math.sqrt(2.0 * n)
    # gaps of 5e307 on both sides: the gap sum times k leaves the float range
    inputs["huge-gaps-3"] = np.array([[-5e307, 1, 0], [0, 5e307, 1],
                                      [0, 0, -5e307]], dtype=complex)
    return inputs


def write_inputs(folder: Path) -> tuple[dict, dict]:
    """({label: path} of the numeric inputs, {label: path} of the boolean
    ones), written to folder."""
    numeric = {}
    reference = json.loads(REFERENCE.read_text())
    for i, (label, case) in enumerate(reference.items()):
        data = case["data"]
        path = folder / f"reference-{i}.json"
        path.write_text(json.dumps({"n": len(data), "data": data}))
        numeric[f"reference {label}"] = str(path)
    for label, a in generated_inputs().items():
        data = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        path = folder / f"{label}.json"
        path.write_text(json.dumps({"n": len(a), "data": data}))
        numeric[label] = str(path)
    boolean = {}
    for label, text in BOOLEAN_FILES.items():
        path = folder / f"{label}.json"
        path.write_text(text)
        boolean[label] = str(path)
    return numeric, boolean


def make_calls(numeric: dict, boolean: dict) -> list:
    """Every call of the replay, as JSON-ready dicts."""
    calls = []
    for label, path in {**numeric, **boolean}.items():
        calls.append({"label": f"gaps {label}", "argv": ["gaps", path]})
        for norm in ("1", "2", "inf"):
            for command in (["exact"], ["bound", "--bound", "all"],
                            ["compare"], ["check"],
                            ["check", "--bound-scale", "0.5"]):
                argv = command + [path] + GRID + ["--norm", norm]
                for output in ([], ["--output", OUTPUT]):
                    calls.append({"label": " ".join(
                        [*command, label, "--norm", norm, *output]),
                        "argv": argv + output})
    rng = np.random.default_rng(2009)
    for label, path in numeric.items():
        n = json.loads(Path(path).read_text())["n"]
        c = _cgauss(rng, n)
        calls.append({"label": f"bounded_solution {label}", "solve": path,
                      "omega": float(rng.uniform(-2.0, 2.0)),
                      "c": [[z.real, z.imag] for z in c.tolist()],
                      "t": float(rng.uniform(-5.0, 5.0))})
    rng = np.random.default_rng(1977)
    for label, path in numeric.items():
        for t in rng.uniform(-5.0, 5.0, GREEN_TIMES).tolist():
            calls.append({"label": f"green_function {label} t={t!r}",
                          "green": path, "t": t})
    return calls


def _run_cli(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback in a real run
            code = f"raised {type(exc).__name__}: {exc}"
    written = Path(OUTPUT)
    output = written.read_text() if written.exists() else None
    written.unlink(missing_ok=True)
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "output": output}


def _matrix(path) -> np.ndarray:
    data = np.array(json.loads(Path(path).read_text())["data"])
    return data[..., 0] + 1j * data[..., 1]


def _run_solve(bounded_solution, call) -> dict:
    a = _matrix(call["solve"])
    c = np.array([complex(*z) for z in call["c"]])
    omega = call["omega"]
    try:
        x = bounded_solution(a, lambda s: np.exp(1j * omega * s) * c,
                             call["t"])
        return {"x": x.tobytes().hex()}
    except Exception as exc:
        return {"x": f"raised {type(exc).__name__}: {exc}"}


def _run_green(green_function, call) -> dict:
    try:
        g = green_function(_matrix(call["green"]), call["t"])
        return {"g": g.tobytes().hex()}
    except Exception as exc:
        return {"g": f"raised {type(exc).__name__}: {exc}"}


def worker(calls_path: str, results_path: str) -> None:
    """Run the calls with the greenbound on sys.path; write the results."""
    import greenbound
    from greenbound import bounded_solution, green_function
    from greenbound.cli import main

    src = str(Path(greenbound.__file__).resolve().parents[1])
    results = []
    for call in json.loads(Path(calls_path).read_text()):
        # a fresh warnings registry per call, as a new process has
        with warnings.catch_warnings():
            if "argv" in call:
                result = _run_cli(main, call["argv"])
            elif "solve" in call:
                result = _run_solve(bounded_solution, call)
            else:
                result = _run_green(green_function, call)
        results.append({key: value.replace(src, "<src>")
                        if isinstance(value, str) else value
                        for key, value in result.items()})
    Path(results_path).write_text(json.dumps(results))


def run_tree(src: Path, calls_path: Path, workdir: Path) -> list:
    """The results of every call, run by a worker on the tree at src."""
    if not (src / "greenbound" / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no greenbound package")
    workdir.mkdir()
    results = workdir / "results.json"
    env = {**os.environ, "PYTHONPATH": str(src.resolve()),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--worker", str(calls_path), str(results)],
                   cwd=workdir, env=env, check=True)
    return json.loads(results.read_text())


def _first_difference(old, new) -> str:
    if not (isinstance(old, str) and isinstance(new, str)):
        return f"{old!r:.200} -> {new!r:.200}"
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}: {a[:200]!r} -> {b[:200]!r}"
    return f"{len(old_lines)} -> {len(new_lines)} lines"


def _numbers(old: str, new: str):
    """The (column, old, new) of every cell that differs between two CSV
    tables of the same header and shape, when each such pair is a pair of
    finite numbers; None otherwise."""
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    shape = [len(row) for row in old_rows]
    if (len(old_rows) < 2 or shape != [len(row) for row in new_rows]
            or len(set(shape)) != 1 or old_rows[0] != new_rows[0]):
        return None
    cells = []
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(old_rows[0], old_row, new_row):
            if a == b:
                continue
            try:
                a, b = float(a), float(b)
            except ValueError:
                return None
            if not (math.isfinite(a) and math.isfinite(b)):
                return None
            cells.append((column, a, b))
    return cells


def differences(calls, old_results, new_results) -> list:
    """One line per (call, field) whose value differs between the trees,
    except where two CSV tables differ only by finite numbers: those
    differences make one line per CSV column, with the largest relative
    difference |new - old| / |old| (and in units of the spacing of old,
    ulps) and the first call that shows it."""
    lines, columns = [], {}
    for call, old, new in zip(calls, old_results, new_results):
        for field in old:
            if old[field] == new[field]:
                continue
            cells = (_numbers(old[field], new[field])
                     if isinstance(old[field], str)
                     and isinstance(new[field], str) else None)
            if cells is None:
                lines.append(f"{call['label']}: {field} "
                             f"{_first_difference(old[field], new[field])}")
            for column, a, b in cells or ():
                rel = abs(b - a) / abs(a) if a else math.inf
                if rel > columns.get(column, (-1.0,))[0]:
                    ulps = abs(b - a) / np.spacing(abs(a))
                    columns[column] = (rel, ulps, call["label"])
    for column, (rel, ulps, label) in columns.items():
        lines.append(f"column {column}: largest relative difference "
                     f"{rel:.3g} ({ulps:.3g} ulps) in {label}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    old_src, new_src = map(Path, argv)
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        calls = make_calls(*write_inputs(tmp / "inputs"))
        calls_path = tmp / "calls.json"
        calls_path.write_text(json.dumps(calls))
        old = run_tree(old_src, calls_path, tmp / "old")
        new = run_tree(new_src, calls_path, tmp / "new")
    lines = differences(calls, old, new)
    for line in lines:
        print(line)
    differing = sum(a != b for a, b in zip(old, new))
    print(f"{len(calls)} calls, {differing} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
