import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenbound.bounds as bounds
import greenbound.schur
from greenbound import ConvergenceFailure, GreenKernel
from greenbound.cli import main, make_grid

from conftest import random_dense, random_triangular, random_unitary

# `compare` CSV for the matrices used in this file, as printed by the
# per-time bound evaluation that the envelope table replaced
REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "cli_compare_reference.json").read_text()
)
REFERENCE_GRID = ("--t-min", "-3", "--t-max", "3", "--steps", "8")


def write_matrix(path, a):
    a = np.asarray(a, dtype=complex)
    obj = {
        "n": a.shape[0],
        "data": [[[z.real, z.imag] for z in row] for row in a],
    }
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append({
            k: (float(v) if v else None) for k, v in zip(header, cells)
        })
    return header, rows


def test_gaps_output(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, out, _ = run_cli(capsys, "gaps", path)
    assert code == 0
    assert "gamma_minus=1 gamma_plus=2 gamma=3 alpha=2 m=1 l=1" in out
    assert "eigenvalues:" in out


def test_exact_known_value(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, out, _ = run_cli(
        capsys, "exact", path, "--t-min", "0.5", "--t-max", "0.5",
        "--steps", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "exact_norm"]
    assert rows[0]["exact_norm"] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_compare_columns_and_ratio(tmp_path, capsys):
    a = [[-1.0, 1.0], [0.0, 2.0]]
    path = write_matrix(tmp_path / "m.json", a)
    code, out, _ = run_cli(
        capsys, "compare", path, "--t-min", "1.0", "--t-max", "1.0",
        "--steps", "1", "--norm", "inf",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "t", "exact_norm", "bound_triangular", "bound_entrywise_norm",
        "bound_vanloan", "bound_qtds18", "ratio_triangular",
    ]
    row = rows[0]
    # gaps 1 and 2, ||N||_inf = 1: bound = h(1)(1 + (1 + 2/3)) = (8/3) e^{-1};
    # exact inf-norm is the row sum (4/3) e^{-1}, so the ratio is exactly 2
    assert row["exact_norm"] == pytest.approx(
        (4.0 / 3.0) * math.exp(-1), rel=1e-9
    )
    assert row["bound_triangular"] == pytest.approx(
        (8.0 / 3.0) * math.exp(-1), rel=1e-12
    )
    assert row["ratio_triangular"] == pytest.approx(2.0, rel=1e-9)


def test_csv_floats_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(11)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 4))
    code, out, _ = run_cli(
        capsys, "exact", path, "--t-min", "0.2", "--t-max", "3.0",
        "--steps", "7",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        for cell in line.split(","):
            if cell:
                assert repr(float(cell)) == cell


def test_output_file(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    dest = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "bound", path, "--steps", "3", "--output", str(dest),
    )
    assert code == 0
    assert out == ""
    header, rows = parse_csv(dest.read_text())
    assert header[0] == "t" and len(rows) == 3


def test_bound_single_column(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, out, _ = run_cli(
        capsys, "bound", path, "--bound", "triangular", "--t-min", "1.0",
        "--t-max", "1.0", "--steps", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "bound_triangular"]
    assert rows[0]["bound_triangular"] == pytest.approx(math.exp(-1))


def test_straddling_grid_excludes_zero(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, out, _ = run_cli(
        capsys, "exact", path, "--t-min", "-2.0", "--t-max", "2.0",
        "--steps", "8",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 8
    assert all(row["t"] != 0.0 for row in rows)
    assert min(row["t"] for row in rows) < 0 < max(row["t"] for row in rows)


def test_make_grid_validation():
    grid = make_grid(-1.0, 1.0, 9)
    assert len(grid) == 9 and 0.0 not in grid
    assert np.all(np.diff(grid) > 0)


def test_dense_input_goes_through_schur(tmp_path, capsys):
    rng = np.random.default_rng(23)
    b = random_triangular(rng, 4)
    q = random_unitary(rng, 4)
    a = q @ b @ q.conj().T
    pa = write_matrix(tmp_path / "a.json", a)
    pb = write_matrix(tmp_path / "b.json", b)
    out_by_matrix = {}
    for label, path in (("a", pa), ("b", pb)):
        code, out, err = run_cli(
            capsys, "exact", path, "--t-min", "0.2", "--t-max", "4.0",
            "--steps", "10", "--norm", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        out_by_matrix[label] = rows
    for ra, rb in zip(out_by_matrix["a"], out_by_matrix["b"]):
        assert ra["exact_norm"] == pytest.approx(rb["exact_norm"], abs=1e-8)


def test_dense_input_forces_two_norm_with_note(tmp_path, capsys):
    rng = np.random.default_rng(29)
    q = random_unitary(rng, 3)
    a = q @ random_triangular(rng, 3) @ q.conj().T
    path = write_matrix(tmp_path / "a.json", a)
    code, out, err = run_cli(
        capsys, "exact", path, "--steps", "2", "--norm", "inf",
    )
    assert code == 0
    assert "two-norm forced" in err


def test_check_ok(tmp_path, capsys):
    rng = np.random.default_rng(31)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 3))
    code, out, _ = run_cli(
        capsys, "check", path, "--t-min", "-3.0", "--t-max", "3.0",
        "--steps", "12",
    )
    assert code == 0
    assert out.strip() == "ok"


def test_check_negative_control(tmp_path, capsys):
    rng = np.random.default_rng(37)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 3))
    code, out, _ = run_cli(
        capsys, "check", path, "--t-min", "-3.0", "--t-max", "3.0",
        "--steps", "12", "--bound-scale", "0.5",
    )
    assert code == 4
    assert out.startswith("violation:")


# a 2x2 matrix file whose entry (0, 1) is the given JSON text
ENTRY_01 = '{"n": 2, "data": [[[1, 0], %s], [[0, 0], [1, 0]]]}'


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    pytest.param(ENTRY_01 % '["1", 0]', id="string-entry"),
    pytest.param(ENTRY_01 % "[2]", id="one-number"),
    pytest.param(ENTRY_01 % "[2, 0, 5]", id="three-numbers"),
    pytest.param(ENTRY_01 % "[null, 0]", id="null-entry"),
    pytest.param('{"n": 2, "data": [[[1, 0], [0, 0]], [[1, 0]]]}',
                 id="ragged-row"),
])
def test_exit_code_parse_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "gaps", str(bad))
    assert code == 1 and "error:" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "exact", "/no/such/file.json")
    assert code == 1


@pytest.mark.parametrize("command", ["gaps", "compare"])
def test_exit_code_spectrum_on_axis(tmp_path, capsys, command):
    path = write_matrix(tmp_path / "m.json", np.diag([1j, -1.0]))
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2


def test_exit_code_bad_override(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, _, err = run_cli(
        capsys, "compare", str(path), "--gamma-minus", "5.0", "--steps", "2",
    )
    assert code == 3
    code, _, err = run_cli(
        capsys, "compare", str(path), "--gamma-plus", "-1.0", "--steps", "2",
    )
    assert code == 3


def test_override_widens_bound(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([-2.0, 3.0]))
    rows = {}
    for label, extra in (("full", []), ("narrow", ["--gamma-minus", "1.0"])):
        code, out, _ = run_cli(
            capsys, "bound", str(path), "--bound", "triangular",
            "--t-min", "1.0", "--t-max", "1.0", "--steps", "1", *extra,
        )
        assert code == 0
        rows[label] = parse_csv(out)[1][0]["bound_triangular"]
    assert rows["full"] == pytest.approx(math.exp(-2))
    assert rows["narrow"] == pytest.approx(math.exp(-1))


def test_console_script_entry_point(tmp_path):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "greenbound", "gaps", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gamma_minus=1" in proc.stdout


def test_import_leaves_test_only_scipy_modules_unloaded():
    code = (
        "import sys, greenbound; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.interpolate') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def assert_rows_close(rows, expected, columns, rel):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        for col in columns:
            if want[col] is None:
                assert row[col] is None
            else:
                assert row[col] == pytest.approx(want[col], rel=rel)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_tables_agree_with_reference(tmp_path, capsys, name):
    ref = REFERENCE[name]
    a = [[complex(re, im) for re, im in row] for row in ref["data"]]
    path = write_matrix(tmp_path / "m.json", a)
    for norm in ("inf", "2"):
        header, expected = parse_csv("\n".join(ref[norm]))
        code, out, _ = run_cli(capsys, "compare", path, "--norm", norm,
                               *REFERENCE_GRID)
        assert code == 0
        got_header, rows = parse_csv(out)
        assert got_header == header
        assert_rows_close(rows, expected, header, rel=1e-13)
        code, out, _ = run_cli(capsys, "bound", path, "--norm", norm,
                               *REFERENCE_GRID)
        assert code == 0
        got_header, rows = parse_csv(out)
        assert got_header == ["t"] + [c for c in header if c.startswith("bound_")]
        assert_rows_close(rows, expected, got_header, rel=1e-13)
        code, out, _ = run_cli(capsys, "check", path, "--norm", norm,
                               *REFERENCE_GRID)
        assert (code, out) == (0, "ok\n")


def test_check_large_triangular(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 200))
    code, out, _ = run_cli(
        capsys, "check", path, "--norm", "inf", "--t-min", "-10",
        "--t-max", "10", "--steps", "6",
    )
    assert code == 0
    assert out == "ok\n"


def _forbidden(*args, **kwargs):
    raise AssertionError("computed something the command does not print")


def test_each_command_computes_only_what_it_prints(tmp_path, capsys,
                                                   monkeypatch):
    rng = np.random.default_rng(43)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 4))
    grid = ("--t-min", "-2", "--t-max", "2", "--steps", "6", "--norm", "inf")
    with monkeypatch.context() as m:
        for name in ("envelope_table", "van_loan_grid", "qtds18_grid"):
            m.setattr(bounds, name, _forbidden)
        code, out, _ = run_cli(capsys, "exact", path, *grid)
        assert code == 0 and len(out.splitlines()) == 7
    with monkeypatch.context() as m:
        m.setattr(GreenKernel, "__init__", _forbidden)
        m.setattr(GreenKernel, "at", _forbidden)
        code, out, _ = run_cli(capsys, "bound", path, *grid)
        assert code == 0 and len(out.splitlines()) == 7
        m.setattr(bounds.EnvelopeTable, "matrix_series", _forbidden)
        code, _, _ = run_cli(capsys, "bound", path, "--bound", "triangular",
                             *grid)
        assert code == 0
    calls = []
    real_at = GreenKernel.at
    with monkeypatch.context() as m:
        m.setattr(GreenKernel, "at",
                  lambda self, t: calls.append(t) or real_at(self, t))
        code, out, _ = run_cli(capsys, "check", path, *grid)
        assert (code, out) == (0, "ok\n")
    assert len(calls) == len(set(calls)) == 6


def test_exit_code_library_failure(tmp_path, capsys, monkeypatch):
    def no_convergence(a):
        raise ConvergenceFailure("QR iteration did not converge\nin 30 steps")

    monkeypatch.setattr("greenbound.cli.schur_decompose", no_convergence)
    rng = np.random.default_rng(47)
    path = write_matrix(tmp_path / "a.json", random_dense(rng, 3))
    for command in ("gaps", "exact"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "did not converge" in err


def test_lapack_schur_failure_is_typed(tmp_path, capsys, monkeypatch):
    def no_schur(*args, **kwargs):
        raise np.linalg.LinAlgError("Schur form not found.\nIll-conditioned.")

    monkeypatch.setattr(greenbound.schur.scipy.linalg, "schur", no_schur)
    rng = np.random.default_rng(53)
    path = write_matrix(tmp_path / "a.json", random_dense(rng, 4))
    code, out, err = run_cli(capsys, "gaps", path)
    assert code == 5
    assert out == ""
    assert err.startswith("error: ConvergenceFailure: ")
    assert err.count("\n") == 1


def test_check_large_dense(tmp_path, capsys):
    rng = np.random.default_rng(59)
    path = write_matrix(tmp_path / "a.json",
                        random_dense(rng, 100) / np.sqrt(200.0))
    code, out, _ = run_cli(capsys, "check", path, "--t-min", "-10",
                           "--t-max", "10", "--steps", "40")
    assert code == 0
    assert out == "ok\n"
