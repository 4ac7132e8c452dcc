import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenbound.bounds as bounds
import greenbound.green
import greenbound.schur
from greenbound import GreenKernel, schur_decompose
from greenbound.cli import BOUND_COLUMNS, CliError, main, make_grid
from greenbound.matcore import induced_norm

from conftest import (random_dense, random_triangular, random_unitary,
                      scaled_nilpotent)

# `compare` CSV for the matrices used in this file, as printed by the
# per-time bound evaluation that the envelope table replaced.  The two-norm
# lines of triangular(11,4) and triangular(37,3) and both lines of
# dense(23,4) were refreshed for the SVD two-norm: the power iteration it
# replaced missed sigma_max by up to 5.1e-12 relative there, the SVD agrees
# with 40-digit mpmath to 1e-15.
REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "cli_compare_reference.json").read_text()
)
REFERENCE_GRID = ("--t-min", "-3", "--t-max", "3", "--steps", "8")

# child interpreters import the package from where this one found it
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(greenbound.__file__).parents[1]),
    os.environ.get("PYTHONPATH"),
]))}


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
    for t_min, t_max in ((math.nan, math.nan), (0.1, math.inf),
                         (-math.inf, 1.0)):
        with pytest.raises(CliError) as exc:
            make_grid(t_min, t_max, 1)
        assert exc.value.code == 1


NEAR_ZERO = "t-min and t-max are too close to 0 for a grid that straddles it"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["compare", "M", "--bogus"], None, id="unknown-option"),
    pytest.param([], None, id="no-arguments"),
    pytest.param(["compare", "M", "--norm", "3"], None, id="bad-norm"),
    pytest.param(["compare", "M", "--steps", "0"], "steps must be >= 1",
                 id="no-steps"),
    pytest.param(["compare", "M", "--t-min", "2", "--t-max", "1"],
                 "t-min must not exceed t-max", id="reversed-range"),
    pytest.param(["compare", "M", "--t-min", "0", "--t-max", "0"],
                 "grid may not contain t = 0", id="only-zero"),
    # |t| / 100 underflowed to 0 and geomspace raised a ValueError
    pytest.param(["compare", "M", "--t-min", "-1e-322", "--t-max", "1e-322",
                  "--steps", "4"], NEAR_ZERO, id="straddle-near-zero"),
    pytest.param(["check", "M", "--t-min", "-5e-324", "--t-max", "1",
                  "--steps", "4"], NEAR_ZERO, id="check-near-zero"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # argparse alone would exit 2, the code of an ill-posed spectrum
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    argv = [path if arg == "M" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("t_min, t_max, steps, times", [
    pytest.param("0", "10", "3", [0.01, 5.005, 10.0], id="from-zero"),
    pytest.param("-10", "0", "2", [-10.0, -0.01], id="to-zero"),
])
def test_grid_ending_at_zero_starts_a_thousandth_away(tmp_path, capsys,
                                                      t_min, t_max, steps,
                                                      times):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    code, out, _ = run_cli(capsys, "exact", path, "--t-min", t_min,
                           "--t-max", t_max, "--steps", steps)
    assert code == 0
    _, rows = parse_csv(out)
    assert [row["t"] for row in rows] == times


def test_non_finite_matrix_entry_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(ENTRY_01 % "[Infinity, 0]")
    code, out, err = run_cli(capsys, "gaps", str(path))
    assert (code, out, err) == (1, "", "error: matrix has non-finite entries\n")


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


def test_dense_input_prints_what_its_schur_form_prints(tmp_path, capsys):
    # the CLI reduces dense A to T = schur_decompose(A).t, bitwise
    a = random_dense(np.random.default_rng(130), 130)
    pa = write_matrix(tmp_path / "a.json", a)
    pt = write_matrix(tmp_path / "t.json", schur_decompose(a).t)
    grid = ("--t-min", "-2", "--t-max", "2", "--steps", "4", "--norm", "2")
    for command, args in (("gaps", ()), ("exact", grid), ("compare", grid)):
        code, out_a, _ = run_cli(capsys, command, pa, *args)
        assert code == 0
        code, out_t, _ = run_cli(capsys, command, pt, *args)
        assert code == 0
        assert out_a == out_t


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
    # a halved bound is flagged on dense input too: its two-norm bounds are
    # too loose for the halving to show, but |G(T)| <= E(T) is checked
    # entry by entry on its Schur form T
    rng = np.random.default_rng(37)
    for name, a in (("m", random_triangular(rng, 3)),
                    ("a", random_dense(rng, 6))):
        path = write_matrix(tmp_path / f"{name}.json", a)
        code, out, _ = run_cli(
            capsys, "check", path, "--t-min", "-3.0", "--t-max", "3.0",
            "--steps", "12", "--bound-scale", "0.5",
        )
        assert code == 4
        assert out.startswith("violation:")
    assert " entry=(" in out


def test_check_entrywise_margin_is_relative(tmp_path, capsys):
    # |G(25)| and the halved bound are both below 1e-10 on entry (0, 0),
    # where an absolute slack of 1e-10 let the corrupted bound pass
    path = write_matrix(tmp_path / "m.json", [[-1.0, 1.0], [0.0, -2.0]])
    code, out, _ = run_cli(
        capsys, "check", path, "--t-min", "25", "--t-max", "25", "--steps",
        "1", "--norm", "inf", "--bound-scale", "0.5",
    )
    assert code == 4
    assert out.startswith("violation: t=25.0 entry=(0,0) ")


def test_check_reports_the_violating_entry_first_in_row_major_order(
        tmp_path, capsys):
    # on t > 0, |G| / E is 1 on (1, 1) and (2, 2), (1 - e^-t) / t on (0, 2)
    # and e^-t on (0, 0), and every norm bound is above 1 / 0.93 of ||G||:
    # at t = 0.1 a 0.93 bound fails on those three entries and no norm.
    # (1, 1) comes first superdiagonal by superdiagonal, (0, 2) row by row
    a = np.array([[-2.0, 0.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    path = write_matrix(tmp_path / "m.json", a)
    scale = 0.93
    code, out, _ = run_cli(capsys, "check", path, "--norm", "inf",
                           "--bound-scale", str(scale))
    ts = make_grid(0.1, 10.0, 40)
    g = np.abs(GreenKernel(a).block(ts))
    e = bounds.envelope_table(3, 1.0, math.inf, ts).matrix_series(
        np.abs(np.triu(a, 1)))
    bad = g > e * scale * (1 + 1e-9)
    first = np.flatnonzero(bad.any(axis=(1, 2)))[0]
    assert ts[first] == 0.1
    assert np.argwhere(bad[first]).tolist() == [[0, 2], [1, 1], [2, 2]]
    r, c = np.argwhere(bad[first])[0]
    assert code == 4
    assert out == (f"violation: t=0.1 entry=({r},{c}) "
                   f"exact={float(g[first, r, c])!r} "
                   f"bound_entrywise={float(e[first, r, c] * scale)!r}\n")


def test_check_with_a_bound_scale_beyond_the_float_range_is_quiet(
        tmp_path, capsys):
    # the scaled bounds overflow to inf, which bounds every norm and entry,
    # with no numpy overflow warning on stderr
    path = write_matrix(tmp_path / "m.json",
                        random_triangular(np.random.default_rng(8), 8))
    code, out, err = run_cli(capsys, "check", path, "--norm", "1",
                             "--bound-scale", "1e300")
    assert (code, out, err) == (0, "ok\n", "")


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_check_rejects_a_bound_scale_that_checks_nothing(tmp_path, capsys,
                                                         scale):
    # every comparison with a NaN or inf threshold is False, so these
    # printed ok; 0 and negative scales turn every bound into a violation
    path = write_matrix(tmp_path / "m.json", [[-1.0, 1.0], [0.0, 2.0]])
    code, out, err = run_cli(capsys, "check", path, "--bound-scale", scale)
    assert (code, out) == (1, "")
    assert err.startswith("error: --bound-scale must be finite and > 0")
    assert err.count("\n") == 1


def test_check_reports_the_first_violation_in_grid_order(tmp_path, capsys):
    # the eight times are one kernel block, checked at once: the entrywise
    # bound fails from the first time on and the norm bounds from the sixth,
    # and the earlier violation is the one reported
    path = write_matrix(tmp_path / "m.json",
                        random_triangular(np.random.default_rng(0), 2))
    grid = make_grid(-10.0, -0.1, 8)
    argv = ("check", path, "--norm", "inf", "--bound-scale", "0.5")
    code, out, _ = run_cli(capsys, *argv, "--t-min", "-10", "--t-max",
                           "-0.1", "--steps", "8")
    assert code == 4 and out.startswith("violation: t=-10.0 entry=(")
    for t, verdict in ((float(grid[4]), "entry=("),
                       (float(grid[5]), "exact=")):
        code, out, _ = run_cli(capsys, *argv, "--t-min", repr(t), "--t-max",
                               repr(t), "--steps", "1")
        assert code == 4 and out.startswith(f"violation: t={t!r} {verdict}")


def test_check_reports_a_violating_entry_in_a_later_kernel_block(
        tmp_path, capsys):
    # left eigenvalues 10 and 30 sit exactly at the gap, so |G_ii| = E_ii
    # for t > 0; the halved gamma_plus keeps |G| / E below 0.99 at t < 0.
    # A bound scale just below 1 then fails those two entries first at the
    # first t > 0, grid index 20, in the fourth kernel block of six times
    a = random_triangular(np.random.default_rng(0), 50)
    d = np.diag(a)
    re = np.where(d.real < 0, d.real - 0.5, d.real)
    re[[10, 30]] = -0.5
    a[np.diag_indices(50)] = re + 1j * d.imag
    gamma_plus = float(re[re > 0].min()) / 2
    path = write_matrix(tmp_path / "m.json", a)
    scale = 0.999999
    code, out, _ = run_cli(capsys, "check", path, "--norm", "inf",
                           "--t-min", "-10", "--t-max", "10", "--gamma-plus",
                           repr(gamma_plus), "--bound-scale", str(scale))
    ts = make_grid(-10.0, 10.0, 40)
    g = np.abs(GreenKernel(a).block(ts))
    e = bounds.envelope_table(50, 0.5, gamma_plus, ts).matrix_series(
        np.abs(np.triu(a, 1)))
    bad = g > e * scale * (1 + 1e-9)
    first = np.flatnonzero(bad.any(axis=(1, 2)))[0]
    assert first == 20 and ts[first] == 0.1
    assert first // (greenbound.green.KERNEL_BLOCK // 50 ** 2) == 3
    assert np.argwhere(bad[first]).tolist() == [[10, 10], [30, 30]]
    assert code == 4
    assert out == (f"violation: t=0.1 entry=(10,10) "
                   f"exact={float(g[first, 10, 10])!r} "
                   f"bound_entrywise={float(e[first, 10, 10] * scale)!r}\n")


@pytest.mark.parametrize("scale, code, verdict", [
    ("1.0", 0, "ok\n"),
    ("0.5", 4, "violation: "),
])
def test_check_output_file(tmp_path, capsys, scale, code, verdict):
    rng = np.random.default_rng(37)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 3))
    dest = tmp_path / "verdict.txt"
    got, out, _ = run_cli(
        capsys, "check", path, "--t-min", "-3.0", "--t-max", "3.0",
        "--steps", "12", "--bound-scale", scale, "--output", str(dest),
    )
    assert (got, out) == (code, "")
    text = dest.read_text()
    assert text.startswith(verdict) and text.count("\n") == 1


@pytest.mark.parametrize("command", ["compare", "check"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    dest = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, command, path, "--steps", "2",
                             "--output", str(dest))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {dest}: ")
    assert err.count("\n") == 1


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
    pytest.param('{"n": true, "data": [[[-1.0, 0.0]]]}', id="boolean-n"),
    pytest.param('{"n": 1, "data": [[[true, false]]]}', id="boolean-data"),
    pytest.param(ENTRY_01 % "[true, 0]", id="boolean-re"),
    pytest.param(ENTRY_01 % "[0, false]", id="boolean-im"),
    pytest.param('{"n": 0, "data": []}', id="zero-n"),
    pytest.param('{"n": 2.5, "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
                 id="fractional-n"),
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


@pytest.mark.parametrize("command", ["gaps", "exact", "compare", "check"])
def test_exit_code_eigenvalue_on_axis_to_schur_accuracy(tmp_path, capsys,
                                                        command):
    # Re 1e-9 is below Schur's backward error, 1e-12 times 1e4, and the
    # computed T puts it left of the axis: a split read off that T is
    # m=2 l=0, where the eigenvalues 1e-9 and -1 split m = 1, l = 1
    q = np.linalg.qr(random_dense(np.random.default_rng(0), 2))[0]
    a = q @ np.array([[1e-9, 1e4], [0.0, -1.0]]) @ q.conj().T
    path = write_matrix(tmp_path / "a.json", a)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dense_input_is_reduced_once_through_the_schur_module(
        tmp_path, capsys, monkeypatch):
    # the CLI's one reduction calls greenbound.schur.schur_decompose by its
    # module attribute, where a wrapper bound there sees it, and asks for T
    # alone
    calls = []
    decompose = greenbound.schur.schur_decompose

    def record(a, vectors=True):
        calls.append(vectors)
        return decompose(a, vectors)

    monkeypatch.setattr(greenbound.schur, "schur_decompose", record)
    path = write_matrix(tmp_path / "a.json",
                        random_dense(np.random.default_rng(31), 5))
    code, out, _ = run_cli(capsys, "gaps", path)
    assert code == 0 and out.startswith("eigenvalues:")
    assert calls == [False]


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
    one_sided = write_matrix(tmp_path / "l.json", [[-1.0, 1.0], [0.0, -2.0]])
    for matrix, flag in ((path, "--gamma-minus"), (path, "--gamma-plus"),
                         (one_sided, "--gamma-minus")):
        code, out, _ = run_cli(
            capsys, "compare", str(matrix), flag, "nan", "--norm", "inf",
            "--steps", "2",
        )
        assert (code, out) == (3, "")


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


@pytest.mark.parametrize("a", [
    pytest.param([[-1, 1, 1], [0, -2, 1], [0, 0, -3]], id="left"),
    pytest.param([[1, 1, 1], [0, 2, 1], [0, 0, 3]], id="right"),
])
def test_van_loan_is_the_one_sided_triangular_bound(tmp_path, capsys, a):
    # on a one-sided spectrum Van Loan's sum is the triangular bound at the
    # maximal gap; a gap override narrows the strip of the triangular bound
    # only, so it can only widen that column
    path = write_matrix(tmp_path / "m.json", a)
    grid = ("--t-min", "-10", "--t-max", "10", "--steps", "40",
            "--norm", "inf")
    tables = {}
    for flag in (None, "--gamma-minus", "--gamma-plus"):
        extra = () if flag is None else (flag, "0.05")
        code, out, _ = run_cli(capsys, "compare", path, *grid, *extra)
        assert code == 0
        header, *lines = out.splitlines()
        names = header.split(",")
        tables[flag] = [dict(zip(names, ln.split(","))) for ln in lines]
    plain = tables[None]
    decaying = [r for r in plain if (float(r["t"]) > 0) == (a[0][0] < 0)]
    assert len(decaying) == 20
    assert all(r["bound_vanloan"] == r["bound_triangular"] for r in decaying)
    assert sum(r["bound_vanloan"] == "" for r in plain) == 20
    for flag in ("--gamma-minus", "--gamma-plus"):
        rows = tables[flag]
        assert [r["bound_vanloan"] for r in rows] == \
            [r["bound_vanloan"] for r in plain]
        assert all(float(r["bound_vanloan"]) <= float(r["bound_triangular"])
                   for r in rows if r["bound_vanloan"])


def test_console_script_entry_point(tmp_path):
    path = write_matrix(tmp_path / "m.json", np.diag([-1.0, 2.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "greenbound", "gaps", path],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "gamma_minus=1" in proc.stdout


def test_import_leaves_test_only_scipy_modules_unloaded():
    code = (
        "import sys, greenbound; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.interpolate', "
        "'scipy.special', 'scipy.integrate', 'mpmath') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


# run with argv [block or run, matrix file]: each CLI command's stdout,
# bounded_solution and green_function's bytes, then the exit codes; with
# block, a meta path finder makes every import of scipy raise
SCIPY_BLOCKED_CHILD = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
import numpy as np
from greenbound import bounded_solution, green_function
from greenbound.cli import load_matrix, main

path = sys.argv[2]
grid = ["--t-min", "-2", "--t-max", "2", "--steps", "6"]
codes = []
for argv in (["gaps", path], ["exact", path, *grid],
             ["bound", path, *grid], ["compare", path, *grid],
             ["check", path, *grid], ["check", path, *grid, "--norm", "1"]):
    codes.append(main(argv))
a = load_matrix(path)
x = bounded_solution(a, lambda s: np.exp(1j * s) * np.ones(len(a)), 0.3)
print(x.tobytes().hex(), green_function(a, -0.7).tobytes().hex())
print(codes)
"""


def test_triangular_input_runs_without_scipy(tmp_path):
    # the balancing is in house, so a triangular input never imports scipy;
    # a dense one loads scipy.linalg for its Schur form
    rng = np.random.default_rng(67)
    path = write_matrix(tmp_path / "t.json", random_triangular(rng, 5))
    runs = [subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_CHILD, mode, path],
        capture_output=True, text=True, env=CHILD_ENV)
        for mode in ("block", "run")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"
    dense = write_matrix(tmp_path / "a.json", random_dense(rng, 4))
    code = ("import sys; from greenbound.cli import main; "
            f"main(['gaps', {dense!r}]); "
            "print('scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "True"


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
    code, out, err = run_cli(
        capsys, "check", path, "--norm", "inf", "--t-min", "-10",
        "--t-max", "10", "--steps", "6",
    )
    assert code == 0
    assert out == "ok\n"
    # bound_entrywise_norm is finite at every t, so check notes nothing
    assert err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entrywise_row_sums_overflow_quietly(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 320))
    code, out, err = run_cli(
        capsys, "bound", path, "--bound", "entrywise", "--norm", "inf",
        "--t-min", "3", "--t-max", "3", "--steps", "1",
    )
    assert (code, out, err) == (0, "t,bound_entrywise_norm\n3.0,inf\n", "")


@pytest.mark.parametrize("norm", ["1", "inf"])
def test_check_unpacks_each_block_of_e_once(tmp_path, capsys, monkeypatch,
                                            norm):
    # E's norm column is read off the blocks of E that the entry compare
    # unpacks: seven kernel blocks of 40 times at n = 50, seven unpacks
    unpacked = []
    unpack = bounds.unpack

    def record(sums, layout, size):
        unpacked.append(len(sums))
        return unpack(sums, layout, size)

    monkeypatch.setattr(bounds, "unpack", record)
    a = random_triangular(np.random.default_rng(50), 50)
    path = write_matrix(tmp_path / "m.json", a)
    code, out, _ = run_cli(capsys, "check", path, "--norm", norm,
                           "--t-min", "-10", "--t-max", "10")
    assert (code, out) == (0, "ok\n")
    assert unpacked == [6, 6, 6, 6, 6, 6, 4]


@pytest.mark.parametrize("command", [
    ("compare", "--norm", "inf"),
    ("compare", "--norm", "1"),
    ("bound", "--bound", "entrywise", "--norm", "1"),
])
def test_entrywise_column_is_the_norm_of_each_full_matrix(tmp_path, capsys,
                                                          command):
    # n = 50 takes the 40 times in seven kernel blocks; every cell is the
    # induced norm of that time's full E, to the last bit
    a = random_triangular(np.random.default_rng(50), 50)
    split = greenbound.green.spectral_gaps(a)
    assert split.m and split.l
    assert -(-40 // (greenbound.green.KERNEL_BLOCK // 50 ** 2)) == 7
    path = write_matrix(tmp_path / "m.json", a)
    code, out, _ = run_cli(capsys, command[0], path, "--t-min", "-10",
                           "--t-max", "10", *command[1:])
    ts = make_grid(-10.0, 10.0, 40)
    e = bounds.envelope_table(50, split.gamma_minus, split.gamma_plus,
                              ts).matrix_series(np.abs(np.triu(a, 1)))
    p = math.inf if command[-1] == "inf" else 1
    lines = out.splitlines()
    column = lines[0].split(",").index("bound_entrywise_norm")
    assert code == 0 and len(lines) == 41
    assert [line.split(",")[column] for line in lines[1:]] == [
        repr(induced_norm(x, p)) for x in e]


def _forbidden(*args, **kwargs):
    raise AssertionError("computed something the command does not print")


def test_each_command_computes_only_what_it_prints(tmp_path, capsys,
                                                   monkeypatch):
    rng = np.random.default_rng(43)
    path = write_matrix(tmp_path / "m.json", random_triangular(rng, 4))
    grid = ("--t-min", "-2", "--t-max", "2", "--steps", "6", "--norm", "inf")
    with monkeypatch.context() as m:
        for name in ("envelope_table", "qtds18_grid"):
            m.setattr(bounds, name, _forbidden)
        # an inf-norm takes no bases for the two-norm's rank-r core
        m.setattr(GreenKernel, "_core_bases", _forbidden)
        code, out, _ = run_cli(capsys, "exact", path, *grid)
        assert code == 0 and len(out.splitlines()) == 7
    with monkeypatch.context() as m:
        for name in ("__init__", "at", "block"):
            m.setattr(GreenKernel, name, _forbidden)
        code, out, _ = run_cli(capsys, "bound", path, *grid)
        assert code == 0 and len(out.splitlines()) == 7
        m.setattr(bounds.EnvelopeTable, "packed_series", _forbidden)
        code, _, _ = run_cli(capsys, "bound", path, "--bound", "triangular",
                             *grid)
        assert code == 0
    times = []  # every time handed to the block evaluator
    real_evaluate = GreenKernel._evaluate
    with monkeypatch.context() as m:
        m.setattr(GreenKernel, "_evaluate",
                  lambda self, ts: times.extend(ts) or real_evaluate(self, ts))
        m.setattr(GreenKernel, "_core_bases", _forbidden)
        code, out, _ = run_cli(capsys, "check", path, *grid)
        assert (code, out) == (0, "ok\n")
    assert len(times) == len(set(times)) == 6
    # every number printed for dense input depends on T alone: Q is never
    # built; only check, which tests |G(T)| <= E(T), builds E(T)
    compute_v = {}  # command -> compute_v of each gees call
    series = []  # the command of each packed_series call
    real_series = bounds.EnvelopeTable.packed_series
    dense = write_matrix(tmp_path / "a.json", random_dense(rng, 6))
    for command in ("gaps", "exact", "compare", "check"):
        calls = compute_v[command] = []

        def record(gees, calls=calls):
            def gees_logged(*args, compute_v=1, **kwargs):
                calls.append(compute_v)
                return gees(*args, compute_v=compute_v, **kwargs)
            return gees_logged

        def series_logged(self, nabs, command=command):
            series.append(command)
            return real_series(self, nabs)

        with monkeypatch.context() as m:
            _lapack_gees(m, record)
            m.setattr(bounds.EnvelopeTable, "packed_series", series_logged)
            args = () if command == "gaps" else grid[:-2]
            code, _, _ = run_cli(capsys, command, dense, *args)
            assert code == 0
    assert all(calls and not any(calls) for calls in compute_v.values())
    assert series == ["check"]


def _log_solver_shapes(monkeypatch) -> dict:
    """Record the shape of every array whose SVD is taken, numpy's two-norm
    and numpy.linalg.svd, under "svd", and of every Hermitian eigensolve,
    numpy.linalg.eigvalsh, under "eigvalsh"."""
    shapes = {"svd": [], "eigvalsh": []}
    norm, svd, eigvalsh = np.linalg.norm, np.linalg.svd, np.linalg.eigvalsh

    def logged_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            shapes["svd"].append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def logged_svd(a, *args, **kwargs):
        shapes["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    def logged_eigvalsh(a, *args, **kwargs):
        shapes["eigvalsh"].append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", logged_norm)
    monkeypatch.setattr(np.linalg, "svd", logged_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", logged_eigvalsh)
    return shapes


def _stacked_counts(shapes) -> dict:
    """{r: count} over stacks of r x r matrices."""
    counts = {}
    for count, rows, cols in shapes:
        assert rows == cols
        counts[rows] = counts.get(rows, 0) + count
    return counts


def test_two_norm_of_g_takes_eigensolves_of_its_rank_r_gram(tmp_path,
                                                            capsys,
                                                            monkeypatch):
    # G(t) has rank m for t > 0 and l for t < 0: each time takes one m x m
    # or l x l Hermitian eigensolve, in stacks, and the only SVDs are the
    # n x n ones of norm(N) and norm(T); with the spectrum on one side G is
    # n x n there, with its own SVD, and 0 on the other, with neither
    n, rng = 12, np.random.default_rng(12)
    two = random_triangular(rng, n)
    m = int((np.diag(two).real < 0).sum())
    one = two - 2.0 * np.diag(np.maximum(np.diag(two).real, 0.0))
    assert 0 < m < n and m != n - m
    for a, svds, eigensolves in ((two, {}, {m: 20, n - m: 20}),
                                 (one, {n: 20}, {})):
        path = write_matrix(tmp_path / "m.json", a)
        with monkeypatch.context() as patch:
            shapes = _log_solver_shapes(patch)
            code, _, _ = run_cli(capsys, "compare", path, "--norm", "2",
                                 "--t-min", "-10", "--t-max", "10")
        assert code == 0
        single = [s for s in shapes["svd"] if len(s) == 2]
        assert single == [(n, n)] * (2 if a is two else 1)
        stacked = [s for s in shapes["svd"] if len(s) == 3]
        assert len(single) + len(stacked) == len(shapes["svd"])
        assert _stacked_counts(stacked) == svds
        assert all(len(s) == 3 for s in shapes["eigvalsh"])
        assert _stacked_counts(shapes["eigvalsh"]) == eigensolves


# row 0 of P- is (1, c / 0.02, c / 0.02), so G(t) has two entries near
# 50 c for small |t|: its norm is 7.07e307 at c = 1e306 and beyond the
# float range at c = 3e306
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e306, 3e306])
def test_exact_norm_at_the_edge_of_the_float_range(tmp_path, capsys, c):
    a = np.array([[-0.01, c, c], [0, 0.01, 0], [0, 0, 0.01]])
    path = write_matrix(tmp_path / "m.json", a)
    code, out, err = run_cli(capsys, "exact", path, "--t-min", "-0.5",
                             "--t-max", "0.5", "--steps", "4")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    ts = np.array([row["t"] for row in rows])
    with np.errstate(over="ignore"):
        full = np.linalg.norm(GreenKernel(a).block(ts), 2, axis=(1, 2))
    exact = np.array([row["exact_norm"] for row in rows])
    if c < 2e306:
        assert np.isfinite(full).all() and full.min() > 7e307
        np.testing.assert_allclose(exact, full, rtol=1e-14)
    else:
        assert (full == math.inf).all()
        assert all(line.endswith(",inf") for line in out.splitlines()[1:])


def test_compare_ratio_of_two_infinite_norms_is_a_quiet_nan(tmp_path,
                                                            capsys):
    # exact_norm and bound_triangular are both inf, and their ratio is nan,
    # with no numpy invalid-value warning on stderr
    a = [[-0.01, 3e306, 3e306], [0, 0.01, 0], [0, 0, 0.01]]
    path = write_matrix(tmp_path / "m.json", a)
    code, out, err = run_cli(capsys, "compare", path, "--norm", "2")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert len(rows) == 40
    for row in rows:
        assert row["exact_norm"] == row["bound_triangular"] == math.inf
        assert math.isnan(row["ratio_triangular"])


def test_exit_code_library_failure(tmp_path, capsys, monkeypatch):
    _no_schur(monkeypatch)
    rng = np.random.default_rng(47)
    path = write_matrix(tmp_path / "a.json", random_dense(rng, 3))
    for command in ("gaps", "exact"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "did not converge" in err


def _lapack_gees(monkeypatch, wrap):
    """Hand the Schur reduction ``wrap(gees)`` for LAPACK's ``gees``."""
    lapack = greenbound.schur.lapack

    def lapack_wrapped(name, a):
        func = lapack(name, a)
        return wrap(func) if name == "gees" else func

    monkeypatch.setattr(greenbound.schur, "lapack", lapack_wrapped)


def _no_schur(monkeypatch):
    def no_convergence(gees):
        def fails(*args, **kwargs):
            return (*gees(*args, **kwargs)[:-1], 1)  # info = 1
        return fails

    _lapack_gees(monkeypatch, no_convergence)


def _no_svd(monkeypatch):
    norm = np.linalg.norm

    def no_svd(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", no_svd)


@pytest.mark.parametrize("break_lapack, command", [
    pytest.param(_no_schur, "gaps", id="schur"),
    pytest.param(_no_svd, "compare", id="svd"),
])
def test_lapack_failure_is_typed(tmp_path, capsys, monkeypatch, break_lapack,
                                 command):
    break_lapack(monkeypatch)
    rng = np.random.default_rng(53)
    path = write_matrix(tmp_path / "a.json", random_dense(rng, 4))
    code, out, err = run_cli(capsys, command, path)
    assert code == 5
    assert out == ""
    assert err.startswith("error: ConvergenceFailure: ")
    assert err.count("\n") == 1


def test_compare_on_triangular_input_takes_no_lu(tmp_path, capsys,
                                                 monkeypatch):
    # T's sign is direct and the kernel's balancing in house, so LAPACK is
    # asked for nothing: no Schur reduction, balancing (gebal), LU (getrf,
    # getri) or inverse (trtri)
    lapack = greenbound.schur.lapack
    asked = []

    def record(name, a):
        asked.append(name)
        return lapack(name, a)

    monkeypatch.setattr(greenbound.schur, "lapack", record)
    rng = np.random.default_rng(61)
    path = write_matrix(tmp_path / "t.json", random_triangular(rng, 12))
    code, out, err = run_cli(capsys, "compare", path)
    assert code == 0 and err == ""
    assert asked == []


@pytest.mark.parametrize("argv, tables", [
    pytest.param((), 1, id="no-override"),
    pytest.param(("--gamma-minus", "0.1"), 2, id="override"),
])
def test_van_loan_reads_the_shared_table(tmp_path, capsys, monkeypatch,
                                         argv, tables):
    # on a one-sided spectrum Van Loan's bound is the triangular bound's
    # series at the maximal gap: with no gap override that is the table the
    # other columns read, and a second one is built only for an override
    built = []
    envelope_table = bounds.envelope_table

    def record(*args):
        built.append(args)
        return envelope_table(*args)

    monkeypatch.setattr(bounds, "envelope_table", record)
    path = write_matrix(tmp_path / "m.json", [[-1.0, 1.0], [0.0, -2.0]])
    code, out, _ = run_cli(capsys, "compare", path, *argv)
    _, rows = parse_csv(out)
    assert code == 0 and len(built) == tables
    assert all(row["bound_vanloan"] is not None for row in rows)
    if not argv:
        assert all(row["bound_vanloan"] == row["bound_triangular"]
                   for row in rows)


def test_check_large_dense(tmp_path, capsys):
    rng = np.random.default_rng(59)
    path = write_matrix(tmp_path / "a.json",
                        random_dense(rng, 100) / np.sqrt(200.0))
    code, out, _ = run_cli(capsys, "check", path, "--t-min", "-10",
                           "--t-max", "10", "--steps", "40")
    assert code == 0
    assert out == "ok\n"


# two close singular values: the power iteration that the SVD replaced
# raised ConvergenceFailure (exit 5) on both at the default two-norm
@pytest.mark.parametrize("diag", [
    pytest.param((-1.0, -1.0005, 1.0), id="diag(-1,-1.0005,1)"),
    pytest.param((-1.0, 2.0, -2.002), id="diag(-1,2,-2.002)"),
])
def test_near_degenerate_singular_values(tmp_path, capsys, diag):
    path = write_matrix(tmp_path / "m.json", np.diag(diag))
    for command in ("exact", "bound", "compare"):
        code, out, _ = run_cli(capsys, command, path)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 40
        if "exact_norm" in header:
            # the default grid has t > 0 only, where the slowest decaying
            # mode of G(t) is e^{-t}
            for row in rows:
                assert row["exact_norm"] == pytest.approx(
                    math.exp(-row["t"]), rel=1e-14
                )
    code, out, _ = run_cli(capsys, "check", path)
    assert (code, out) == (0, "ok\n")


@pytest.mark.parametrize("t", ["1e200", "3e307", "1e308"])
def test_huge_times_give_zero_bounds(tmp_path, capsys, t):
    # u^2 overflowed in the envelope recurrence at |t| = 1e200: compare
    # printed bound_triangular = inf (true value 0) and a NaN entrywise bound;
    # from ‖A‖∞|t| ≈ 9e307 on the kernel's squaring count overflowed and
    # exact ended in an OverflowError traceback
    path = write_matrix(tmp_path / "m.json",
                        [[-1, 1, 1], [0, 2, 1], [0, 0, -3]])
    grid = ("--t-min", t, "--t-max", t, "--steps", "1", "--norm", "inf")
    code, out, err = run_cli(capsys, "compare", path, *grid)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"{float(t)!r},0.0,0.0,0.0,,0.0,"
    assert run_cli(capsys, "check", path, *grid) == (0, "ok\n", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", ["1", "2", "inf"])
def test_gap_sum_near_the_float_limit_warns_nothing(tmp_path, capsys, norm):
    # gamma = 1e308: gamma k overflowed in the envelope recurrence, and every
    # command that builds the table printed an overflow warning
    path = write_matrix(tmp_path / "m.json", [[-5e307, 1, 0], [0, 5e307, 1],
                                              [0, 0, -5e307]])
    grid = ("--t-min", "-1e-307", "--t-max", "1e-307", "--steps", "4",
            "--norm", norm)
    code, out, err = run_cli(capsys, "compare", path, *grid)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert all(0.0 < row["exact_norm"] <= row["bound_triangular"] < 1.0
               for row in rows)
    code, out, err = run_cli(capsys, "bound", path, "--bound", "all", *grid)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "check", path, *grid) == (0, "ok\n", "")


@pytest.mark.parametrize("b, argv, note", [
    # gaps of 1e-300 make every norm bound inf
    pytest.param([[-1, 1, 1], [0, 2, 1], [0, 0, -3]],
                 ("--steps", "4", "--gamma-minus", "1e-300",
                  "--gamma-plus", "1e-300"), "4 of 4", id="tiny-gaps"),
    # a large non-normal N: every bound column exceeds the float range
    pytest.param(random_triangular(np.random.default_rng(5), 300),
                 ("--steps", "6", "--t-min", "-10", "--t-max", "10"),
                 "6 of 6", id="n300"),
])
def test_check_notes_times_without_a_finite_norm_bound(tmp_path, capsys, b,
                                                       argv, note):
    # an inf bound checks nothing, so only the entrywise matrix test can
    # fail there: check says at how many times it checked no norm bound,
    # and that the entrywise test still ran at every time
    path = write_matrix(tmp_path / "m.json", b)
    times = note.split()[-1]
    assert run_cli(capsys, "check", path, "--norm", "inf", *argv) == (
        0, "ok\n", f"note: every norm bound is inf or nan at {note} times; "
        f"the entrywise test |G(T)| <= E(T) ran at all {times}\n")


@pytest.mark.parametrize("argv, code, lines", [
    pytest.param(("--t-min", "-1e2", "--t-max", "1", "--steps", "2"), 0, 3,
                 id="t-min"),
    pytest.param(("--gamma-minus", "-1e-3"), 3, 0, id="gamma-minus"),
])
def test_negative_numbers_in_scientific_notation(tmp_path, capsys, argv,
                                                 code, lines):
    path = write_matrix(tmp_path / "m.json",
                        [[-1, 1, 1], [0, 2, 1], [0, 0, -3]])
    got, out, err = run_cli(capsys, "compare", path, *argv)
    assert got == code
    assert len(out.splitlines()) == lines
    assert code == 0 or err.startswith("error: gap override")


# 160-digit Parlett puts max|G(0.1)| at 3.7e399 for N x 1e200 (n = 3) and
# at 2.2e317 for N x 1e80 (n = 5), both beyond the float range; the sign of
# the balanced N x 1e200 stays finite, so G is what overflows there
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed, n, scale, command, message", [
    pytest.param(0, 3, 1e200, "exact", "G(t) overflows at t=0.1",
                 id="sign"),
    pytest.param(1, 5, 1e80, "exact", "G(t) overflows at t=0.1",
                 id="kernel-exact"),
    pytest.param(1, 5, 1e80, "check", "G(t) overflows at t=0.1",
                 id="kernel-check"),
])
def test_overflow_is_a_typed_error(tmp_path, capsys, seed, n, scale, command,
                                   message):
    path = write_matrix(tmp_path / "m.json", scaled_nilpotent(seed, n, scale))
    code, out, err = run_cli(capsys, command, path, "--steps", "6",
                             "--norm", "inf")
    assert (code, out, err) == (5, "", f"error: FloatOverflow: {message}\n")


# G(t) e^(-+1e-6 t) = +-sum_k (1e60 t)^k J^k / k! on the decaying side:
# finite at |t| = 0.5, beyond the float range from |t| = 167 on
@pytest.mark.parametrize("sign, argv, code, out, err", [
    pytest.param(-1.0, ("--t-min", "0.5", "--t-max", "500"), 4,
                 "violation: t=0.5 ", "", id="violation-first"),
    pytest.param(1.0, ("--t-min", "-500", "--t-max", "-0.5"), 5, "",
                 "error: FloatOverflow: G(t) overflows at t=-500.0\n",
                 id="overflow-first"),
])
def test_check_tests_each_time_before_the_next_overflows(
        tmp_path, capsys, sign, argv, code, out, err):
    a = sign * 1e-6 * np.eye(6) + 1e60 * np.eye(6, k=1)
    path = write_matrix(tmp_path / "m.json", a)
    got = run_cli(capsys, "check", path, *argv, "--steps", "4",
                  "--norm", "inf", "--bound-scale", "0.5")
    assert (got[0], got[2]) == (code, err) and got[1].startswith(out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["exact", "compare", "check", "bound"])
def test_subnormal_spectrum(tmp_path, capsys, command):
    # exact ended in an OverflowError from the sign step's scaling, and with
    # that mended compare printed nan for the triangular bound: the
    # envelope's 2(2k-1)/(gamma k) overflowed for gamma = 2e-310
    path = write_matrix(tmp_path / "m.json", np.diag([-1e-310, 1e-310]))
    code, out, err = run_cli(capsys, command, path, "--norm", "inf",
                             "--t-min", "-10", "--t-max", "10", "--steps", "6")
    assert (code, err) == (0, "")
    if command == "check":
        assert out == "ok\n"
        return
    _, rows = parse_csv(out)
    assert len(rows) == 6
    for row in rows:
        values = [v for k, v in row.items() if k != "t" and v is not None]
        assert values and all(v == 1.0 for v in values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1e-220, 1e-300])
def test_exact_where_balancing_underflowed_the_diagonal(tmp_path, capsys, d):
    # gebal scales a row and then a column, so -d underflowed to -0 in
    # scipy's balanced matrix and the sign step met a singular iterate (exit
    # 5; 1e-200 passed).  On both sides |G(t)| = e^(-d|t|) sqrt(1 + 1/(4d^2))
    path = write_matrix(tmp_path / "m.json", [[-d, 1], [0, d]])
    code, out, err = run_cli(capsys, "exact", path, "--t-min", "-10",
                             "--t-max", "10", "--steps", "4")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert len(rows) == 4
    for row in rows:
        assert row["exact_norm"] == pytest.approx(0.5 / d, rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_triangular_bound_where_the_norm_overflows(tmp_path, capsys):
    # norm_1(N) = inf, and the series formed 0 * inf = nan on the side with
    # no spectrum, where the bound is 0
    path = write_matrix(tmp_path / "m.json",
                        [[-1, 1e308, 1e308], [0, -1, 1e308], [0, 0, -2]])
    code, out, err = run_cli(capsys, "bound", path, "--norm", "1",
                             "--steps", "2", "--t-min", "-2", "--t-max", "2")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert [row["t"] for row in rows] == [-0.02, 0.02]
    assert rows[0]["bound_triangular"] == rows[0]["bound_entrywise_norm"] == 0.0
    assert rows[1]["bound_triangular"] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gaps_where_the_norm_overflows(tmp_path, capsys):
    # norm_inf = 2e308: the triangularity test dropped the subdiagonal 1e307
    # and printed the diagonal, -1e308 and 1e308, as the eigenvalues
    a = np.array([[-1e308, 1e308], [1e307, 1e308]])
    code, out, err = run_cli(capsys, "gaps", write_matrix(tmp_path / "m.json", a))
    assert (code, err) == (0, "")
    eigs = [complex(z) for z in out.splitlines()[0].split()[1:]]
    assert np.allclose(sorted(eigs, key=lambda z: z.real),
                       np.sort(np.linalg.eigvals(a)), rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_where_the_norm_overflows(tmp_path, capsys):
    # the squaring count came from frexp(inf) = 0, so it was negative and
    # exact reported a false FloatOverflow; G(t) = 0 to the float range
    path = write_matrix(tmp_path / "m.json", [[-1e308, 1e308], [0, 1e308]])
    code, out, err = run_cli(capsys, "exact", path, "--t-min", "-10",
                             "--t-max", "10", "--steps", "6")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert len(rows) == 6
    assert all(row["exact_norm"] == 0.0 for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_beyond_float_range_is_quiet_inf(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json",
                        random_triangular(np.random.default_rng(5), 90))
    code, out, err = run_cli(capsys, "compare", path, "--t-min", "1000",
                             "--t-max", "1000", "--steps", "1", "--norm", "1")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert rows[0]["ratio_triangular"] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b", [1e4, 1e8, 1e12, 1e14])
def test_check_accepts_a_large_off_diagonal_entry(tmp_path, capsys, b):
    # the squaring count followed norm_inf(A) = b, and from b = 1e8 on the
    # error in G(t) broke the entrywise bound, which is tight here
    path = write_matrix(tmp_path / "m.json", [[-1.0, b], [0.0, 1.0]])
    assert run_cli(capsys, "check", path) == (0, "ok\n", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, argv", [
    pytest.param([[-1e308, 1e308], [0, 1e308]], ["bound"], id="bound"),
    pytest.param([[-1e308, 1e308], [0, 1e308]], ["check"], id="check"),
    pytest.param([[-1e308, 1e308], [0, 1e308]],
                 ["compare", "--norm", "inf", "--steps", "4"], id="compare"),
    pytest.param([[-1, 1e308, 1e308], [0, 1, 1e308], [0, 0, -2]],
                 ["bound", "--norm", "inf"], id="bound-3x3"),
])
def test_norms_beyond_the_float_range(tmp_path, capsys, a, argv):
    # the norm sum overflowed with a warning, and qtds18 took the gap sum
    # 2e308 = inf for a missing gap and exited 5
    path = write_matrix(tmp_path / "m.json", a)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] == "check":
        assert out == "ok\n"
        return
    _, rows = parse_csv(out)
    assert all(row["bound_qtds18"] == math.inf for row in rows)
    for row in rows:
        for col in BOUND_COLUMNS:
            if row.get(col) is not None:
                assert row[col] >= row.get("exact_norm", 0.0)
