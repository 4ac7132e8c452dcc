"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line with
the measured figure of merit; any assertion failure is a release blocker.
"""

import json
import math

import numpy as np
import pytest

from greenbound import (
    BoundParams,
    GreenKernel,
    QtdsParams,
    conv_power_closed,
    conv_power_numeric,
    conv_power_poly,
    entrywise_abs,
    entrywise_bound,
    green_contour,
    green_function,
    induced_norm,
    matrix_exp,
    perturbation_residual,
    qtds18_bound,
    split_triangular,
    spectral_gaps,
    triangular_bound,
    van_loan_bound,
)
from greenbound.bounds import h_eval
from greenbound.cli import main as cli_main
from greenbound.oracles import contour_for, conv_power_grid, default_conv_quad
from greenbound.schur import (
    reconstruction_residual,
    schur_decompose,
    unitarity_residual,
)

from conftest import random_dense, random_triangular, random_unitary

INF = float("inf")
NORMS = (1, 2, "inf")

# 40 nonzero times per matrix, straddling 0 on a symmetric log layout
TIME_GRID = np.concatenate([
    -np.geomspace(0.01, 10.0, 20)[::-1], np.geomspace(0.01, 10.0, 20)
])


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(715)
    out = []
    while len(out) < 200:
        n = int(rng.integers(2, 9))
        out.append(random_triangular(rng, n, gap=0.2))
    return out


@pytest.fixture(scope="module")
def ensemble_rows(ensemble):
    """Per-matrix precomputation shared by the domination criteria."""
    rows = []
    for b in ensemble:
        d, n_mat = split_triangular(b)
        split = spectral_gaps(b)
        kernel = GreenKernel(b)
        greens = {float(t): kernel.at(float(t)) for t in TIME_GRID}
        rows.append({
            "b": b, "d": d, "n_mat": n_mat, "split": split, "greens": greens,
        })
    return rows


def test_criterion_01_norm_domination(ensemble_rows):
    checked = 0
    worst = 0.0
    for row in ensemble_rows:
        split = row["split"]
        n = row["b"].shape[0]
        for p in NORMS:
            params = BoundParams(
                n, induced_norm(row["n_mat"], p),
                split.gamma_minus, split.gamma_plus,
            )
            for t, g in row["greens"].items():
                exact = induced_norm(g, p)
                bound = triangular_bound(params, t)
                assert exact <= bound * (1.0 + 1e-9)
                checked += 1
                if bound > 0:
                    worst = max(worst, exact / bound)
    print(f"\n[PASS] criterion 1: norm domination at {checked} points, "
          f"worst exact/bound ratio {worst:.6f}")


def test_criterion_02_entrywise_domination(ensemble_rows):
    checked = 0
    for row in ensemble_rows:
        split = row["split"]
        for t, g in row["greens"].items():
            e = entrywise_bound(row["d"], row["n_mat"],
                                split.gamma_minus, split.gamma_plus, t)
            assert np.all(entrywise_abs(g) <= e + 1e-10)
            checked += 1
    print(f"\n[PASS] criterion 2: entrywise domination at {checked} grids")


def test_criterion_03_convolution_identity():
    worst = 0.0
    t_values = np.linspace(-8.0, 8.0, 31)
    t_values = t_values[t_values != 0.0]  # 30 nonzero times
    for gamma in (0.5, 1.0, 2.0):
        gm = gp = gamma / 2.0
        quad = default_conv_quad(gm, gp, 8.0)
        for k in range(1, 7):
            grid = conv_power_grid(k, gm, gp, quad)
            for t in t_values:
                closed = conv_power_closed(k, float(t), gm, gp)
                numeric = conv_power_numeric(k, float(t), gm, gp, _grid=grid)
                rel = abs(closed - numeric) / closed
                worst = max(worst, rel)
                assert rel <= 1e-6
    assert conv_power_closed(2, 1.0, 1.0, 1.0) == pytest.approx(
        2.0 * math.exp(-1), rel=1e-13
    )
    assert conv_power_closed(3, 1.0, 1.0, 1.0) == pytest.approx(
        3.5 * math.exp(-1), rel=1e-13
    )
    print(f"\n[PASS] criterion 3: closed vs numeric convolution, "
          f"worst relative error {worst:.3e}")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(816)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        b = random_triangular(rng, n, gap=0.3)
        for t in (float(rng.uniform(0.1, 5.0)), float(-rng.uniform(0.1, 5.0))):
            exact = green_function(b, t)
            approx = green_contour(b, t, contour_for(b, t, 20000))
            err = np.abs(exact - approx).max()
            worst = max(worst, err)
            assert err <= 1e-8
    print(f"\n[PASS] criterion 4: projector vs contour oracle, "
          f"worst entry error {worst:.3e}")


def test_criterion_05_perturbation_identity():
    rng = np.random.default_rng(917)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        a = random_triangular(rng, n, gap=0.5)
        b = a + 0.4 * np.triu(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1
        )
        for t in (0.3, -0.3, 0.7, -0.7, 1.5, -1.5):
            r = perturbation_residual(a, b, t)
            worst = max(worst, r)
            assert r <= 1e-5
    print(f"\n[PASS] criterion 5: perturbation identity, "
          f"worst residual {worst:.3e}")


def test_criterion_06_one_sided_limit_and_van_loan(ensemble_rows):
    rng = np.random.default_rng(1018)
    worst_rel = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 7))
        norm_n = float(rng.uniform(0.0, 3.0))
        gm = float(rng.uniform(0.2, 2.0))
        lim = BoundParams(n, norm_n, gm, 1e6)
        one = BoundParams(n, norm_n, gm, INF)
        for t in np.linspace(0.1, 10.0, 25):
            a = triangular_bound(lim, float(t))
            b = triangular_bound(one, float(t))
            rel = abs(a - b) / b
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-4
    checked = 0
    for row in ensemble_rows:
        n = row["b"].shape[0]
        alpha = float(np.diag(row["b"]).real.max())
        for p in NORMS:
            norm_n = induced_norm(row["n_mat"], p)
            for t in np.linspace(0.0, 10.0, 11):
                exact = induced_norm(matrix_exp(row["b"] * t), p)
                bound = van_loan_bound(alpha, norm_n, n, float(t))
                assert exact <= bound * (1.0 + 1e-9)
                checked += 1
    print(f"\n[PASS] criterion 6: one-sided limit (worst rel "
          f"{worst_rel:.3e}) and Van Loan domination at {checked} points")


def test_criterion_07_polynomial_identity():
    worst = 0.0
    for k in range(1, 9):
        for x in np.geomspace(1e-6, 50.0, 40):
            for gm, gp in ((0.5, 0.5), (0.3, 1.1), (2.0, 0.25)):
                t = x / (gm + gp)
                a = conv_power_closed(k, t, gm, gp, "poly")
                b = conv_power_closed(k, t, gm, gp, "bessel")
                rel = abs(a - b) / a
                worst = max(worst, rel)
                assert rel <= 1e-10
    t = 1e6
    for k in range(1, 9):
        for gamma in (1.0, 2.0):
            lead = conv_power_poly(k + 1, t, gamma) * math.factorial(k) / t ** k
            assert 1.0 - 1e-4 <= lead <= 1.0 + 1e-4
    print(f"\n[PASS] criterion 7: Bessel/polynomial agreement (worst rel "
          f"{worst:.3e}) and leading coefficient at t = 1e6")


def test_criterion_08_qtds_bound(ensemble_rows):
    hand = qtds18_bound(QtdsParams(2.0, 1, 1, 1.0, 1.0), 1.0)
    assert hand == pytest.approx(2.0 * math.exp(-1), rel=1e-14)
    checked = 0
    for row in ensemble_rows:
        split = row["split"]
        if split.m < 1 or split.l < 1:
            continue
        for p in NORMS:
            params = QtdsParams(
                induced_norm(row["b"], p), split.m, split.l,
                split.gamma_minus, split.gamma_plus,
            )
            for t, g in row["greens"].items():
                exact = induced_norm(g, p)
                assert exact <= qtds18_bound(params, t) * (1.0 + 1e-9)
                checked += 1
    assert checked > 0
    print(f"\n[PASS] criterion 8: alternative-estimate domination at "
          f"{checked} points, hand value 2/e reproduced")


def _write_matrix_file(path, a):
    a = np.asarray(a, dtype=complex)
    obj = {"n": a.shape[0],
           "data": [[[z.real, z.imag] for z in row] for row in a]}
    path.write_text(json.dumps(obj))
    return str(path)


def test_criterion_09_unitary_invariance_cli(tmp_path, capsys):
    rng = np.random.default_rng(1119)
    worst = 0.0
    for trial in range(3):
        n = int(rng.integers(3, 6))
        b = random_triangular(rng, n, gap=0.3)
        q = random_unitary(rng, n)
        a = q @ b @ q.conj().T
        columns = {}
        for label, m in (("tri", b), ("dense", a)):
            path = _write_matrix_file(tmp_path / f"{label}{trial}.json", m)
            code = cli_main([
                "exact", path, "--t-min", "-3.0", "--t-max", "3.0",
                "--steps", "12", "--norm", "2",
            ])
            out = capsys.readouterr().out
            assert code == 0
            columns[label] = [
                float(line.split(",")[1])
                for line in out.strip().splitlines()[1:]
            ]
        for x, y in zip(columns["tri"], columns["dense"]):
            worst = max(worst, abs(x - y))
            assert abs(x - y) <= 1e-8
    print(f"\n[PASS] criterion 9: CLI two-norm invariance under unitary "
          f"conjugation, worst difference {worst:.3e}")


def test_criterion_10_schur_quality():
    rng = np.random.default_rng(1220)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        a = random_dense(rng, n)
        form = schur_decompose(a)
        scale = n * np.abs(a).sum(axis=1).max()
        r1 = reconstruction_residual(a, form)
        r2 = unitarity_residual(form)
        worst = max(worst, r1 / scale, r2 / n)
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * n
    print(f"\n[PASS] criterion 10: Schur residuals on 100 matrices, "
          f"worst normalized residual {worst:.3e}")


def test_criterion_11_negative_control(ensemble, tmp_path, capsys):
    for i, b in enumerate(ensemble):
        path = _write_matrix_file(tmp_path / f"nc{i}.json", b)
        code = cli_main([
            "check", path, "--t-min", "-3.0", "--t-max", "3.0",
            "--steps", "12", "--bound-scale", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 4, f"matrix {i} not flagged"
        assert out.startswith("violation:")
    print(f"\n[PASS] criterion 11: corrupted bound flagged on all "
          f"{len(ensemble)} ensemble matrices")
