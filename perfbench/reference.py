"""Benchmark-side references and output checks.

Nothing here imports greenbound.  The exact Green's function comes from an
ordered LAPACK Schur form A = Z T Z^H with the left half-plane block first,
T = [[T11, T12], [0, T22]], and the Sylvester solution X T22 - T11 X = T12:

    G(t > 0) = Z [[E11, -E11 X], [0, 0]] Z^H,    E11 = expm(T11 t),
    G(t < 0) = -Z [[0, X E22], [0, E22]] Z^H,    E22 = expm(T22 t),

so only the decaying block is ever exponentiated.  The two-norm is unitarily
invariant, so the norm of the block form, taken from its SVD, is ||G(t)||_2.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

EXACT_RTOL = 1e-8      # exact_norm against the reference, relative
BOUND_SLACK = 1e-9     # a bound may undershoot the exact norm by this share
SOLVE_RTOL = 1e-8      # bounded_solution against the closed form
GAPS_RTOL = 1e-5       # gaps prints gamma values with %g (6 digits)


def cli_grid() -> np.ndarray:
    """The documented grid for --t-min -10 --t-max 10 --steps 40: two
    symmetric-log half-grids of 20 points over [0.1, 10]."""
    half = np.geomspace(0.1, 10.0, 20)
    return np.concatenate([-half[::-1], half])


def green_norms(a: np.ndarray, grid) -> np.ndarray:
    """||G(A, t)||_2 on the grid via ordered Schur, Sylvester and expm."""
    t_mat, _, k = sla.schur(a, output="complex", sort="lhp")
    n = t_mat.shape[0]
    t11, t12, t22 = t_mat[:k, :k], t_mat[:k, k:], t_mat[k:, k:]
    x = (sla.solve_sylvester(-t11, t22, t12) if 0 < k < n
         else np.zeros((k, n - k), dtype=complex))
    out = np.zeros(len(grid))
    for i, t in enumerate(grid):
        if t > 0 and k > 0:
            e = sla.expm(t11 * t)
            out[i] = np.linalg.norm(np.hstack([e, -e @ x]), 2)
        elif t < 0 and k < n:
            e = sla.expm(t22 * t)
            out[i] = np.linalg.norm(np.vstack([x @ e, e]), 2)
    return out


def eigenvalues(a: np.ndarray) -> np.ndarray:
    return sla.eigvals(a)


def harmonic_solution(a, omega: float, c, t: float) -> np.ndarray:
    """Bounded solution of x' = A x + exp(i omega s) c at time t:
    (i omega I - A)^{-1} c exp(i omega t)."""
    n = a.shape[0]
    return np.linalg.solve(1j * omega * np.eye(n) - a, c) * np.exp(1j * omega * t)


def _float(cell: str):
    return None if cell == "" else float(cell)


def _check_table(text: str, expect: dict):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return "empty output", 0.0
    header, body = rows[0], rows[1:]
    grid, norms = expect["grid"], expect["norms"]
    if len(body) != len(grid):
        return f"{len(body)} rows, expected {len(grid)}", 0.0
    col = {name: i for i, name in enumerate(header)}
    if "t" not in col or "exact_norm" not in col:
        return f"unexpected header {header}", 0.0
    ts = np.array([float(r[col["t"]]) for r in body])
    if not np.allclose(ts, grid, rtol=1e-12, atol=0.0):
        return "time column differs from the grid", 0.0
    exact = np.array([float(r[col["exact_norm"]]) for r in body])
    err = np.abs(exact - norms)
    tol = EXACT_RTOL * norms + 1e-14 * norms.max()
    rel = float((err / np.maximum(norms, 1e-14 * norms.max())).max())
    if np.any(err > tol):
        i = int(np.argmax(err - tol))
        return f"exact_norm {exact[i]!r} != reference {norms[i]!r} at t={ts[i]!r}", rel
    floor = norms * (1.0 - BOUND_SLACK)
    for name in header:
        if not name.startswith("bound_"):
            continue
        for r, lo, t in zip(body, floor, ts):
            b = _float(r[col[name]])
            if b is not None and not b >= lo:
                return f"{name}={b!r} below exact {lo!r} at t={t!r}", rel
    if "bound_triangular" in col and any(r[col["bound_triangular"]] == ""
                                         for r in body):
        return "bound_triangular missing", rel
    return None, rel


def _check_gaps(text: str, eigs: np.ndarray):
    lines = text.splitlines()
    if len(lines) != 2 or not lines[0].startswith("eigenvalues:"):
        return f"unexpected gaps output {text[:80]!r}"
    got = np.array([complex(w) for w in lines[0].split()[1:]])
    if got.shape != eigs.shape:
        return f"{got.size} eigenvalues, expected {eigs.size}"
    dist = np.abs(got[:, None] - eigs[None, :])
    rows, cols = linear_sum_assignment(dist)
    scale = np.abs(eigs).max()
    if dist[rows, cols].max() > 1e-8 * scale:
        return f"eigenvalues off by {dist[rows, cols].max():.3g}"
    fields = dict(kv.split("=") for kv in lines[1].split())
    re = eigs.real
    left, right = re[re < 0], re[re > 0]
    want = {
        "gamma_minus": -left.max() if left.size else np.inf,
        "gamma_plus": right.min() if right.size else np.inf,
        "alpha": re.max(),
    }
    for key, value in want.items():
        got_v = float(fields[key])
        if not np.isclose(got_v, value, rtol=GAPS_RTOL, atol=1e-12 * scale):
            return f"{key}={got_v!r}, expected {value!r}"
    if int(fields["m"]) != left.size or int(fields["l"]) != right.size:
        return f"m={fields['m']} l={fields['l']}, expected {left.size} {right.size}"
    return None


def verify(expect: dict, result):
    """Check one call's result; return (error message or None, rel error).

    ``result`` is ``(exit code, stdout)`` for a CLI call and the solution
    vector for a library call.  The relative error is that of the exact
    Green's function norm (tables) or of the solution vector, else 0.
    """
    cmd = expect["command"]
    if cmd == "solve":
        ref = expect["x"]
        rel = float(np.linalg.norm(result - ref) / np.linalg.norm(ref))
        return (None if rel <= SOLVE_RTOL else f"solution rel err {rel:.3g}"), rel
    code, text = result
    if code != 0:
        return f"exit code {code}", 0.0
    if cmd == "check":
        return (None if text == "ok\n" else f"check printed {text[:80]!r}"), 0.0
    if cmd == "gaps":
        return _check_gaps(text, expect["eigs"]), 0.0
    return _check_table(text, expect)
