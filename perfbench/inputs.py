"""Seeded inputs and fixed call mixes for the benchmark workloads.

Every matrix, forcing term and call order comes from ``numpy.random.
default_rng(seed)``; the same seed gives the same inputs.  Matrices are
written as the CLI's JSON files before any timing starts, and the reference
values each call is checked against (see ``reference.py``) are computed here
too, so the timed loop only runs the package and compares numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# The 40-point grid straddling 0 that every tabulating call uses.
GRID_ARGS = ["--t-min", "-10", "--t-max", "10", "--steps", "40"]
GAP = 0.2          # distance of the spectrum from the imaginary axis
NEAR_AXIS = 1e-3   # gap of the near-axis spectra
SOLVE_GAP = 0.5    # gap of the bounded_solution inputs
TRI_KINDS = ("two-sided", "one-sided", "non-normal", "near-axis")


@dataclass
class Call:
    """One end-to-end call and what its output must match.

    ``argv`` is a CLI call through ``greenbound.cli.main``; ``lib`` is the
    argument tuple ``(a, omega, c, t)`` of a library ``bounded_solution``
    call with forcing f(s) = exp(i omega s) c.  ``expect`` holds the
    benchmark-side reference for ``reference.verify``.
    """

    label: str
    n: int
    argv: list | None = None
    lib: tuple | None = None
    expect: dict | None = None


@dataclass
class Workload:
    calls: list          # one pass of the fixed mix, in a seeded order
    setup_call: list     # fresh-interpreter argv tail for the 2x2 set-up call
    dense: list          # dense (non-triangular) inputs, for Schur quality


def _cgauss(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def triangular(rng, n: int, kind: str, gap: float = GAP) -> np.ndarray:
    """Upper triangular B = D + N with a spectrum of the given kind.

    Real parts have magnitude in [gap, 2] and the closest eigenvalue on each
    occupied side sits exactly at the gap.  ``near-axis`` moves one of them
    to |Re| = 1e-3; ``non-normal`` scales N by 10.
    """
    mag = rng.uniform(gap, 2.0, n)
    left = rng.random(n) < 0.5
    if kind == "one-sided":
        left[:] = True
    elif n > 1:
        left[0], left[1] = True, False
    mag[: min(n, 2)] = gap
    if kind == "near-axis":
        mag[rng.integers(min(n, 2))] = NEAR_AXIS
    diag = np.where(left, -mag, mag) + 1j * rng.uniform(-2.0, 2.0, n)
    nil = np.triu(_cgauss(rng, (n, n)), 1) / math.sqrt(n)
    if kind == "non-normal":
        nil *= 10.0
    return np.diag(diag[rng.permutation(n)]) + nil


def dense(rng, n: int) -> np.ndarray:
    """Complex Gaussian matrix scaled so the spectrum fills the unit disc."""
    return _cgauss(rng, (n, n)) / math.sqrt(2.0 * n)


def write_matrix(a: np.ndarray, path: Path) -> str:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"n": a.shape[0], "data": rows}))
    return str(path)


class _Builder:
    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.grid = reference.cli_grid()
        self.calls = []
        self.dense = []
        self._count = 0

    def matrix_file(self, a) -> str:
        self._count += 1
        return write_matrix(a, self.workdir / f"m{self._count:03d}.json")

    def table_calls(self, a, label, commands, norm_args=()):
        """CLI calls on one matrix; exact norms are referenced once."""
        path = self.matrix_file(a)
        need_norms = any(c in ("compare", "exact") for c in commands)
        norms = reference.green_norms(a, self.grid) if need_norms else None
        eigs = reference.eigenvalues(a) if "gaps" in commands else None
        for cmd in commands:
            argv = [cmd, path]
            if cmd != "gaps":
                argv += GRID_ARGS + (list(norm_args) if cmd == "check" else [])
            expect = {"command": cmd, "grid": self.grid, "norms": norms,
                      "eigs": eigs}
            self.calls.append(Call(f"{cmd} {label}", a.shape[0], argv=argv,
                                   expect=expect))

    def solve_call(self, a, label):
        n = a.shape[0]
        omega = float(self.rng.uniform(-2.0, 2.0))
        c = _cgauss(self.rng, n)
        t = float(self.rng.uniform(-5.0, 5.0))
        expect = {"command": "solve",
                  "x": reference.harmonic_solution(a, omega, c, t)}
        self.calls.append(Call(f"solve {label}", n, lib=(a, omega, c, t),
                               expect=expect))

    def finish(self, setup_call) -> Workload:
        order = self.rng.permutation(len(self.calls))
        return Workload([self.calls[i] for i in order], setup_call, self.dense)

    def setup_matrix(self, a) -> str:
        return write_matrix(a, self.workdir / "setup2x2.json")


def _tri_bounds(b: _Builder) -> Workload:
    # matrices per size and kind; small calls dominate the count and n = 80,
    # whose check takes ~2 s, carries the two-sided and near-axis kinds only
    for n, reps, kinds in ((8, 3, TRI_KINDS), (20, 2, TRI_KINDS),
                           (50, 1, TRI_KINDS),
                           (80, 1, ("two-sided", "near-axis"))):
        for kind in kinds:
            for _ in range(reps):
                b.table_calls(triangular(b.rng, n, kind), f"tri n={n} {kind}",
                              ("compare", "check"), ("--norm", "inf"))
    path = b.setup_matrix(triangular(b.rng, 2, "two-sided"))
    return b.finish(["-m", "greenbound", "compare", path] + GRID_ARGS)


def _dense_schur(b: _Builder) -> Workload:
    # matrices per size, chosen so that the median call falls amid the
    # n = 20 compare/exact calls and the p90 call amid the n = 100 gaps
    for n, reps in ((8, 3), (20, 8), (50, 2)):
        for _ in range(reps):
            a = dense(b.rng, n)
            b.dense.append(a)
            b.table_calls(a, f"dense n={n}", ("compare", "exact", "gaps"))
    # compare/exact at n=100 reach the n >= 90 overflow in triangular_bound;
    # they run in tri-large so that fixing it does not shift this mix
    for _ in range(7):
        a = dense(b.rng, 100)
        b.dense.append(a)
        b.table_calls(a, "dense n=100", ("gaps",))
    path = b.setup_matrix(dense(b.rng, 2))
    return b.finish(["-m", "greenbound", "compare", path] + GRID_ARGS)


def _solve_lib(b: _Builder) -> Workload:
    # the default quadrature takes ~900 nodes per occupied side when both
    # gaps are at least 0.5 (below that its node count grows as 1/gap);
    # 12 one-sided and 8 two-sided inputs average ~1250 kernel calls; the
    # median call is a one-sided n = 16 one, the p90 call a two-sided one
    for n in (4, 8, 16):
        two_sided = 4 if n == 16 else 2
        for kind, reps in (("one-sided", 4), ("two-sided", two_sided)):
            for _ in range(reps):
                b.solve_call(triangular(b.rng, n, kind, gap=SOLVE_GAP),
                             f"n={n} {kind}")
    a = triangular(b.rng, 2, "two-sided")
    code = (
        "import numpy as np, greenbound; "
        f"a = np.array({a.tolist()!r}); c = np.ones(2, complex); "
        "greenbound.bounded_solution(a, lambda s: np.exp(0.5j * s) * c, 0.5)"
    )
    return b.finish(["-c", code])


def _tri_large(b: _Builder) -> Workload:
    for n in (100, 200):
        b.table_calls(triangular(b.rng, n, "two-sided"), f"tri n={n}",
                      ("check",), ("--norm", "inf"))
    a = dense(b.rng, 100)
    b.dense.append(a)
    b.table_calls(a, "dense n=100", ("compare", "exact"))
    path = b.setup_matrix(triangular(b.rng, 2, "two-sided"))
    return b.finish(["-m", "greenbound", "check", path, "--norm", "inf"]
                    + GRID_ARGS)


WORKLOADS = {
    "tri-bounds": _tri_bounds,
    "dense-schur": _dense_schur,
    "solve-lib": _solve_lib,
    "tri-large": _tri_large,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](_Builder(seed, workdir))
