"""Command-line front end.

Subcommands: gaps, exact, bound, compare, check.  Matrices are read from a
JSON file {"n": int, "data": [[[re, im], ...], ...]} (row-major).  Grids of
times exclude 0: a range straddling 0 is laid out as two symmetric-log
half-grids (per-side magnitudes log-spaced over two decades).

Exit codes: 0 ok, 1 parse/usage error, 2 ill-posed spectrum, 3 invalid gap
override, 4 domination violation (check), 5 any other library failure (a
GreenboundError such as ConvergenceFailure).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property

import numpy as np

from . import bounds as bnd
from .errors import GreenboundError, NotTriangular, SpectrumOnAxis
from .green import (
    GreenKernel,
    SpectralSplit,
    spectral_gaps,
    spectral_gaps_from_eigenvalues,
)
from .matcore import induced_norm, norm_kind, split_triangular
from .schur import schur_decompose

INF = float("inf")

BOUND_COLUMNS = (
    "bound_triangular", "bound_entrywise_norm", "bound_vanloan",
    "bound_qtds18",
)
COLUMNS = ("t", "exact_norm") + BOUND_COLUMNS + ("ratio_triangular",)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parse errors (exit 1)
        raise CliError(1, message)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        n = obj["n"]
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        pairs = np.array(obj["data"])
        if pairs.dtype.kind not in "biuf" or pairs.shape != (n, n, 2):
            raise ValueError("data must be an n x n array of [re, im] pairs")
        a = pairs[..., 0] + 1j * pairs[..., 1]
    except Exception as exc:
        raise CliError(1, f"cannot parse matrix file {path}: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise CliError(1, "matrix has non-finite entries")
    return a


def make_grid(t_min: float, t_max: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise CliError(1, "steps must be >= 1")
    if t_min > t_max:
        raise CliError(1, "t-min must not exceed t-max")
    if t_min < 0.0 < t_max:
        neg = steps // 2
        pos = steps - neg
        parts = []
        if neg:
            parts.append(-np.geomspace(-t_min / 100.0, -t_min, neg))
        if pos:
            parts.append(np.geomspace(t_max / 100.0, t_max, pos))
        return np.sort(np.concatenate(parts))
    if t_min == 0.0:
        t_min = t_max / 1000.0 if steps > 1 else t_max
    if t_max == 0.0:
        t_max = t_min / 1000.0 if steps > 1 else t_min
    grid = np.linspace(t_min, t_max, steps)
    if np.any(grid == 0.0):
        raise CliError(1, "grid may not contain t = 0")
    return grid


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


class Problem:
    """Matrix plus derived data shared by the tabulating subcommands.

    ``tabulate`` computes each requested column once for the whole grid and
    ``row(i)`` reads grid point i back out of the columns.  The kernel, the
    norms and the bound tables are built on first use, so a command computes
    only what it prints.
    """

    def __init__(self, a: np.ndarray, p, gm_override=None, gp_override=None):
        try:
            d, self.n_mat = split_triangular(a)
            self.was_triangular = True
        except NotTriangular:
            d, self.n_mat = split_triangular(schur_decompose(a).t)
            self.was_triangular = False
            if norm_kind(p) != 2:
                print(
                    "note: input is not triangular; Schur form applied and "
                    "the two-norm forced",
                    file=sys.stderr,
                )
            p = 2
        self.tri = d + self.n_mat
        self.p = norm_kind(p)
        eigs = np.diag(d)
        self.max_split = spectral_gaps_from_eigenvalues(eigs)
        self.split = self._apply_overrides(gm_override, gp_override)
        self.n = self.tri.shape[0]
        self.min_re = float(eigs.real.min())
        self.grid = None
        self.columns = {}

    def _apply_overrides(self, gm, gp) -> SpectralSplit:
        ms = self.max_split
        if gm is None and gp is None:
            return ms
        gm = ms.gamma_minus if gm is None else gm
        gp = ms.gamma_plus if gp is None else gp
        if gm <= 0 or gp <= 0 or gm > ms.gamma_minus or gp > ms.gamma_plus:
            raise CliError(
                3,
                "gap override places an eigenvalue inside the strip "
                f"(maximal gamma_minus={ms.gamma_minus:g}, "
                f"gamma_plus={ms.gamma_plus:g})",
            )
        return SpectralSplit(gm, gp, ms.alpha, ms.m, ms.l)

    @cached_property
    def kernel(self) -> GreenKernel:
        return GreenKernel(self.tri, split=self.max_split)

    @cached_property
    def norm_n(self) -> float:
        return induced_norm(self.n_mat, self.p)

    @cached_property
    def table(self) -> bnd.EnvelopeTable:
        s = self.split
        return bnd.envelope_table(self.n, s.gamma_minus, s.gamma_plus, self.grid)

    @cached_property
    def entrywise(self) -> np.ndarray:
        """sum_k W[t, k] |N|^k for every grid time, shape (T, n, n)."""
        return self.table.matrix_series(np.abs(self.n_mat))

    def _exact_norm(self) -> list:
        return [induced_norm(self.kernel.at(t), self.p) for t in self.grid]

    def _bound_triangular(self) -> np.ndarray:
        return self.table.series(self.norm_n)

    def _bound_entrywise_norm(self):
        if not (self.was_triangular and self.p in (1, INF)):
            return [None] * len(self.grid)
        return self.entrywise.sum(axis=2 if self.p == INF else 1).max(axis=1)

    def _bound_vanloan(self) -> list:
        s, grid = self.split, self.grid
        col = [None] * len(grid)
        if s.l == 0:
            side, alpha, ts = grid > 0, s.alpha, grid
        elif s.m == 0:
            side, alpha, ts = grid < 0, -self.min_re, -grid
        else:
            return col
        values = bnd.van_loan_grid(alpha, self.norm_n, self.n, ts[side])
        for i, v in zip(np.flatnonzero(side), values):
            col[i] = v
        return col

    def _bound_qtds18(self):
        s = self.split
        if s.m < 1 or s.l < 1:
            return [None] * len(self.grid)
        norm_a = induced_norm(self.tri, self.p)
        qp = bnd.QtdsParams(norm_a, s.m, s.l, s.gamma_minus, s.gamma_plus)
        return bnd.qtds18_grid(qp, self.grid)

    def _ratio_triangular(self) -> list:
        cols = self.columns
        return [tri / exact if exact > 0 else None
                for tri, exact in zip(cols["bound_triangular"],
                                      cols["exact_norm"])]

    def tabulate(self, grid: np.ndarray, names) -> None:
        """Compute the named columns (in order) on the grid."""
        self.grid = grid
        self.columns = {"t": grid}
        for name in names:
            self.columns[name] = getattr(self, "_" + name)()

    def row(self, i: int) -> dict:
        return {name: col[i] for name, col in self.columns.items()}


def _write_rows(rows, columns, output):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) if c != "t" else repr(float(row[c]))
                              for c in columns))
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--norm", default="2", choices=["1", "2", "inf"])
    p.add_argument("--gamma-minus", type=float, default=None)
    p.add_argument("--gamma-plus", type=float, default=None)
    p.add_argument("--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gaps = sub.add_parser("gaps", help="report spectral gaps and counts")
    p_gaps.add_argument("matrix")

    for name in ("exact", "bound", "compare", "check"):
        p = sub.add_parser(name)
        p.add_argument("matrix")
        _add_grid_args(p)
        if name == "bound":
            p.add_argument(
                "--bound", default="all",
                choices=["triangular", "entrywise", "vanloan", "qtds18", "all"],
            )
        if name == "check":
            p.add_argument("--bound-scale", type=float, default=1.0,
                           help=argparse.SUPPRESS)
    return parser


def cmd_gaps(args) -> int:
    tri = schur_decompose(load_matrix(args.matrix)).t
    s = spectral_gaps(tri)
    eigs = np.diag(tri)
    print("eigenvalues:", " ".join(repr(complex(e)) for e in eigs))
    print(
        f"gamma_minus={s.gamma_minus:g} gamma_plus={s.gamma_plus:g} "
        f"gamma={s.gamma:g} alpha={s.alpha:g} m={s.m} l={s.l}"
    )
    return 0


def _grid_problem(args):
    a = load_matrix(args.matrix)
    problem = Problem(a, args.norm, args.gamma_minus, args.gamma_plus)
    grid = make_grid(args.t_min, args.t_max, args.steps)
    return problem, grid


def _tabulate(args, columns) -> int:
    problem, grid = _grid_problem(args)
    problem.tabulate(grid, columns[1:])
    rows = [problem.row(i) for i in range(len(grid))]
    _write_rows(rows, columns, args.output)
    return 0


def cmd_exact(args) -> int:
    return _tabulate(args, ("t", "exact_norm"))


def cmd_bound(args) -> int:
    if args.bound == "all":
        return _tabulate(args, ("t",) + BOUND_COLUMNS)
    return _tabulate(args, ("t", {
        "triangular": "bound_triangular",
        "entrywise": "bound_entrywise_norm",
        "vanloan": "bound_vanloan",
        "qtds18": "bound_qtds18",
    }[args.bound]))


def cmd_compare(args) -> int:
    return _tabulate(args, COLUMNS)


def cmd_check(args) -> int:
    problem, grid = _grid_problem(args)
    scale = args.bound_scale
    problem.tabulate(grid, BOUND_COLUMNS)
    for k, t in enumerate(grid):
        g = problem.kernel.at(t)
        exact = induced_norm(g, problem.p)
        row = problem.row(k)
        for col in BOUND_COLUMNS:
            bound = row[col]
            if bound is None:
                continue
            if exact > bound * scale * (1.0 + 1e-9):
                print(
                    f"violation: t={float(t)!r} exact={exact!r} "
                    f"{col}={float(bound * scale)!r}"
                )
                return 4
        if problem.was_triangular:
            # the entrywise inequality holds entry by entry; checking it
            # directly makes corrupted bounds detectable on every matrix
            abs_g = np.abs(g)
            ew = problem.entrywise[k]
            bad = abs_g > ew * scale + 1e-10
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                print(
                    f"violation: t={float(t)!r} entry=({i},{j}) "
                    f"exact={float(abs_g[i, j])!r} "
                    f"bound_entrywise={float(ew[i, j] * scale)!r}"
                )
                return 4
    print("ok")
    return 0


_COMMANDS = {
    "gaps": cmd_gaps,
    "exact": cmd_exact,
    "bound": cmd_bound,
    "compare": cmd_compare,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SpectrumOnAxis as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GreenboundError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
