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
import re
import sys
from functools import cache, cached_property

import numpy as np

from . import bounds as bnd
from .errors import GreenboundError, NotTriangular, SpectrumOnAxis
from .green import (GreenKernel, SpectralSplit, _triangular_form,
                    kernel_parts, spectral_gaps_from_eigenvalues)
from .matcore import induced_norm, norm_kind, split_triangular
# kept for perfbench/tracing.py, which rebinds it here as in schur
from .schur import schur_decompose  # noqa: F401

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with a digit, so "-" then a digit (or ".digit")
        # is a negative number such as -1e2, not just -1 and -.5
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage problems are parse errors (exit 1)
        raise CliError(1, message)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        obj = json.loads(text)
        n = obj["n"]
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise ValueError("n must be a positive integer")
        pairs = np.array(obj["data"])
        if pairs.dtype.kind not in "iuf" or pairs.shape != (n, n, 2):
            raise ValueError("data must be an n x n array of [re, im] pairs")
        # np.array reads a boolean among numbers as 1 or 0; only a file
        # with a true or false token is scanned for one
        if ("true" in text or "false" in text) and any(
                type(x) is bool
                for row in obj["data"] for pair in row for x in pair):
            raise ValueError("data must hold numbers, not booleans")
        a = pairs[..., 0] + 1j * pairs[..., 1]
    except Exception as exc:
        raise CliError(1, f"cannot parse matrix file {path}: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise CliError(1, "matrix has non-finite entries")
    return a


def make_grid(t_min: float, t_max: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise CliError(1, "steps must be >= 1")
    if not np.isfinite([t_min, t_max]).all():
        raise CliError(1, "t-min and t-max must be finite")
    if t_min > t_max:
        raise CliError(1, "t-min must not exceed t-max")
    if t_min < 0.0 < t_max:
        neg = steps // 2
        pos = steps - neg
        if t_max / 100.0 == 0.0 or (neg and t_min / 100.0 == 0.0):
            raise CliError(1, "t-min and t-max are too close to 0 for a grid "
                              "that straddles it")
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
    """The upper triangular T plus derived data shared by every subcommand:
    T is the hard-zeroed triangular input or the Schur form of a dense one,
    and N = triu(T, 1), the eigenvalues and the kernel are read off it.

    ``t`` is the grid of times (None for ``gaps``) and each CSV column is a
    cached property over it; ``row(i, names)`` reads grid point i.  Columns,
    kernel, norms and tables are built on first use, so a command computes
    only what it prints or checks.
    """

    def __init__(self, a, p, t=None, gm_override=None, gp_override=None):
        try:  # the CLI's tolerance test for triangular input
            split_triangular(a)
            self.tri = np.triu(a)
        except NotTriangular:  # the CLI reads only T
            self.tri = _triangular_form(a, vectors=False)[1]
            if norm_kind(p) != 2:
                print("note: input is not triangular; Schur form applied and "
                      "the two-norm forced", file=sys.stderr)
            p = 2
        self.p = norm_kind(p)
        self.max_split = spectral_gaps_from_eigenvalues(np.diag(self.tri))
        self.split = self._apply_overrides(gm_override, gp_override)
        self.n = self.tri.shape[0]
        self.t = t

    def _apply_overrides(self, gm, gp) -> SpectralSplit:
        ms = self.max_split
        gm = ms.gamma_minus if gm is None else gm
        gp = ms.gamma_plus if gp is None else gp
        if not (0 < gm <= ms.gamma_minus and 0 < gp <= ms.gamma_plus):
            raise CliError(
                3,
                "gap override places an eigenvalue inside the strip "
                f"(maximal gamma_minus={ms.gamma_minus:g}, "
                f"gamma_plus={ms.gamma_plus:g})",
            )
        return SpectralSplit(gm, gp, ms.alpha, ms.m, ms.l, ms.rho)

    @cached_property
    def kernel(self) -> GreenKernel:
        return GreenKernel(self.tri)

    @cached_property
    def norm_n(self) -> float:
        return induced_norm(np.triu(self.tri, 1), self.p)

    @cached_property
    def table(self) -> bnd.EnvelopeTable:
        s = self.split
        return bnd.envelope_table(self.n, s.gamma_minus, s.gamma_plus, self.t)

    @cached_property
    def entrywise(self) -> tuple:
        """E(t) = sum_k W[t, k] |N|^k at every grid time, the packed pair
        of ``EnvelopeTable.packed_series``; ``entrywise_block`` reads it."""
        return self.table.packed_series(np.abs(np.triu(self.tri, 1)))

    def entrywise_block(self, ks) -> np.ndarray:
        """E(t) at the grid slice ks as full (k, n, n) matrices."""
        sums, layout = self.entrywise
        return bnd.unpack(sums[ks], layout, self.n)

    def kernel_blocks(self):
        """Yield (ks, gs, norms) along the grid, a kernel block at a time:
        ks is the block's slice of the grid, gs its G(t) and norms their
        p-norms (``GreenKernel.norms``), so each G is evaluated once."""
        start = 0
        for gs in self.kernel.blocks(self.t):
            ks = slice(start, start + len(gs))
            start = ks.stop
            yield ks, gs, self.kernel.norms(self.t[ks], gs, self.p)

    @cached_property
    def exact_norm(self) -> list:
        """The norm of G along the grid."""
        return [exact for _, _, norms in self.kernel_blocks()
                for exact in norms.tolist()]

    @cached_property
    def bound_triangular(self) -> np.ndarray:
        return self.table.series(self.norm_n)

    def entrywise_norms(self, e) -> np.ndarray:
        """The p-norm, p = 1 or inf, of each E(t) in a block e from
        ``entrywise_block``: each row summed pairwise, each column in row
        order."""
        axis = 2 if self.p == np.inf else 1
        with np.errstate(over="ignore"):  # an overflowing row sum is inf
            return e.sum(axis=axis).max(axis=1)

    @cached_property
    def bound_entrywise_norm(self):
        if self.p not in (1, np.inf):
            return [None] * len(self.t)
        return np.concatenate([
            self.entrywise_norms(self.entrywise_block(ks))
            for ks in kernel_parts(len(self.t), self.n)])

    @cached_property
    def bound_vanloan(self):
        """Van Loan's bound is the one-sided triangular bound at the maximal
        gap, on the side where the spectrum decays."""
        ms, s = self.max_split, self.split
        if ms.m and ms.l:
            return [None] * len(self.t)
        series = (self.bound_triangular if (s.gamma_minus, s.gamma_plus)
                  == (ms.gamma_minus, ms.gamma_plus)
                  else bnd.envelope_table(self.n, ms.gamma_minus,
                                          ms.gamma_plus, self.t)
                  .series(self.norm_n))
        return np.where((self.t > 0) == (ms.l == 0), series, None)

    @cached_property
    def bound_qtds18(self):
        s = self.split
        if s.m < 1 or s.l < 1:
            return [None] * len(self.t)
        norm_a = induced_norm(self.tri, self.p)
        qp = bnd.QtdsParams(norm_a, s.m, s.l, s.gamma_minus, s.gamma_plus)
        return bnd.qtds18_grid(qp, self.t)

    @cached_property
    def ratio_triangular(self) -> list:
        with np.errstate(over="ignore", invalid="ignore"):  # inf / inf is nan
            return [tri / exact if exact > 0 else None
                    for tri, exact in zip(self.bound_triangular,
                                          self.exact_norm)]

    def row(self, i: int, names) -> dict:
        return {name: getattr(self, name)[i] for name in names}


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--norm", default="2", choices=["1", "2", "inf"])
    p.add_argument("--gamma-minus", type=float, default=None)
    p.add_argument("--gamma-plus", type=float, default=None)
    p.add_argument("--output", default=None)


@cache  # parsing leaves the parser unchanged; building it costs ~1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gaps = sub.add_parser("gaps", help="report spectral gaps and counts")
    p_gaps.add_argument("matrix")
    p_gaps.set_defaults(run=cmd_gaps)

    for name in ("exact", "bound", "compare", "check"):
        p = sub.add_parser(name)
        p.add_argument("matrix")
        _add_grid_args(p)
        p.set_defaults(run=cmd_check if name == "check" else cmd_table)
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
    problem = Problem(load_matrix(args.matrix), 2)
    s = problem.max_split
    eigs = np.diag(problem.tri)
    print("eigenvalues:", " ".join(repr(complex(e)) for e in eigs))
    print(
        f"gamma_minus={s.gamma_minus:g} gamma_plus={s.gamma_plus:g} "
        f"gamma={s.gamma:g} alpha={s.alpha:g} m={s.m} l={s.l}"
    )
    return 0


def _grid_problem(args) -> Problem:
    return Problem(load_matrix(args.matrix), args.norm,
                   make_grid(args.t_min, args.t_max, args.steps),
                   args.gamma_minus, args.gamma_plus)


def _table_columns(args) -> tuple:
    """Columns of ``exact``, ``compare`` and ``bound --bound B`` (bound_B*)."""
    if args.command != "bound":
        return COLUMNS if args.command == "compare" else COLUMNS[:2]
    return ("t",) + tuple(c for c in BOUND_COLUMNS
                          if args.bound in ("all", c.split("_")[1]))


def _write(args, text: str) -> None:
    """A command's stdout text goes to --output when that is given."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(1, f"cannot write {args.output}: "
                          f"{exc.strerror or exc}") from exc


def cmd_table(args) -> int:
    columns = _table_columns(args)
    problem = _grid_problem(args)
    lines = [",".join(columns)]
    for i in range(len(problem.t)):
        lines.append(",".join(map(_fmt, problem.row(i, columns).values())))
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_check(args) -> int:
    scale = args.bound_scale
    if not (np.isfinite(scale) and scale > 0):
        raise CliError(1, f"--bound-scale must be finite and > 0, got "
                          f"{scale!r}")
    problem = _grid_problem(args)
    slack = 1.0 + 1e-9
    # every bound, packed E included, is built before the kernel, so that
    # the packed sums and a kernel block are never built at once; at p = 1
    # and inf, E's norm is read off each block of E as the loop unpacks it
    # for the entries
    e_norm = (BOUND_COLUMNS.index("bound_entrywise_norm")
              if problem.p in (1, np.inf) else None)
    columns = np.array([[None] * len(problem.t) if i == e_norm
                        else getattr(problem, col)
                        for i, col in enumerate(BOUND_COLUMNS)],
                       float)  # None reads as NaN
    problem.entrywise
    for ks, gs, exact in problem.kernel_blocks():
        # the times of this block, checked at once; the first violation in
        # grid order is reported, a norm column before an entry.  The kernel
        # runs on T, triangular input or a dense input's Schur form, so
        # |G(T)| <= E(T) is checked entry by entry on every input: that
        # catches a corrupted bound where the norm bounds are loose
        e = problem.entrywise_block(ks)
        if e_norm is not None:
            columns[e_norm, ks] = problem.entrywise_norms(e)
        with np.errstate(over="ignore"):  # an overflowing bound is inf
            bounds = columns[:, ks].T * scale
            by_norm = exact[:, None] > bounds * slack
            ew = e * scale
            abs_g = np.abs(gs)
            bad = (abs_g > ew * slack).reshape(len(gs), -1)
        hits = np.flatnonzero(by_norm.any(axis=1) | bad.any(axis=1))
        if not hits.size:
            continue
        i = hits[0]
        t = float(problem.t[ks][i])
        if by_norm[i].any():
            c = np.flatnonzero(by_norm[i])[0]
            _write(args, f"violation: t={t!r} exact={float(exact[i])!r} "
                         f"{BOUND_COLUMNS[c]}={float(bounds[i, c])!r}\n")
        else:
            # the violating entry first in row-major order
            r, c = divmod(int(np.flatnonzero(bad[i])[0]), problem.n)
            _write(args, f"violation: t={t!r} entry=({r},{c}) "
                         f"exact={float(abs_g[i, r, c])!r} "
                         f"bound_entrywise={float(ew[i, r, c])!r}\n")
        return 4
    unchecked = np.count_nonzero(~np.isfinite(columns).any(axis=0))
    if unchecked:
        times = len(problem.t)
        print(f"note: every norm bound is inf or nan at {unchecked} of "
              f"{times} times; the entrywise test |G(T)| <= E(T) ran at all "
              f"{times}", file=sys.stderr)
    _write(args, "ok\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
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
