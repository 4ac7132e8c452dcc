"""Exact Green's function of the bounded-solutions problem.

For x'(t) = A x(t) + f(t) with the spectrum of A off the imaginary axis, the
unique bounded solution is the convolution of f with the kernel

    G(A, t) = e^{At} P-   (t > 0),      G(A, t) = -e^{At} P+   (t < 0),

where P-/P+ are the spectral projectors onto the invariant subspaces of the
left/right half-plane eigenvalues.  The projectors come from the matrix sign
function via a scaled Newton iteration; the exponential is scipy's expm
(Al-Mohy & Higham scaling and squaring with a Pade degree of 3 to 13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    SingularIteration,
    SpectrumOnAxis,
    UndefinedAtZero,
)
from .matcore import as_matrix, induced_norm, split_triangular

AXIS_RTOL = 1e-12
SIGN_RTOL = 1e-13
SIGN_MAX_ITER = 100

INF = float("inf")


@dataclass(frozen=True)
class SpectralSplit:
    """Dichotomy data read off the spectrum.

    gamma_minus / gamma_plus are the distances from the imaginary axis to the
    left / right part of the spectrum (+inf when that part is empty); alpha is
    the largest real part; m and l count left/right eigenvalues.
    """

    gamma_minus: float
    gamma_plus: float
    alpha: float
    m: int
    l: int

    @property
    def gamma(self) -> float:
        return self.gamma_minus + self.gamma_plus

    @property
    def n(self) -> int:
        return self.m + self.l


def spectral_gaps_from_eigenvalues(eigs) -> SpectralSplit:
    """Build a SpectralSplit from an eigenvalue multiset.

    Raises SpectrumOnAxis when an eigenvalue's real part is within
    ``1e-12 * max|eig|`` of zero.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    re = eigs.real
    axis_tol = AXIS_RTOL * scale
    if np.any(np.abs(re) <= axis_tol):
        bad = eigs[np.abs(re) <= axis_tol]
        raise SpectrumOnAxis(
            f"eigenvalue {bad[0]} lies on the imaginary axis (tol {axis_tol:g})"
        )
    left = re[re < 0]
    right = re[re > 0]
    return SpectralSplit(
        gamma_minus=float(-left.max()) if left.size else INF,
        gamma_plus=float(right.min()) if right.size else INF,
        alpha=float(re.max()),
        m=int(left.size),
        l=int(right.size),
    )


def spectral_gaps(t_mat) -> SpectralSplit:
    """Gaps and half-plane counts of an upper triangular matrix."""
    d, _ = split_triangular(t_mat)
    return spectral_gaps_from_eigenvalues(np.diag(d))


def matrix_sign(a) -> np.ndarray:
    """Matrix sign function by Newton iteration with determinant scaling."""
    s = as_matrix(a).copy()
    n = s.shape[0]
    for _ in range(SIGN_MAX_ITER):
        sign_det, logabsdet = np.linalg.slogdet(s)
        if sign_det == 0 or not np.isfinite(logabsdet):
            raise SingularIteration("sign iteration hit a singular iterate")
        mu = math.exp(-logabsdet / n)
        ms = mu * s
        try:
            inv = np.linalg.inv(ms)
        except np.linalg.LinAlgError as exc:
            raise SingularIteration(str(exc)) from exc
        s_next = 0.5 * (ms + inv)
        delta = induced_norm(s_next - s, np.inf)
        s = s_next
        if delta <= SIGN_RTOL * induced_norm(s, np.inf):
            return s
    raise ConvergenceFailure("matrix sign Newton iteration did not converge")


def spectral_projectors(a) -> tuple[np.ndarray, np.ndarray]:
    """(P-, P+) from the matrix sign function: P∓ = (I ∓ sign(A)) / 2."""
    a = as_matrix(a)
    s = matrix_sign(a)
    eye = np.eye(a.shape[0], dtype=complex)
    return 0.5 * (eye - s), 0.5 * (eye + s)


def matrix_exp(a) -> np.ndarray:
    """e^A by ``scipy.linalg.expm``.

    That is Al-Mohy & Higham's scaling and squaring (2009): the Pade degree
    (3 to 13) and the number of squarings come from 1-norm estimates.
    """
    return scipy.linalg.expm(as_matrix(a))


class GreenKernel:
    """Green's function evaluator for a fixed coefficient matrix.

    Precomputes the spectral projectors once and keeps no other state, so
    evaluations at distinct times are independent and every call returns a
    fresh array.
    """

    def __init__(self, a, split: SpectralSplit | None = None):
        self.a = as_matrix(a)
        if split is None:
            split = spectral_gaps_from_eigenvalues(np.linalg.eigvals(self.a))
        self.split = split
        if split.m == 0:
            self.p_minus = np.zeros_like(self.a)
            self.p_plus = np.eye(self.a.shape[0], dtype=complex)
        elif split.l == 0:
            self.p_minus = np.eye(self.a.shape[0], dtype=complex)
            self.p_plus = np.zeros_like(self.a)
        else:
            self.p_minus, self.p_plus = spectral_projectors(self.a)

    def _exp_projected(self, t: float, p: np.ndarray) -> np.ndarray:
        """e^{At} P for an A-commuting spectral projector P.

        Plain matrix_exp(A t) @ P cancels catastrophically once the discarded
        half of the spectrum makes e^{At} large, so square up from a small
        argument and reproject after every squaring; the retained modes decay
        and the contamination of the others cannot amplify.
        """
        norm = induced_norm(self.a, np.inf) * abs(t)
        s = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
        r = matrix_exp(self.a * (t / 2.0 ** s)) @ p
        for _ in range(s):
            r = p @ (r @ r)
        return r

    def at(self, t: float) -> np.ndarray:
        if t == 0:
            raise UndefinedAtZero("Green's function is undefined at t = 0")
        if t > 0:
            return self._exp_projected(t, self.p_minus)
        return -self._exp_projected(t, self.p_plus)


def green_function(a, t: float) -> np.ndarray:
    """G(A, t) for a single time; builds a throwaway kernel."""
    return GreenKernel(a).at(t)


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Legendre panel layout for convolution integrals."""

    truncation_radius: float
    panels: int
    nodes_per_panel: int = 16


def default_quad(split: SpectralSplit, extra: float = 0.0) -> QuadSpec:
    """Truncation so the h-envelope tail drops below 1e-12."""
    finite = [g for g in (split.gamma_minus, split.gamma_plus) if g != INF]
    gmin = min(finite)
    radius = -math.log(1e-12) / gmin + extra
    width = min(1.0, 1.0 / sum(finite))
    return QuadSpec(radius, max(1, math.ceil(radius / width)), 16)


def _panel_nodes(lo: float, hi: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def bounded_solution(a, f, t: float, quad: QuadSpec | None = None) -> np.ndarray:
    """Bounded solution x(t) = integral of G(A, s) f(t - s) ds.

    f maps a real time to a vector of length n and must be bounded and
    continuous.
    """
    kernel = GreenKernel(a)
    if quad is None:
        quad = default_quad(kernel.split)
    r = quad.truncation_radius
    pieces = []
    if kernel.split.m > 0:
        pieces.append(_panel_nodes(0.0, r, quad.panels, quad.nodes_per_panel))
    if kernel.split.l > 0:
        pieces.append(_panel_nodes(-r, 0.0, quad.panels, quad.nodes_per_panel))
    x = np.zeros(kernel.a.shape[0], dtype=complex)
    for nodes, weights in pieces:
        for s, w in zip(nodes, weights):
            x += w * (kernel.at(s) @ np.asarray(f(t - s), dtype=complex))
    return x
