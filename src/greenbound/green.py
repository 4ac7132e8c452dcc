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
    FloatOverflow,
    SingularIteration,
    SpectrumOnAxis,
    UndefinedAtZero,
)
from .matcore import as_matrix, induced_norm, split_triangular

AXIS_RTOL = 1e-12
SIGN_RTOL = 1e-13
SIGN_MAX_ITER = 100
GAUSS_NODES = 16

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
    with np.errstate(over="ignore", invalid="ignore"):  # checked per step
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
            if not np.isfinite(s_next).all():
                raise FloatOverflow("matrix sign iterate overflows")
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

    Precomputes the spectral projectors and ‖A‖∞ once and keeps no other
    state, so evaluations at distinct times are independent and every call
    returns a fresh array.
    """

    def __init__(self, a, split: SpectralSplit | None = None):
        self.a = as_matrix(a)
        self.norm_inf = induced_norm(self.a, np.inf)
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

    def at(self, t: float) -> np.ndarray:
        """G(t); inf/NaN where it leaves the float range (``along`` checks).

        Plain matrix_exp(A t) @ P cancels catastrophically once the discarded
        half of the spectrum makes e^{At} large, so square up s times from
        A t / 2^s, s = ceil(log2 ‖A t‖∞) (from the binary exponents where that
        exceeds the float range), and reproject after every squaring; the
        retained modes decay and the others' contamination cannot amplify.
        """
        if t == 0:
            raise UndefinedAtZero("Green's function is undefined at t = 0")
        p = self.p_minus if t > 0 else self.p_plus
        norm = self.norm_inf * abs(t)
        s = (math.ceil(math.log2(max(norm, 1.0))) if norm < INF
             else math.frexp(self.norm_inf)[1] + math.frexp(t)[1])
        r = matrix_exp(self.a * math.ldexp(t, -s)) @ p
        for _ in range(s):
            r = p @ (r @ r)
        return r if t > 0 else -r

    def along(self, ts):
        """Yield G(t) for each t in ts, computed with numpy's overflow
        warnings off; a G(t) beyond the float range raises FloatOverflow
        instead.  The caller's settings hold while a G(t) is yielded."""
        for t in ts:
            with np.errstate(over="ignore", invalid="ignore"):
                g = self.at(t)
            if not np.isfinite(g).all():
                raise FloatOverflow(f"G(t) overflows at t={float(t)!r}")
            yield g


def green_function(a, t: float) -> np.ndarray:
    """G(A, t) for a single time; builds a throwaway kernel."""
    return next(GreenKernel(a).along([t]))


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Legendre panel layout for convolution integrals."""

    truncation_radius: float
    panels: int


def default_quad(split: SpectralSplit) -> QuadSpec:
    """Truncation so the h-envelope tail drops below 1e-12."""
    finite = [g for g in (split.gamma_minus, split.gamma_plus) if g != INF]
    gmin = min(finite)
    radius = -math.log(1e-12) / gmin
    width = min(1.0, 1.0 / sum(finite))
    return QuadSpec(radius, max(1, math.ceil(radius / width)))


def _panel_nodes(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def bounded_solution(a, f, t: float) -> np.ndarray:
    """Bounded solution x(t) = integral of G(A, s) f(t - s) ds.

    f maps a real time to a vector of length n and must be bounded and
    continuous.  The quadrature is ``default_quad`` of the spectral split.
    """
    kernel = GreenKernel(a)
    quad = default_quad(kernel.split)
    r = quad.truncation_radius
    pieces = []
    if kernel.split.m > 0:
        pieces.append(_panel_nodes(0.0, r, quad.panels))
    if kernel.split.l > 0:
        pieces.append(_panel_nodes(-r, 0.0, quad.panels))
    x = np.zeros(kernel.a.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below
        for nodes, weights in pieces:
            for s, w in zip(nodes, weights):
                x += w * (kernel.at(s) @ np.asarray(f(t - s), dtype=complex))
    if not np.isfinite(x).all():
        raise FloatOverflow(f"bounded solution overflows at t={float(t)!r}")
    return x
