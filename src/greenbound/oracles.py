"""Independent brute-force computations backing the closed forms.

Nothing here shares a code path with the quantities it checks: convolution
powers are computed by grid convolution and by the Bessel-product form, the
Green's function by resolvent contour quadrature and by Parlett's recurrence
in extended precision, and the perturbation identity by direct quadrature
with an eigendecomposition-based kernel evaluator.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import h_eval
from .errors import ConvergenceFailure, DomainError, SingularResolvent
from .green import GAUSS_W, GAUSS_X, GreenKernel, spectral_gaps_from_eigenvalues
from .matcore import as_matrix, induced_norm, split_triangular


def bessel_k_half(m: int, x: float) -> float:
    """K_{m+1/2}(x) via the exact finite sum for half-integer order."""
    if x <= 0:
        raise DomainError("bessel_k_half requires x > 0")
    if m < 0:
        raise DomainError("order index must be nonnegative")
    total = 0.0
    for j in range(m + 1):
        total += (
            math.factorial(m + j)
            / (math.factorial(j) * math.factorial(m - j) * (2.0 * x) ** j)
        )
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total


def conv_power_bessel(k: int, t: float, gamma_minus: float, gamma_plus: float) -> float:
    """h^{*k}(t) from the Bessel-product form

        h(t) |t|^(k-1) sqrt(gamma |t|) e^x K_{k-1/2}(x) / (sqrt(pi) (k-1)!),
        x = gamma |t| / 2.

    Cross-check of the closed form only: singular at t = 0, and the
    prefactor overflows for large gamma |t|.
    """
    at = abs(t)
    if at == 0:
        raise DomainError("Bessel path is singular at t = 0")
    gamma = gamma_minus + gamma_plus
    x = 0.5 * gamma * at
    return (
        h_eval(t, gamma_minus, gamma_plus)
        * at ** (k - 1)
        * math.sqrt(gamma * at)
        * math.exp(x)
        * bessel_k_half(k - 1, x)
        / (math.sqrt(math.pi) * math.factorial(k - 1))
    )


def default_conv_quad(gamma_minus: float, gamma_plus: float, t_max: float = 10.0) -> float:
    """Truncation radius covering the envelope tail plus the largest |t|."""
    return 30.0 / min(gamma_minus, gamma_plus) + t_max


def conv_power_grid(
    k: int, gamma_minus: float, gamma_plus: float, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled h^{*k} on a uniform grid by repeated FFT convolution.

    The envelope has a derivative jump of -gamma at 0; the sample there gets
    the Euler-Maclaurin kink correction -gamma*dx/12 so the trapezoid-style
    discrete convolution stays O(dx^4) accurate.
    """
    # imported here so that `import greenbound` does not load it
    from scipy.signal import fftconvolve

    if k < 1:
        raise ValueError("convolution power must be >= 1")
    gamma = gamma_minus + gamma_plus
    dx = min(0.01, 0.1 / gamma)
    m = int(math.ceil(radius / dx))
    x = np.arange(-m, m + 1) * dx
    h = np.where(x >= 0, np.exp(-gamma_minus * x), np.exp(gamma_plus * x))
    h_corr = h.copy()
    h_corr[m] -= gamma * dx / 12.0
    # both factors of each convolution carry the kink correction
    c = h_corr.copy()
    for _ in range(k - 1):
        full = fftconvolve(c, h_corr) * dx
        center = (len(full) - 1) // 2
        c = full[center - m: center + m + 1]
    return x, c


def conv_power_numeric(
    k: int, t: float, gamma_minus: float, gamma_plus: float, _grid=None,
) -> float:
    """h^{*k}(t) by grid convolution and per-side cubic spline interpolation.

    ``_grid`` lets callers reuse a precomputed (x, samples) pair when
    evaluating many times for one (k, gamma) combination.
    """
    if k == 1:
        return float(np.exp(-gamma_minus * t)) if t >= 0 else float(np.exp(gamma_plus * t))
    if _grid is None:
        radius = default_conv_quad(gamma_minus, gamma_plus, abs(t))
        _grid = conv_power_grid(k, gamma_minus, gamma_plus, radius)
    # imported here so that `import greenbound` does not load it
    from scipy.interpolate import CubicSpline

    x, c = _grid
    m = (len(x) - 1) // 2
    # splines fitted one-sidedly: h^{*k} is piecewise smooth with the only
    # possible kink at 0
    if t >= 0:
        spline = CubicSpline(x[m:], c[m:])
    else:
        spline = CubicSpline(x[: m + 1], c[: m + 1])
    return float(spline(t))


def contour_for(a, t: float, nodes_per_edge: int = 400):
    """Trapezoid rules on a rectangle around the half of the spectrum that
    G(t) keeps, or None when that half is empty.

    Every edge sits gamma/4 outside the eigenvalues of that half.
    Returns the nodes of the four edges, ends included, and a (2, nodes)
    weight array: the rule on every node, then the rule on every other node.
    """
    if nodes_per_edge < 2 or nodes_per_edge % 2:
        raise ValueError("nodes_per_edge must be a positive even number")
    eigs = np.linalg.eigvals(as_matrix(a))
    split = spectral_gaps_from_eigenvalues(eigs)
    pad = sum(g for g in (split.gamma_minus, split.gamma_plus)
              if math.isfinite(g)) / 4.0
    sel = eigs[(eigs.real < 0) == (t > 0)]
    if sel.size == 0:
        return None
    if t > 0:
        re = sel.real.min() - pad, -split.gamma_minus + pad
    else:
        re = split.gamma_plus - pad, sel.real.max() + pad
    im = sel.imag.min() - pad, sel.imag.max() + pad
    corners = [re[i] + 1j * im[j]
               for i, j in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))]
    # one edge's weights in units of its node spacing
    fine = np.r_[0.5, np.ones(nodes_per_edge - 1), 0.5]
    rule = np.array([fine, 2 * fine * (np.arange(fine.size) % 2 == 0)])
    nodes, weights = zip(*[(np.linspace(c0, c1, nodes_per_edge + 1),
                            (c1 - c0) / nodes_per_edge * rule)
                           for c0, c1 in zip(corners, corners[1:])])
    return np.concatenate(nodes), np.concatenate(weights, axis=1)


def green_contour(a, t: float, contour=None) -> np.ndarray:
    """G(A, t) by trapezoid quadrature of the resolvent contour integral.

    For t > 0 only the left-spectrum rectangle contributes (the kernel's
    symbol vanishes on the right half-plane for positive times) and the
    integrand is e^{lambda t} R(lambda); for t < 0 the right rectangle with
    -e^{lambda t}.  ``contour`` defaults to ``contour_for(a, t)``.  Raises
    ConvergenceFailure when the error estimate |G_N - G_N/2| / 3 of the
    O(h^2) rule passes 1e-5 max|G|.
    """
    a = as_matrix(a)
    if t == 0:
        raise ValueError("t must be nonzero")
    contour = contour_for(a, t) if contour is None else contour
    if contour is None:
        return np.zeros_like(a)
    lam, weights = contour
    if np.min(np.abs(lam[:, None] - np.linalg.eigvals(a)[None, :])) < 1e-10:
        raise SingularResolvent("a contour node is too close to an eigenvalue")
    resolvents = np.linalg.inv(lam[:, None, None] * np.eye(len(a)) - a)
    g = np.exp(lam * t) if t > 0 else -np.exp(lam * t)
    fine, coarse = (np.einsum("s,s,sij->ij", w, g, resolvents) / (2j * np.pi)
                    for w in weights)
    err, scale = np.abs(fine - coarse).max() / 3.0, np.abs(fine).max()
    if not err <= 1e-5 * scale:
        raise ConvergenceFailure(f"contour error estimate {err:.3g} exceeds "
                                 f"1e-05 of max|G| = {scale:.3g}")
    return fine


def green_parlett(t_mat, t: float, dps: int = 100) -> np.ndarray:
    """G(T, t) of an upper triangular T by Parlett's recurrence in mpmath.

    G = f(T) with f(z) = e^{zt} on Re z < 0 for t > 0 and f(z) = -e^{zt} on
    Re z > 0 for t < 0, zero elsewhere.  f(T) commutes with T, which gives
    each superdiagonal from the ones below it (Higham, *Functions of
    Matrices*, SIAM 2008, ch. 4):

        f_ij (t_jj - t_ii) = t_ij (f_jj - f_ii)
                             + sum_{i<k<j} (t_ik f_kj - f_ik t_kj).

    The diagonal of T must be distinct.  Worked in ``dps`` decimal digits and
    rounded to complex128 at the end.
    """
    # imported here so that `import greenbound` does not load it
    import mpmath

    d, n_mat = split_triangular(t_mat)
    n = d.shape[0]
    with mpmath.workdps(dps):
        a = [[mpmath.mpc(z) for z in row] for row in (d + n_mat).tolist()]
        time = mpmath.mpf(t)
        f = [[mpmath.mpc(0)] * n for _ in range(n)]
        for i in range(n):
            if (a[i][i].real < 0) == (t > 0):
                f[i][i] = mpmath.exp(a[i][i] * time) * (1 if t > 0 else -1)
        for p in range(1, n):
            for i in range(n - p):
                j = i + p
                mid = range(i + 1, j)
                total = (a[i][j] * (f[j][j] - f[i][i])
                         + mpmath.fdot((a[i][k], f[k][j]) for k in mid)
                         - mpmath.fdot((f[i][k], a[k][j]) for k in mid))
                f[i][j] = total / (a[j][j] - a[i][i])
        return np.array([[complex(z) for z in row] for row in f])


def _eig_green_factors(a):
    w, v = np.linalg.eig(as_matrix(a))
    return w, v, np.linalg.inv(v)


def _eig_green_batch(factors, s: np.ndarray) -> np.ndarray:
    """G(A, s) for an array of times via the spectral resolution of A."""
    w, v, vinv = factors
    s = np.asarray(s, dtype=float)
    pos = (s[:, None] > 0)
    left = (w.real < 0)[None, :]
    ew = np.exp(w[None, :] * s[:, None])
    g = np.where(pos, np.where(left, ew, 0.0), np.where(~left, -ew, 0.0))
    return np.einsum("ij,sj,jk->sik", v, g, vinv)


def _panel_nodes(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * GAUSS_X[None, :]).ravel()
    weights = (half[:, None] * GAUSS_W[None, :]).ravel()
    return nodes, weights


def perturbation_residual(a, b, t: float) -> float:
    """Defect of the identity
    G(A,t) - G(B,t) = integral G(A,s) (A-B) G(B,t-s) ds, in the inf-norm.

    The quadrature splits panels at s = 0 and s = t where the integrand has
    kinks.  The kernel values inside the integral come from an independent
    eigendecomposition evaluator.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if t == 0:
        raise ValueError("t must be nonzero")
    ka, kb = GreenKernel(a), GreenKernel(b)
    gmin = min(g for g in (
        ka.split.gamma_minus, ka.split.gamma_plus,
        kb.split.gamma_minus, kb.split.gamma_plus) if math.isfinite(g))
    radius = 30.0 / gmin + abs(t)
    width = radius / max(4, math.ceil(radius))  # of a full panel
    lhs = ka.at(t) - kb.at(t)
    breaks = sorted({-radius, 0.0, t, radius})
    fa = _eig_green_factors(a)
    fb = _eig_green_factors(b)
    diff = a - b
    rhs = np.zeros_like(a)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo <= 0:
            continue
        panels = max(1, math.ceil((hi - lo) / width))
        nodes, weights = _panel_nodes(lo, hi, panels)
        ga = _eig_green_batch(fa, nodes)
        gb = _eig_green_batch(fb, t - nodes)
        rhs += np.einsum("s,sij,jk,skl->il", weights.astype(complex), ga, diff, gb)
    return induced_norm(lhs - rhs, np.inf)
