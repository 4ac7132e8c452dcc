"""Independent brute-force computations backing the closed forms.

Nothing here shares a code path with the quantities it checks: convolution
powers are computed by grid convolution and by the Bessel-product form with
scipy's modified Bessel function, the Green's function by resolvent contour
quadrature and by Parlett's recurrence in extended precision, and the
perturbation identity by adaptive quadrature with an
eigendecomposition-based kernel evaluator.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import h_eval
from .errors import ConvergenceFailure, DomainError, SingularResolvent
from .green import GreenKernel, spectral_gaps_from_eigenvalues
from .matcore import as_matrix, induced_norm, split_triangular


def conv_power_bessel(k: int, t: float, gamma_minus: float, gamma_plus: float) -> float:
    """h^{*k}(t) from the Bessel-product form

        h(t) |t|^(k-1) sqrt(gamma |t|) e^x K_{k-1/2}(x) / (sqrt(pi) (k-1)!),
        x = gamma |t| / 2,

    with e^x K_{k-1/2}(x) read from ``scipy.special.kve`` (Amos, ACM TOMS 12,
    1986).  Cross-check of the closed form only: singular at t = 0.
    """
    # imported here so that `import greenbound` does not load it
    from scipy.special import kve

    at = abs(t)
    if at == 0:
        raise DomainError("Bessel path is singular at t = 0")
    gamma = gamma_minus + gamma_plus
    return float(
        h_eval(t, gamma_minus, gamma_plus)
        * at ** (k - 1)
        * math.sqrt(gamma * at)
        * kve(k - 0.5, 0.5 * gamma * at)
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
    if np.unique(np.diag(d)).size < n:
        raise DomainError("Parlett's recurrence needs a distinct diagonal")
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


def _eig_green(a):
    """s -> G(A, s) via the spectral resolution of A."""
    w, v = np.linalg.eig(a)
    vinv = np.linalg.inv(v)
    left = w.real < 0
    # e^-inf = 0 drops the half of the spectrum that G(s) does not keep
    return lambda s: (v * (np.sign(s) * np.exp(
        np.where(left == (s > 0), w * s, -np.inf)))) @ vinv


def perturbation_residual(a, b, t: float) -> float:
    """Defect of the identity
    G(A,t) - G(B,t) = integral G(A,s) (A-B) G(B,t-s) ds, in the inf-norm.

    The integral over [-R, R] is adaptive Gauss-Kronrod quadrature
    (``scipy.integrate.quad_vec``) with breakpoints at the kinks s = 0 and
    s = t, to 1e-10 on the largest entry in at most 2000 subintervals, of an
    independent eigendecomposition evaluator of G; raises ConvergenceFailure
    where that tolerance is not met.
    """
    # imported here so that `import greenbound` does not load it
    from scipy.integrate import quad_vec

    a = as_matrix(a)
    b = as_matrix(b)
    if t == 0:
        raise ValueError("t must be nonzero")
    ka, kb = GreenKernel(a), GreenKernel(b)
    gmin = min(g for g in (
        ka.split.gamma_minus, ka.split.gamma_plus,
        kb.split.gamma_minus, kb.split.gamma_plus) if math.isfinite(g))
    radius = 30.0 / gmin + abs(t)
    ga, gb, diff = _eig_green(a), _eig_green(b), a - b
    rhs, _, info = quad_vec(lambda s: ga(s) @ diff @ gb(t - s), -radius,
                            radius, epsabs=1e-10, epsrel=0.0, norm="max",
                            points=(0.0, t), limit=2000, full_output=True)
    if not info.success:
        raise ConvergenceFailure(f"perturbation integral: {info.message}")
    return induced_norm(ka.at(t) - kb.at(t) - rhs, np.inf)
