"""Independent brute-force computations backing the closed forms.

Nothing here shares a code path with the quantities it checks: convolution
powers are computed by grid convolution and by the Bessel-product form, the
Green's function by resolvent contour quadrature, and the perturbation
identity by direct quadrature with an eigendecomposition-based kernel
evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import h_eval
from .errors import DomainError, SingularResolvent
from .green import GreenKernel, QuadSpec, _panel_nodes, spectral_gaps_from_eigenvalues
from .matcore import as_matrix, induced_norm


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


def default_conv_quad(gamma_minus: float, gamma_plus: float, t_max: float = 10.0) -> QuadSpec:
    """Truncation radius covering the envelope tail plus the largest |t|."""
    gmin = min(gamma_minus, gamma_plus)
    return QuadSpec(truncation_radius=30.0 / gmin + t_max, panels=1, nodes_per_panel=16)


def conv_power_grid(
    k: int, gamma_minus: float, gamma_plus: float, quad: QuadSpec
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
    m = int(math.ceil(quad.truncation_radius / dx))
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
    k: int, t: float, gamma_minus: float, gamma_plus: float,
    quad: QuadSpec | None = None, _grid=None,
) -> float:
    """h^{*k}(t) by grid convolution and per-side cubic spline interpolation.

    ``_grid`` lets callers reuse a precomputed (x, samples) pair when
    evaluating many times for one (k, gamma) combination.
    """
    if k == 1:
        return float(np.exp(-gamma_minus * t)) if t >= 0 else float(np.exp(gamma_plus * t))
    if _grid is None:
        if quad is None:
            quad = default_conv_quad(gamma_minus, gamma_plus, abs(t))
        _grid = conv_power_grid(k, gamma_minus, gamma_plus, quad)
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


@dataclass(frozen=True)
class ContourSpec:
    """Rectangular integration contour around one half-plane's spectrum."""

    half_plane: str  # "left" or "right"
    rect: tuple | None  # (re_min, re_max, im_min, im_max); None when empty
    nodes_per_edge: int = 400


def contour_for(a, t: float, nodes_per_edge: int = 400) -> ContourSpec:
    """Rectangle around the spectrum half relevant for the sign of t.

    The axis-side edge sits gamma/4 beyond the nearest relevant eigenvalue;
    the remaining edges get the same padding.
    """
    eigs = np.linalg.eigvals(as_matrix(a))
    split = spectral_gaps_from_eigenvalues(eigs)
    gamma_finite = [g for g in (split.gamma_minus, split.gamma_plus)
                    if math.isfinite(g)]
    gamma = sum(gamma_finite)
    pad = gamma / 4.0
    if t > 0:
        sel = eigs[eigs.real < 0]
        half = "left"
        if sel.size == 0:
            return ContourSpec(half, None, nodes_per_edge)
        re_min, re_max = sel.real.min() - pad, -split.gamma_minus + pad
    else:
        sel = eigs[eigs.real > 0]
        half = "right"
        if sel.size == 0:
            return ContourSpec(half, None, nodes_per_edge)
        re_min, re_max = split.gamma_plus - pad, sel.real.max() + pad
    im_min, im_max = sel.imag.min() - pad, sel.imag.max() + pad
    return ContourSpec(half, (re_min, re_max, im_min, im_max), nodes_per_edge)


def green_contour(a, t: float, spec: ContourSpec | None = None) -> np.ndarray:
    """G(A, t) by trapezoid quadrature of the resolvent contour integral.

    For t > 0 only the left-spectrum rectangle contributes (the kernel's
    symbol vanishes on the right half-plane for positive times) and the
    integrand is e^{lambda t} R(lambda); for t < 0 the right rectangle with
    -e^{lambda t}.
    """
    a = as_matrix(a)
    if t == 0:
        raise ValueError("t must be nonzero")
    eigs = np.linalg.eigvals(a)
    split = spectral_gaps_from_eigenvalues(eigs)
    if (t > 0 and split.m == 0) or (t < 0 and split.l == 0):
        return np.zeros_like(a)
    if spec is None:
        spec = contour_for(a, t)
    re_min, re_max, im_min, im_max = spec.rect
    corners = [
        re_min + 1j * im_min,
        re_max + 1j * im_min,
        re_max + 1j * im_max,
        re_min + 1j * im_max,
    ]
    nodes = []
    weights = []
    for c0, c1 in zip(corners, corners[1:] + corners[:1]):
        lam = np.linspace(c0, c1, spec.nodes_per_edge + 1)
        dlam = (c1 - c0) / spec.nodes_per_edge
        w = np.full(lam.shape, dlam, dtype=complex)
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(lam)
        weights.append(w)
    lam = np.concatenate(nodes)
    w = np.concatenate(weights)
    if np.min(np.abs(lam[:, None] - eigs[None, :])) < 1e-10:
        raise SingularResolvent("a contour node is too close to an eigenvalue")
    n = a.shape[0]
    resolvents = np.linalg.inv(
        lam[:, None, None] * np.eye(n)[None, :, :] - a[None, :, :]
    )
    g = np.exp(lam * t) if t > 0 else -np.exp(lam * t)
    total = np.einsum("s,s,sij->ij", w, g, resolvents)
    return total / (2j * np.pi)


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


def perturbation_residual(
    a, b, t: float, quad: QuadSpec | None = None
) -> float:
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
    if quad is None:
        gmin = min(g for g in (
            ka.split.gamma_minus, ka.split.gamma_plus,
            kb.split.gamma_minus, kb.split.gamma_plus) if math.isfinite(g))
        radius = 30.0 / gmin + abs(t)
        quad = QuadSpec(radius, max(4, math.ceil(radius)), 16)
    lhs = ka.at(t) - kb.at(t)
    breaks = sorted({-quad.truncation_radius, 0.0, t, quad.truncation_radius})
    fa = _eig_green_factors(a)
    fb = _eig_green_factors(b)
    diff = a - b
    rhs = np.zeros_like(a)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo <= 0:
            continue
        panels = max(1, math.ceil((hi - lo) / (quad.truncation_radius / quad.panels)))
        nodes, weights = _panel_nodes(lo, hi, panels, quad.nodes_per_panel)
        ga = _eig_green_batch(fa, nodes)
        gb = _eig_green_batch(fb, t - nodes)
        rhs += np.einsum("s,sij,jk,skl->il", weights.astype(complex), ga, diff, gb)
    return induced_norm(lhs - rhs, np.inf)
