"""Dense complex matrix helpers: validation, the D+N triangular split,
entrywise absolute values, and induced matrix norms (numpy/LAPACK).

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Upper triangular is the canonical orientation throughout; lower-triangular
inputs are rejected rather than silently transposed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NotStrictlyTriangular, NotTriangular

# Subdiagonal noise below this (relative to the inf-norm) is treated as zero.
TRIANGULAR_ATOL_FACTOR = 1e-13

_NORM_ALIASES = {1: 1, "1": 1, 2: 2, "2": 2, np.inf: np.inf, "inf": np.inf}


def norm_kind(p) -> float:
    """Normalize a norm selector to 1, 2 or numpy.inf."""
    try:
        return _NORM_ALIASES[p]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported norm kind: {p!r}") from None


def as_matrix(a) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def split_triangular(b) -> tuple[np.ndarray, np.ndarray]:
    """Split an upper triangular B into diagonal D and strictly upper N.

    Subdiagonal entries up to ``1e-13 * norm_inf(B)`` are hard-zeroed; anything
    larger raises :class:`NotTriangular`.  D + N reproduces the hard-zeroed B
    exactly.
    """
    b = as_matrix(b)
    atol = TRIANGULAR_ATOL_FACTOR * induced_norm(b, np.inf)
    lower = np.tril(b, -1)
    if lower.size and np.abs(lower).max() > atol:
        i, j = np.unravel_index(np.argmax(np.abs(lower)), lower.shape)
        raise NotTriangular(
            f"subdiagonal entry ({i},{j}) = {b[i, j]} exceeds tolerance {atol:g}"
        )
    clean = np.triu(b)
    d = np.diag(np.diag(clean))
    n = clean - d
    return d, n


def entrywise_abs(a) -> np.ndarray:
    """|A|: the real matrix of entry magnitudes."""
    return np.abs(as_matrix(a))


def induced_norm(a, p) -> float:
    """Operator norm induced by the 1, 2 or infinity vector norm.

    ``numpy.linalg.norm``: the largest absolute column or row sum for 1 and
    infinity, the largest singular value from LAPACK's SVD for 2.  An SVD
    that does not converge raises :class:`ConvergenceFailure`.
    """
    try:
        return float(np.linalg.norm(as_matrix(a), norm_kind(p)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"two-norm SVD failed: {exc}") from exc


def require_strictly_triangular(n) -> np.ndarray:
    """Validate that N is strictly upper triangular (within split tolerance)."""
    n = as_matrix(n)
    d, strict = split_triangular(n)
    if np.abs(np.diag(d)).max() > TRIANGULAR_ATOL_FACTOR * max(
        1.0, induced_norm(n, np.inf)
    ):
        raise NotStrictlyTriangular("matrix has nonzero diagonal entries")
    return strict
