"""Complex Schur decomposition A = Q T Q^H.

Already-triangular inputs take a fast path with Q = I.  Everything else goes
to LAPACK through ``scipy.linalg.schur`` (Hessenberg reduction plus shifted
QR); the complex output has no 2x2 real blocks.  A Schur form is unique only
up to the order of the eigenvalues on the diagonal of T, and LAPACK's order
is the one returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, NotTriangular
from .matcore import as_matrix, induced_norm, split_triangular


@dataclass(frozen=True)
class SchurForm:
    """Unitary Q and upper triangular T with A = Q T Q^H."""

    q: np.ndarray
    t: np.ndarray

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.t)


def hessenberg(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduce A to upper Hessenberg H with unitary Q0, A = Q0 H Q0^H."""
    h, q = scipy.linalg.hessenberg(as_matrix(a), calc_q=True)
    return q, h


def schur_decompose(a) -> SchurForm:
    """Schur decomposition of A; triangular inputs come back with Q = I.

    Raises ConvergenceFailure when LAPACK's QR iteration does not converge.
    """
    a = as_matrix(a)
    try:
        d, nil = split_triangular(a)
        return SchurForm(np.eye(a.shape[0], dtype=complex), d + nil)
    except NotTriangular:
        pass
    try:
        t, q = scipy.linalg.schur(a, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK Schur reduction failed: {exc}") from exc
    return SchurForm(q, t)


def reconstruction_residual(a, form: SchurForm) -> float:
    """norm_inf(A - Q T Q^H), for diagnostics and tests."""
    a = as_matrix(a)
    return induced_norm(a - form.q @ form.t @ form.q.conj().T, np.inf)


def unitarity_residual(form: SchurForm) -> float:
    """norm_inf(Q^H Q - I)."""
    n = form.n
    return induced_norm(form.q.conj().T @ form.q - np.eye(n), np.inf)
