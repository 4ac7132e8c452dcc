"""Complex Schur decomposition A = Q T Q^H.

The reduction is LAPACK's ``gees`` (Hessenberg reduction plus shifted QR),
called directly; the complex output has no 2x2 real blocks.  Q is built only
on request: the CLI reads T alone, and skipping Q saves most of the QR work.
The workspace is queried for the same request, so T is bitwise the T of
``scipy.linalg.schur`` either way.  An exactly upper triangular input comes
back unchanged, with T = A and Q = I.  A Schur form is unique only up to the
order of the eigenvalues on the diagonal of T, and LAPACK's order is the one
returned.  LAPACK is reached through ``lapack``, and scipy through it and
``hessenberg``: scipy is imported on the first Schur form of a dense A and
never for a triangular one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .matcore import as_matrix, induced_norm


@dataclass(frozen=True)
class SchurForm:
    """Unitary Q (None when not requested) and upper triangular T with
    A = Q T Q^H."""

    q: np.ndarray | None
    t: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.t)


def lapack(name: str, a):
    """LAPACK's routine ``name`` for A's dtype (zgees for "gees" and a
    complex A), from ``scipy.linalg.lapack``, imported on the first call."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack.get_lapack_funcs((name,), (a,))[0]


def hessenberg(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduce A to upper Hessenberg H with unitary Q0, A = Q0 H Q0^H."""
    import scipy.linalg

    h, q = scipy.linalg.hessenberg(as_matrix(a), calc_q=True)
    return q, h


def _no_sort(_):
    return None


def schur_decompose(a, vectors: bool = True) -> SchurForm:
    """Schur decomposition of A; with ``vectors=False`` only T, and q is None.

    Raises ConvergenceFailure when LAPACK's QR iteration does not converge.
    """
    a = as_matrix(a)
    gees = lapack("gees", a)
    lwork = int(gees(_no_sort, a, compute_v=vectors, lwork=-1)[-2][0].real)
    t, _, _, q, _, info = gees(_no_sort, a, compute_v=vectors, lwork=lwork)
    if info > 0:
        raise ConvergenceFailure("LAPACK Schur reduction failed: QR iteration "
                                 f"did not converge (info={info})")
    return SchurForm(q if vectors else None, t)


def reconstruction_residual(a, form: SchurForm) -> float:
    """norm_inf(A - Q T Q^H) of a form with Q, for diagnostics and tests."""
    a = as_matrix(a)
    return induced_norm(a - form.q @ form.t @ form.q.conj().T, np.inf)


def unitarity_residual(form: SchurForm) -> float:
    """norm_inf(Q^H Q - I) of a form with Q."""
    eye = np.eye(form.t.shape[0])
    return induced_norm(form.q.conj().T @ form.q - eye, np.inf)
