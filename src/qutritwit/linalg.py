"""Dense complex matrix kernel: Kronecker products, partial transposition,
the Hermitian eigensolver (LAPACK ``eigh``, the one eigensolver the package
uses, the see-saw included), PSD tests and trace pairings.

All operators are numpy arrays with complex entries.  Two-qutrit operators
use the row-major composite convention: the product ket |ij> (1-based labels
i for the first factor, j for the second) sits at flat index 3*(i-1) + (j-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

DEFAULT_PSD_TOL = 1e-9
DEFAULT_HERMITICITY_TOL = 1e-10


def as_matrix(M) -> Array:
    """Coerce input to a square complex ndarray."""
    A = np.asarray(getattr(M, "matrix", M), dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def dagger(M: Array) -> Array:
    return np.conj(np.asarray(M)).T


def frobenius(M: Array) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def hermitian_defect(M: Array) -> float:
    """Frobenius norm of the anti-Hermitian part, ||M - M^dagger||_F."""
    A = np.asarray(M)
    return float(np.linalg.norm(A - dagger(A)))


def require_hermitian(M, tol: float = DEFAULT_HERMITICITY_TOL) -> Array:
    A = as_matrix(M)
    if hermitian_defect(A) > tol * max(1.0, frobenius(A)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return (A + dagger(A)) / 2.0


def kron(A: Array, B: Array) -> Array:
    """Kronecker product with index order (i_A, i_B) on rows and columns."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def partial_transpose(M, subsystem: str = "second") -> Array:
    """Partial transpose of a 9x9 operator on C^3 (x) C^3.

    With subsystem "second", <ij|M^G|kl> = <il|M|kj>; with "first",
    <ij|M^G|kl> = <kj|M|il>.
    """
    A = as_matrix(M)
    if A.shape != (9, 9):
        raise ValueError("partial transpose expects a 9x9 matrix")
    T = A.reshape(3, 3, 3, 3)
    if subsystem == "second":
        T = T.transpose(0, 3, 2, 1)
    elif subsystem == "first":
        T = T.transpose(2, 1, 0, 3)
    else:
        raise ValueError("subsystem must be 'first' or 'second'")
    return T.reshape(9, 9)


@dataclass(frozen=True)
class HermitianEigenResult:
    """Eigenvalues in ascending order and orthonormal eigenvector columns."""

    eigenvalues: Array
    eigenvectors: Array

    def reconstruct(self) -> Array:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ dagger(V)


def hermitian_eigen(H, tol: float = DEFAULT_HERMITICITY_TOL) -> HermitianEigenResult:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    The input is checked for Hermiticity within ``tol`` and symmetrized first.
    """
    w, V = np.linalg.eigh(require_hermitian(H, tol))
    return HermitianEigenResult(w, V)


def eigenvalues(H, tol: float = DEFAULT_HERMITICITY_TOL) -> Array:
    """Ascending eigenvalues of a Hermitian matrix."""
    return hermitian_eigen(H, tol).eigenvalues


def min_eigenvalue(H, tol: float = DEFAULT_HERMITICITY_TOL) -> float:
    return float(eigenvalues(H, tol)[0])


def is_psd(H, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True when the smallest eigenvalue is >= -tol.  Input must be Hermitian."""
    return min_eigenvalue(H) >= -tol


def trace_pair(A, B) -> complex:
    """Hilbert-Schmidt pairing Tr(A B)."""
    X = as_matrix(A)
    Y = as_matrix(B)
    if X.shape != Y.shape:
        raise ValueError("trace pairing requires equal dimensions")
    return complex(np.trace(X @ Y))
