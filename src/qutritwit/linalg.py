"""Dense complex matrix kernel: partial transposition on the second factor,
Hermitian eigenvalues (LAPACK's eigenvalue-only driver ``eigvalsh``; the
see-saw reads eigenvectors and has its own 3x3 solver, ``oracles._lowest``),
PSD tests and trace pairings.

Every spectrum passes the guard `require_hermitian`, which rejects a non-finite
entry first.  Exactly Hermitian input, as every operator the package builds
is, then goes to LAPACK as is: the guard may return the input array itself, so
callers must not write to its result.  Only inexact input is checked against
the tolerance and symmetrized, halved before adding; when its norm overflows
but every entry is finite, the check compares norms scaled by the largest
entry, so a huge non-Hermitian matrix is still rejected and a huge Hermitian
one keeps a finite spectrum.

All operators are numpy arrays with complex entries.  Two-qutrit operators
use the row-major composite convention: the product ket |ij> (1-based labels
i for the first factor, j for the second) sits at flat index 3*(i-1) + (j-1).
These kets fall into three index groups, forms.INDEX_GROUPS, on which
`structured` builds every structured operator from its numpy-free form in
forms: witnesses calls it for the witnesses, the probe states, the SPA pieces
and the P + Q^G certificate.
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite, sqrt

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


@lru_cache(maxsize=None)
def _block_index(block: tuple[int, ...]) -> Array:
    """The len(block) x len(block) flat indices 9r + s of block x block, made once and read-only."""
    index = np.array([[9 * r + s for s in block] for r in block])
    index.flags.writeable = False
    return index


def structured(diagonal, grid=0.0, block: tuple[int, ...] = (), entries=()) -> Array:
    """The 9x9 operator with grid (a number, or a len(block) x len(block) array) on block x block,
    block being flat indices, then the 9 values diagonal, unless None, on the main diagonal, then
    each x of entries' (k, x) at flat index k; zero elsewhere.  A grid array of another shape
    raises ValueError.  forms.dense writes the same entries as rows of Python floats."""
    M = np.zeros((9, 9), dtype=complex)
    flat = M.ravel()  # a view: entry (r, s) is flat[9r + s], the diagonal flat[::10]
    if block:  # one fancy-index write: a number is broadcast, an array must fit the block's square
        flat[_block_index(block)] = grid
    if diagonal is not None:
        flat[::10] = diagonal
    if entries:  # only Q has any: the test costs less than an empty loop on every other operator
        for k, x in entries:
            flat[k] = x
    return M


def _frobenius(A: Array) -> float:
    """||A||_F as one real dot over the float view; it overflows to inf with numpy's warning."""
    x = A.ravel().view(float)
    return sqrt(x.dot(x))


def require_hermitian(M) -> Array:
    """The Hermitian part of a finite matrix A that is Hermitian within tol = DEFAULT_HERMITICITY_TOL.

    An exactly Hermitian A (A == A^dagger entry by entry) is its own Hermitian part and is
    returned as is: the result may be the caller's array, so callers must not write to it.
    Only inexact input is checked, ||A - A^dagger||_F <= tol max(1, ||A||_F), and symmetrized
    as A/2 + A^dagger/2, halved before adding so that entries near the float maximum stay
    finite.  When ||A||_F overflows but every entry is finite, both norms are taken of A / s,
    s the largest real or imaginary part, so the check still applies.
    """
    A = as_matrix(M)
    size = _frobenius(A)
    # A NaN would pass the comparisons below; a finite matrix can still overflow the norm.
    if not isfinite(size) and not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    Ah = A.conj().T
    if not np.count_nonzero(A != Ah):
        return A
    if isfinite(size):
        gap, bound = _frobenius(A - Ah), DEFAULT_HERMITICITY_TOL * max(1.0, size)
    else:  # finite entries whose norm overflows
        As = A / float(np.abs(A.ravel().view(float)).max())
        gap, bound = _frobenius(As - As.conj().T), DEFAULT_HERMITICITY_TOL * _frobenius(As)
    if gap > bound:
        raise ValueError("matrix is not Hermitian within tolerance")
    return A / 2.0 + Ah / 2.0


def partial_transpose(M) -> Array:
    """Partial transpose on the second factor of a 9x9 operator on C^3 (x) C^3: <ij|M^G|kl> = <il|M|kj>."""
    A = as_matrix(M)
    if A.shape != (9, 9):
        raise ValueError("partial transpose expects a 9x9 matrix")
    return A.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)


def eigenvalues(H) -> Array:
    """Ascending eigenvalues of a Hermitian matrix (LAPACK ``numpy.linalg.eigvalsh``, no eigenvectors).

    The input passes `require_hermitian` first: exactly Hermitian input goes to LAPACK as is,
    and only inexact input is checked against DEFAULT_HERMITICITY_TOL and symmetrized.
    """
    return np.linalg.eigvalsh(require_hermitian(H))


def min_eigenvalue(H) -> float:
    return float(eigenvalues(H)[0])


def is_psd(H) -> bool:
    """True when the smallest eigenvalue is >= -DEFAULT_PSD_TOL.  Input must be Hermitian."""
    return min_eigenvalue(H) >= -DEFAULT_PSD_TOL


def trace_pair(A, B) -> complex:
    """Hilbert-Schmidt pairing Tr(A B)."""
    X = as_matrix(A)
    Y = as_matrix(B)
    if X.shape != Y.shape:
        raise ValueError("trace pairing requires equal dimensions")
    return complex(np.trace(X @ Y))
