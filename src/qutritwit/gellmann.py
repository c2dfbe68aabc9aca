"""Generalized Gell-Mann basis: an orthonormal Hermitian basis of M_n(C).

The basis is ordered as (f_0, d_1, ..., d_{n-1}, u_12, u_13, ..., u_{(n-1)n},
v_12, ..., v_{(n-1)n}) where, for 1-based kets |1>, ..., |n>,

    f_0  = I_n / sqrt(n),
    d_l  = ( |1><1| + ... + |l><l| - l |l+1><l+1| ) / sqrt(l (l+1)),
    u_kl = ( |k><l| + |l><k| ) / sqrt(2),
    v_kl = -i ( |k><l| - |l><k| ) / sqrt(2),          for k < l.

All elements are Hermitian, f_1, ..., f_{n^2-1} are traceless, and the set is
orthonormal under the Hilbert-Schmidt pairing Tr(f_a f_b) = delta_ab.  The
ordering is contractual: rotation blocks acting on span{d_1, d_2} rely on the
diagonal elements coming directly after f_0.

Row a of `stacked` is the row-major vec(f_a): c_a = Tr(f_a X) = vec(X^T).vec(f_a) is one
matmul; coefficients maps stacks (..., n, n) to (..., n^2), from_coefficients back, and
apply_D, apply_phi, apply_phi_tilde and LinearMap3 calls (maps) take stacks (..., 3, 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt

import numpy as np

from .linalg import Array


@dataclass(frozen=True)
class OrthonormalBasis:
    """Ordered orthonormal Hermitian basis of the n x n complex matrices."""

    n: int
    elements: tuple[Array, ...]
    stacked: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stacked = np.array(self.elements, dtype=complex).reshape(len(self), -1)
        stacked.flags.writeable = False  # shared by every expansion, and so are its views
        object.__setattr__(self, "stacked", stacked)

    def __len__(self) -> int:
        return len(self.elements)

    def coefficients(self, X) -> Array:
        """Expansion coefficients c_a = Tr(f_a X) of X or a stack (..., n, n); X = sum_a c_a f_a."""
        Xt = np.swapaxes(np.asarray(X, dtype=complex), -1, -2)
        return Xt.reshape(Xt.shape[:-2] + (-1,)) @ self.stacked.T

    def from_coefficients(self, coeffs) -> Array:
        X = np.asarray(coeffs) @ self.stacked
        return X.reshape(X.shape[:-1] + (self.n, self.n))


def build_gellmann(n: int) -> OrthonormalBasis:
    """Construct the generalized Gell-Mann basis of M_n(C) for n >= 2."""
    if n < 2:
        raise ValueError("basis requires n >= 2")
    elements: list[Array] = [np.eye(n, dtype=complex) / sqrt(n)]
    for l in range(1, n):
        elements.append(np.diag([1.0] * l + [-l] + [0.0] * (n - l - 1)).astype(complex) / sqrt(l * (l + 1)))
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):  # u_kl, then v_kl
        for k, l in pairs:
            e = np.zeros((n, n), dtype=complex)
            e[k, l], e[l, k] = upper, lower
            elements.append(e / sqrt(2))
    return OrthonormalBasis(n, tuple(elements))


@lru_cache(maxsize=None)
def default_basis() -> OrthonormalBasis:
    """The qutrit (n = 3) basis used throughout the package."""
    return build_gellmann(3)
