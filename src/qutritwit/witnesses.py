"""Two-qutrit entanglement witnesses built from the map families.

Every witness here is the Choi operator of a unital positive map against the
maximally entangled projector P+ = |psi+><psi+|, |psi+> = 3^{-1/2} sum |ii>.
The map acts on the first (row-block) tensor factor, so the 9x9 matrices come
out with the diagonal pattern grouped by the first index:

    W[a,b,c]  = N/3 * [ diag blocks (a,b,c)/(c,a,b)/(b,c,a), -1 on |ii><jj| ]
    W~[a,b,c] = 1/6 * [ diag blocks (a,b,c)/(b,c,a)/(c,a,b), -1 on |ii><jj| ]

The improper-family witnesses W~ are decomposable: W~ = (P + Q^G)/6 with
explicit PSD blocks P, Q, Q^G the partial transpose of Q on the second
factor.  Conjugating W by the local permutation U (x) I that swaps the second
and third levels of the first qutrit gives W_U, which shares the diagonal of
W~ but keeps the detection power of W.  Each kind is one form,
forms._form(p, kind), which the 9x9 builders (through forms.witness_form),
forms.exact_witness_entries and the SPA state read; the certificate's P and
Q are forms.tilde_form.  Also here: any map's Choi operator and the Choi
criterion for complete positivity (is_cp_choi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import linalg
from .forms import TILDE_SCALE, tilde_form, witness_form
from .geometry import MapParams
from .linalg import Array
from .maps import GELLMANN, LinearMap3


@dataclass(frozen=True)
class WitnessMatrix:
    """A 9x9 Hermitian witness with its parameters and construction tag."""

    matrix: Array
    params: Optional[MapParams]
    kind: str

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def min_eigenvalue(self) -> float:
        return linalg.min_eigenvalue(self.matrix)


@dataclass(frozen=True)
class DecompositionCertificate:
    """PSD pair (P, Q) with P + Q^G = scale * W~ on the second-factor
    partial transpose; a constructive proof of decomposability."""

    P: Array
    Q: Array
    scale: ClassVar[float] = TILDE_SCALE


def _witness(p: MapParams, kind: str) -> WitnessMatrix:
    return WitnessMatrix(linalg.structured(*witness_form(p, kind)), p, kind)


def witness_matrix(p: MapParams) -> WitnessMatrix:
    """Witness of the circulant-family map with parameters (a, b, c)."""
    return _witness(p, "standard")


def witness_tilde_matrix(p: MapParams) -> WitnessMatrix:
    """Witness of the improper-family map; defined on the plane a+b+c = 2."""
    return _witness(p, "tilde")


def witness_u(p: MapParams) -> WitnessMatrix:
    """Local-unitary conjugation (U (x) I) W[a,b,c] (U (x) I)^dagger.

    U is a permutation, so the entries are those of W moved to new places;
    they are built directly.  Defined on the plane a+b+c = 2.
    """
    return _witness(p, "u_conjugated")


def choi_witness(phi: LinearMap3 | Callable[[Array], Array]) -> WitnessMatrix:
    """Choi operator (1/3) sum_ij Phi(|i><j|) (x) |i><j| of a map.

    The map is applied to the first tensor factor of the maximally entangled
    projector, matching the row-major composite convention.  For a LinearMap3
    this is (1/3) sum_ab S_ab f_a (x) conj(f_b), one contraction with the basis.
    """
    if isinstance(phi, LinearMap3):
        if not np.isfinite(phi.superop).all():  # the contraction would warn first
            raise ValueError("superoperator has a non-finite entry")
        # Row 3i + j: Phi(E_ij) = sum_ab S_ab (f_b)_ji f_a.
        images = (GELLMANN.T @ phi.superop @ GELLMANN.conj()).T
    else:
        images = np.array([phi(E) for E in np.eye(9, dtype=complex).reshape(9, 3, 3)], dtype=complex)
    # Complex division turns an inf into NaN, with a RuntimeWarning: check first.
    if not np.isfinite(images).all():
        raise ValueError("map image has a non-finite entry")
    # Phi(E_ij)[k, l] lands at row 3k + i, column 3l + j.
    W = images.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    return WitnessMatrix(W / 3.0, None, "choi")


def is_cp_choi(phi: LinearMap3 | Callable[[Array], Array]) -> bool:
    """Complete positivity via the Choi criterion: the Choi matrix is PSD."""
    return linalg.is_psd(choi_witness(phi).matrix)


def decompose_tilde(p: MapParams) -> DecompositionCertificate:
    """Decomposability certificate (P, Q) with P + Q^G = 6 W~[a,b,c].

    With R the improper-family rows [[a,b,c],[b,c,a],[c,a,b]] and J the
    all-ones 3x3 matrix, P is R - (J - I) on the |ii> block and

        Q = sum_{i<j} R_ij (|ij> - |ji>)(<ij| - <ji|),

    both evaluated at the point itself.  Q >= 0 since a, b, c >= 0.  On the
    plane the P block has trace a+b+c = 2, sends (1,1,1) to zero, and its 2x2
    principal minors sum to 3(bc - (1-a)^2): its other two eigenvalues have
    sum 2 and that product, so P >= 0 exactly on the region bc >= (1-a)^2.
    """
    P, Q = tilde_form(p)
    return DecompositionCertificate(linalg.structured(*P), linalg.structured(*Q))
