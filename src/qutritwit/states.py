"""Reference bipartite states and their detection values against witnesses.

The workhorse is the unnormalized one-parameter family

    rho_eps = sum_ij |ii><jj| + eps * sum_i |i,i+1><i,i+1|
                               + (1/eps) * sum_i |i,i+2><i,i+2|,

with the level arithmetic i+1, i+2 cyclic on {1,2,3}.  Every member is PPT,
and it is entangled for eps != 1, which makes the family a probe for
indecomposable witnesses: Tr(rho_eps W[a,b,c]) has the closed form
N (b eps^2 + (a-2) eps + c) / eps, negative on an eps-interval exactly when
the discriminant (a-2)^2 - 4bc is positive.  That closed form and its
interval are scalar formulas and live in geometry (detection_value,
detects_rho_family); this module builds the states as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import linalg
from .geometry import MapParams, _require_slice
from .linalg import DOUBLES, Array, partial_transpose
from .witnesses import witness_matrix


@dataclass(frozen=True)
class BipartiteState:
    """A 9x9 Hermitian operator on C^3 (x) C^3, not necessarily trace-one."""

    matrix: Array

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def is_psd(self) -> bool:
        return linalg.is_psd(self.matrix)


def rho_eps(eps: float) -> BipartiteState:
    """The PPT probe state at parameter eps > 0 (kept unnormalized); eps and 1/eps must be finite floats."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = float(eps)
    if not (0 < x < inf and 1 / x < inf):  # a NaN fails the first test
        raise ValueError(f"eps and 1/eps must be finite floats, got {eps}")
    return BipartiteState(linalg.structured(linalg.group_diagonal(1.0, eps, 1.0 / eps), 1.0, DOUBLES))


def max_entangled_projector() -> BipartiteState:
    """Rank-one projector onto 3^{-1/2} (|11> + |22> + |33>)."""
    return BipartiteState(linalg.structured(None, 1.0 / 3.0, DOUBLES))


def is_ppt(state) -> bool:
    """Positive-partial-transpose test (Peres criterion)."""
    return linalg.is_psd(partial_transpose(linalg.as_matrix(state)))


def sigma_pair(i: int, j: int) -> BipartiteState:
    """Separable building block supported on the levels {i, j} of each factor:

        |ij><ij| + |ji><ji| + (|ii> - |jj>)(<ii| - <jj|).

    PSD, PPT, and supported inside a C^2 (x) C^2 product subspace.
    """
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("indices must be distinct and in {1, 2, 3}")
    ii, jj = DOUBLES[i - 1], DOUBLES[j - 1]
    diagonal = [0.0] * 9
    for k in (ii, jj, ii + j - i, jj + i - j):  # |rs> sits s - r places along the row of |rr>
        diagonal[k] = 1.0
    return BipartiteState(linalg.structured(diagonal, -1.0, (ii, jj)))


def sigma_diag(p: MapParams) -> BipartiteState:
    """Diagonal component of the noisy-witness decomposition:

        sum_i (2b+c-1) |i,i+1><i,i+1| + (2c+b-1) |i,i+2><i,i+2|.

    PSD exactly when 2b+c >= 1 and 2c+b >= 1; returned as-is otherwise.
    """
    _require_slice(p)
    _, b, c = p.asfloats()
    return BipartiteState(linalg.structured(linalg.group_diagonal(0.0, 2 * b + c - 1, 2 * c + b - 1)))


def detection_value_numeric(p: MapParams, eps: float) -> float:
    """Tr(rho_eps W[a,b,c]) evaluated as an explicit trace pairing."""
    val = linalg.trace_pair(rho_eps(eps).matrix, witness_matrix(p).matrix)
    return float(val.real)
