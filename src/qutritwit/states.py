"""Reference bipartite states and their detection values against witnesses.

The workhorse is the unnormalized one-parameter family

    rho_eps = sum_ij |ii><jj| + eps * sum_i |i,i+1><i,i+1|
                               + (1/eps) * sum_i |i,i+2><i,i+2|,

with the level arithmetic i+1, i+2 cyclic on {1,2,3}.  Every member is PPT,
and it is entangled for eps != 1, which makes the family a probe for
indecomposable witnesses: Tr(rho_eps W[a,b,c]) has the closed form
N (b eps^2 + (a-2) eps + c) / eps, negative on an eps-interval exactly when
the discriminant (a-2)^2 - 4bc is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Optional

import numpy as np

from . import linalg
from .linalg import Array, partial_transpose
from .maps import MapParams, _require_slice, _side, n_abc
from .witnesses import _DOUBLE, witness_matrix

# Flat composite indices of the cycles |i,i+1> and |i,i+2>.
_UP = (1, 5, 6)
_DOWN = (2, 3, 7)


@dataclass(frozen=True)
class BipartiteState:
    """A 9x9 Hermitian operator on C^3 (x) C^3, not necessarily trace-one."""

    matrix: Array

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def is_psd(self) -> bool:
        return linalg.is_psd(self.matrix)


def rho_eps(eps: float) -> BipartiteState:
    """The PPT probe state at parameter eps > 0 (kept unnormalized)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    M = np.zeros((9, 9), dtype=complex)
    for i in _DOUBLE:
        for j in _DOUBLE:
            M[i, j] = 1.0
    for i in _UP:
        M[i, i] = eps
    for i in _DOWN:
        M[i, i] = 1.0 / eps
    return BipartiteState(M)


def max_entangled_projector() -> BipartiteState:
    """Rank-one projector onto 3^{-1/2} (|11> + |22> + |33>)."""
    M = np.zeros((9, 9), dtype=complex)
    for i in _DOUBLE:
        for j in _DOUBLE:
            M[i, j] = 1.0 / 3.0
    return BipartiteState(M)


def is_ppt(state) -> bool:
    """Positive-partial-transpose test (Peres criterion)."""
    return linalg.is_psd(partial_transpose(linalg.as_matrix(state)))


def detection_value(p: MapParams, eps: float) -> float:
    """Closed form of Tr(rho_eps W[a,b,c]): N (b eps^2 + (a-2) eps + c) / eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    a, b, c = p.asfloats()
    return float(n_abc(p)) * (b * eps * eps + (a - 2.0) * eps + c) / eps


def detects_rho_family(p: MapParams) -> Optional[tuple[float, float]]:
    """Open interval of eps with Tr(rho_eps W[a,b,c]) < 0, or None.

    The sign of the detection value is that of q(eps) = b eps^2 + (a-2) eps
    + c, negative somewhere on eps > 0 iff a < 2 and bc < (2-a)^2/4 (a
    positive discriminant): classify's _side decisions, so a positive non-CP
    map has an interval iff it is indecomposable.  For b = 0 q is a line.
    """
    a, b, c = p.astuple()
    bc, quarter = b * c, (2 - a) ** 2 / 4
    if _side(a, 2, 1) >= 0 or _side(bc, quarter, b + c + abs(2 - a) / 2) >= 0:
        return None
    af, bf = float(a), float(b)
    if b == 0:
        return (float(c) / (2.0 - af), inf)
    root = 2 * sqrt(float(quarter - bc))
    return (max(((2.0 - af) - root) / (2.0 * bf), 0.0), ((2.0 - af) + root) / (2.0 * bf))


def sigma_pair(i: int, j: int) -> BipartiteState:
    """Separable building block supported on the levels {i, j} of each factor:

        |ij><ij| + |ji><ji| + (|ii> - |jj>)(<ii| - <jj|).

    PSD, PPT, and supported inside a C^2 (x) C^2 product subspace.
    """
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("indices must be distinct and in {1, 2, 3}")

    def flat(r: int, s: int) -> int:
        return 3 * (r - 1) + (s - 1)

    M = np.zeros((9, 9), dtype=complex)
    for r, s in ((i, j), (j, i), (i, i), (j, j)):
        M[flat(r, s), flat(r, s)] = 1.0
    M[flat(i, i), flat(j, j)] = -1.0
    M[flat(j, j), flat(i, i)] = -1.0
    return BipartiteState(M)


def sigma_diag(p: MapParams) -> BipartiteState:
    """Diagonal component of the noisy-witness decomposition:

        sum_i (2b+c-1) |i,i+1><i,i+1| + (2c+b-1) |i,i+2><i,i+2|.

    PSD exactly when 2b+c >= 1 and 2c+b >= 1; returned as-is otherwise.
    """
    _require_slice(p)
    _, b, c = p.asfloats()
    M = np.zeros((9, 9), dtype=complex)
    for i in _UP:
        M[i, i] = 2 * b + c - 1
    for i in _DOWN:
        M[i, i] = 2 * c + b - 1
    return BipartiteState(M)


def detection_value_numeric(p: MapParams, eps: float) -> float:
    """Tr(rho_eps W[a,b,c]) evaluated as an explicit trace pairing."""
    val = linalg.trace_pair(rho_eps(eps).matrix, witness_matrix(p).matrix)
    return float(val.real)
