"""Reference bipartite states and their detection values against witnesses.

The workhorse is the unnormalized one-parameter family

    rho_eps = sum_ij |ii><jj| + eps * sum_i |i,i+1><i,i+1|
                               + (1/eps) * sum_i |i,i+2><i,i+2|,

with the level arithmetic i+1, i+2 cyclic on {1,2,3}.  Every member is PPT,
and it is entangled for eps != 1, which makes the family a probe for
indecomposable witnesses: Tr(rho_eps W[a,b,c]) has the closed form
N (b eps^2 + (a-2) eps + c) / eps, negative on an eps-interval exactly when
the discriminant (a-2)^2 - 4bc is positive.  The closed forms of every
witness kind, the interval and the certificate live in geometry, exact and
rounded once for every input; this module builds the states as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import linalg
from .forms import DOUBLES, group_diagonal, sigma_pair_form
from .linalg import Array, partial_transpose


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
    try:
        x = float(eps)
    except OverflowError:  # an int or Fraction beyond the float range
        x = inf
    if not (0 < x < inf and 1 / x < inf):  # a NaN fails the first test
        raise ValueError(f"eps and 1/eps must be finite floats, got {eps}")
    return BipartiteState(linalg.structured(group_diagonal(1.0, eps, 1.0 / eps), 1.0, DOUBLES))


def is_ppt(state) -> bool:
    """Positive-partial-transpose test (Peres criterion)."""
    return linalg.is_psd(partial_transpose(linalg.as_matrix(state)))


def sigma_pair(i: int, j: int) -> BipartiteState:
    """Separable building block supported on the levels {i, j} of each factor:

        |ij><ij| + |ji><ji| + (|ii> - |jj>)(<ii| - <jj|).

    PSD, PPT, and supported inside a C^2 (x) C^2 product subspace.
    """
    return BipartiteState(linalg.structured(*sigma_pair_form(i, j)))
