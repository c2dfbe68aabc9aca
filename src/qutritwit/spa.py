"""Structural physical approximation: mixing a witness with white noise
until it becomes a legitimate (PSD) state.

For a trace-one witness W the mixture W(p) = (1-p) W + (p/9) I is PSD from
the critical weight p* on.  On the plane a+b+c = 2 the smallest witness
eigenvalue is (a-2)/6, which gives the closed form

    p* = 3(2-a) / (2 + 3(2-a)),

and the critical state admits an explicit decomposition into the separable
blocks sigma_12, sigma_13, sigma_23 plus a diagonal remainder whenever
2b+c >= 1 and 2c+b >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ulp
from typing import Optional

import numpy as np

from . import linalg
from .geometry import MapParams, Number, _side, critical_p
from .linalg import Array
from .states import BipartiteState, sigma_diag, sigma_pair
from .witnesses import WitnessMatrix, _form


@dataclass(frozen=True)
class SpaComponents:
    """Separable pieces with scale * (sum of pieces) = the critical state."""

    sigma_12: BipartiteState
    sigma_13: BipartiteState
    sigma_23: BipartiteState
    sigma_d: BipartiteState
    scale: float

    def reconstruct(self) -> Array:
        total = (
            self.sigma_12.matrix
            + self.sigma_13.matrix
            + self.sigma_23.matrix
            + self.sigma_d.matrix
        )
        return self.scale * total


@dataclass(frozen=True)
class SpaResult:
    p_star: float
    state: BipartiteState
    separable_certified: bool
    components: Optional[SpaComponents]


def spa_mix(W: WitnessMatrix | Array, p: float) -> Array:
    """Noisy witness (1-p) W + (p/9) I; requires Tr W = 1 and p in [0, 1]."""
    M = linalg.as_matrix(W)
    if abs(np.trace(M).real - 1.0) > 1e-10:
        raise ValueError("structural physical approximation requires Tr W = 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    return (1.0 - p) * M + (p / 9.0) * np.eye(9)


def critical_p_from_witness(W: WitnessMatrix | Array) -> float:
    """Critical weight of any trace-one witness via its smallest eigenvalue:
    p* = 9|lmin| / (1 + 9|lmin|) for lmin < 0, else 0.  An lmin within 16 ulp
    of the spectral norm below zero is the eigensolver's roundoff of a zero eigenvalue."""
    M = linalg.as_matrix(W)
    if abs(np.trace(M).real - 1.0) > 1e-10:
        raise ValueError("requires Tr W = 1")
    spectrum = linalg.eigenvalues(M)
    lmin = float(spectrum[0])
    if lmin >= -16 * ulp(1.0) * max(-lmin, float(spectrum[-1])):
        return 0.0
    return 9 * abs(lmin) / (1 + 9 * abs(lmin))


def spa_region(b: Number, c: Number) -> bool:
    """True when the diagonal remainder is PSD: 2b+c >= 1 and 2c+b >= 1."""
    return _side(2 * b + c, 1, 3) >= 0 and _side(2 * c + b, 1, 3) >= 0


def spa_state(p: MapParams) -> SpaResult:
    """Critical noisy witness with its separability certificate when available.

    Inside the region 2b+c >= 1, 2c+b >= 1 the state is
    scale * (sigma_12 + sigma_13 + sigma_23 + sigma_d) with
    scale = 1 / (3 (2 + 3(2-a))); outside it no separability claim is made.
    """
    star = critical_p(p)
    if star == 0.0:
        if _side(p.a, 2, 1) >= 0:
            raise ValueError("requires a < 2; the witness is already PSD")
        raise ValueError("the critical weight p* = 3(2-a)/(2+3(2-a)) underflows a float: 2-a is too small")
    # spa_mix(witness_matrix(p), star), built entry by entry in the same float operations.
    pref, scaled, rows, doubles = _form(p, "standard")
    mixed = [(1.0 - star) * float(x) + star / 9.0 for x in scaled]
    diagonal = [mixed[k] for row in rows for k in row]
    state = BipartiteState(linalg.structured(diagonal, (1.0 - star) * -float(pref), doubles))
    certified = spa_region(p.b, p.c)
    components = None
    if certified:
        scale = 1.0 / (3.0 * (2.0 + 3.0 * (2.0 - float(p.a))))
        components = SpaComponents(
            sigma_pair(1, 2), sigma_pair(1, 3), sigma_pair(2, 3), sigma_diag(p), scale
        )
    return SpaResult(star, state, certified, components)
