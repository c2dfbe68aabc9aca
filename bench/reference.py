"""Independent references for the benchmark's correctness checks.

Nothing here imports qutritwit.  Every reference is rebuilt from the paper's
formulas, in exact ``Fraction`` arithmetic where the quantity is rational and
with ``numpy.linalg`` otherwise, so an output is never checked against the
function that produced it.

Conventions match the package: the product ket |ij> (0-based i, j) sits at
flat index 3*i + j, and a witness is the Choi operator
(1/3) sum_ij Phi(|i><j|) (x) |i><j| of a map acting on the first factor.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

POSITIVE = "positive_not_cp"
NOT_POSITIVE = "not_positive"
CP = "completely_positive"
DECOMPOSABLE = "decomposable"
INDECOMPOSABLE = "indecomposable"
UNKNOWN = "unknown"

_EPS = np.finfo(float).eps


def exact_class(a: Fraction, b: Fraction, c: Fraction) -> tuple[str, str]:
    """(positivity, decomposability) of Phi[a,b,c] from the paper's rules.

    CP iff a >= 2; positive iff a+b+c >= 2 and (a >= 1 or bc >= (1-a)^2);
    a positive non-CP member is indecomposable iff bc < (2-a)^2 / 4.
    """
    if a >= 2:
        return CP, DECOMPOSABLE
    if a + b + c < 2 or (a <= 1 and b * c < (1 - a) ** 2):
        return NOT_POSITIVE, UNKNOWN
    if 4 * b * c < (2 - a) ** 2:
        return POSITIVE, INDECOMPOSABLE
    return POSITIVE, DECOMPOSABLE


def near_decision_boundary(floats: tuple[float, float, float]) -> bool:
    """True when a float point lies within rounding of a classification boundary.

    The seed decides ``a + b + c < 2``, ``bc < (1-a)^2`` and
    ``bc < (2-a)^2 / 4`` (with the discriminant of the detection quadratic)
    literally in floats, so a point meant to lie on the plane, the ellipse or
    the decomposability boundary can get the wrong verdict, and a spurious
    detection interval, when rounding leaves it a few ulps off (ROADMAP item 2).
    """
    a, b, c = floats
    return (abs(2.0 - (a + b + c)) <= 8 * _EPS
            or abs(b * c - (1 - a) ** 2) <= 16 * _EPS
            or abs(4 * b * c - (2 - a) ** 2) <= 32 * _EPS)


def _diag_action(kind: str, a, b, c):
    """3x3 matrix M of D: diag(D(X)) = M @ diag(X), for either family."""
    one = a ** 0
    if kind == "circulant":
        return ((a + one, b, c), (c, a + one, b), (b, c, a + one))
    if kind == "improper":
        return ((a + one, b, c), (b, c + one, a), (c, a, b + one))
    raise ValueError(kind)


def exact_witness(a: Fraction, b: Fraction, c: Fraction, kind: str = "circulant") -> list[list[Fraction]]:
    """Choi operator of N (D - id) as a 9x9 grid of Fractions.

    Phi(|i><j|) = -N |i><j| for i != j, and N (diag(M[:, i]) - |i><i|) for
    i = j; placed at rows 3*k + i, columns 3*l + j of the Choi sum.
    """
    N = 1 / (a + b + c)
    M = _diag_action(kind, a, b, c)
    W = [[Fraction(0)] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            if i != j:
                W[3 * i + i][3 * j + j] += -N / 3
                continue
            for k in range(3):
                W[3 * k + i][3 * k + i] += N * M[k][i] / 3
            W[3 * i + i][3 * i + i] -= N / 3
    return W


def swap_first_levels(W):
    """(U (x) I) W (U (x) I)^dagger for U swapping levels 1 and 2 of the first factor."""
    perm = [3 * (0, 2, 1)[i] + j for i in range(3) for j in range(3)]
    return [[W[perm[r]][perm[s]] for s in range(9)] for r in range(9)]


def witness(a, b, c, kind: str = "standard") -> np.ndarray:
    """Float witness of kind 'standard', 'tilde' or 'u_conjugated'."""
    fa, fb, fc = (Fraction(x) for x in (a, b, c))
    grid = exact_witness(fa, fb, fc, "circulant" if kind == "standard" else "improper")
    if kind == "u_conjugated":
        grid = swap_first_levels(exact_witness(fa, fb, fc, "circulant"))
    return np.array([[float(x) for x in row] for row in grid], dtype=complex)


def parse_fraction_grid(entries) -> list[list[Fraction]]:
    """Strings "p/q" (or integers) to Fractions; raises on anything else."""
    out = []
    for row in entries:
        if len(row) != 9:
            raise ValueError("row length")
        for s in row:
            if not isinstance(s, str) or not s.lstrip("-").replace("/", "", 1).isdigit():
                raise ValueError(f"not a rational string: {s!r}")
        out.append([Fraction(s) for s in row])
    if len(out) != 9:
        raise ValueError("row count")
    return out


def partial_transpose_second(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)


def rho_eps(eps: float) -> np.ndarray:
    """Unnormalized PPT probe: sum |ii><jj| + eps |i,i+1><..| + 1/eps |i,i+2><..|."""
    M = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            M[4 * i, 4 * j] = 1.0
        M[3 * i + (i + 1) % 3, 3 * i + (i + 1) % 3] = eps
        M[3 * i + (i + 2) % 3, 3 * i + (i + 2) % 3] = 1.0 / eps
    return M


def detection_interval(a: Fraction, b: Fraction, c: Fraction):
    """Open eps-interval where Tr(rho_eps W) < 0, from numpy.roots; None if empty.

    Whether it exists is decided exactly: b eps^2 + (a-2) eps + c has a
    negative part on eps > 0 iff its discriminant and the upper root are
    positive (b > 0), or a < 2 (b = 0).
    """
    if b == 0:
        if a >= 2:
            return None
        return (float(c / (2 - a)), float("inf"))
    if (a - 2) ** 2 - 4 * b * c <= 0 or a >= 2:
        return None
    lo, hi = sorted(np.roots([float(b), float(a - 2), float(c)]).real)
    return (max(lo, 0.0), hi)


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[0])


def critical_weight(W: np.ndarray) -> float:
    """p* = 9|lmin| / (1 + 9|lmin|) for a trace-one W with lmin < 0, else 0."""
    lmin = min_eig(W)
    return 0.0 if lmin >= 0 else 9 * -lmin / (1 + 9 * -lmin)


def product_expectation(W: np.ndarray, psi, phi) -> float:
    u = np.kron(np.asarray(psi), np.asarray(phi))
    return float(np.real(np.vdot(u, W @ u)))


def close(x, y, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(x) - np.asarray(y))) <= tol)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
