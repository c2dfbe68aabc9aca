"""Shared helpers for the test suite, and its test-local references, each
written from its definition rather than imported from the library."""

from __future__ import annotations

import numpy as np

from qutritwit.geometry import MapParams, slice_params
from qutritwit.witnesses import rho_eps, witness_matrix


def max_entangled_projector() -> np.ndarray:
    """Rank-one projector |psi+><psi+| onto psi+ = 3^{-1/2} (|11> + |22> + |33>)."""
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1 / np.sqrt(3)
    return np.outer(psi, psi.conj())


def detection_value_numeric(p: MapParams, eps: float) -> float:
    """Tr(rho_eps W[a,b,c]) evaluated as an explicit trace pairing."""
    return float(np.trace(rho_eps(eps).matrix @ witness_matrix(p).matrix).real)


def matrix_entries(M) -> list[list[list[float]]]:
    """Row-major nested entries [[re, im], ...] of a matrix, as JSON prints them."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2


def rand_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_unit(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_slice_params(rng: np.random.Generator) -> MapParams:
    """Uniform point of the simplex b, c >= 0, b + c <= 2 lifted to the slice."""
    while True:
        b = rng.uniform(0, 2)
        c = rng.uniform(0, 2)
        if b + c <= 2:
            return slice_params(b, c)


def random_tilde_region_params(rng: np.random.Generator) -> MapParams:
    """Uniform point of the disk bc >= (1-a)^2 on the slice (ellipse interior)."""
    while True:
        x = rng.uniform(2 / 3, 2)
        y = rng.uniform(-2 / np.sqrt(3), 2 / np.sqrt(3))
        if (9 / 4) * (x - 4 / 3) ** 2 + (3 / 4) * y**2 <= 1:
            return slice_params((x + y) / 2, (x - y) / 2)
