"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from qutritwit.geometry import MapParams, slice_params


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
