import numpy as np
import pytest

from conftest import rand_complex
from qutritwit.gellmann import build_gellmann, default_basis
from qutritwit.geometry import MapParams
from qutritwit.maps import phi_from_rotation, phi_map, rotation_block, so2_rotation


def test_n2_is_scaled_pauli_set():
    basis = build_gellmann(2)
    s = 1 / np.sqrt(2)
    assert np.allclose(basis.elements[0], s * np.eye(2), atol=0)
    assert np.allclose(basis.elements[1], s * np.diag([1.0, -1.0]), atol=0)
    assert np.allclose(basis.elements[2], s * np.array([[0, 1], [1, 0]]), atol=0)
    assert np.allclose(basis.elements[3], s * np.array([[0, -1j], [1j, 0]]), atol=0)


def test_n3_leading_elements():
    basis = default_basis()
    assert len(basis) == 9
    assert np.allclose(basis.elements[0], np.eye(3) / np.sqrt(3), atol=0)
    assert np.allclose(basis.elements[1], np.diag([1.0, -1.0, 0.0]) / np.sqrt(2), atol=0)
    assert np.allclose(basis.elements[2], np.diag([1.0, 1.0, -2.0]) / np.sqrt(6), atol=0)


def test_ordering_contract():
    # After f_0 and the diagonals: u_12, u_13, u_23 then v_12, v_13, v_23.
    basis = default_basis()
    s = 1 / np.sqrt(2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for offset, kind in ((3, "u"), (6, "v")):
        for m, (k, l) in enumerate(pairs):
            f = basis.elements[offset + m]
            expected = np.zeros((3, 3), dtype=complex)
            if kind == "u":
                expected[k, l] = expected[l, k] = s
            else:
                expected[k, l] = -1j * s
                expected[l, k] = 1j * s
            assert np.allclose(f, expected, atol=0), (kind, k, l)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthonormality_and_tracelessness(n):
    basis = build_gellmann(n)
    m = len(basis)
    assert m == n * n
    G = np.zeros((m, m), dtype=complex)
    for i, f in enumerate(basis.elements):
        assert np.linalg.norm(f - f.conj().T) == 0
        if i >= 1:
            assert abs(np.trace(f)) < 1e-15
        for j, g in enumerate(basis.elements):
            G[i, j] = np.trace(f @ g)
    assert np.linalg.norm(G - np.eye(m)) < 1e-12


def test_completeness():
    basis = default_basis()
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rand_complex(rng, 3)
        rebuilt = basis.from_coefficients(basis.coefficients(X))
        assert np.linalg.norm(rebuilt - X) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_expansion_matches_trace_loop(n):
    basis = build_gellmann(n)
    rng = np.random.default_rng(n)
    X = np.array([rand_complex(rng, n) for _ in range(5)])
    coeffs = basis.coefficients(X)
    assert coeffs.shape == (5, n * n)
    reference = np.array([[np.trace(f @ Y) for f in basis.elements] for Y in X])
    assert np.max(np.abs(coeffs - reference)) < 1e-13
    rebuilt = basis.from_coefficients(coeffs)
    assert rebuilt.shape == X.shape
    for Y, Z in zip(X, rebuilt):
        assert np.max(np.abs(Z - Y)) < 1e-13


def test_linear_map_on_a_stack_matches_single_calls():
    rng = np.random.default_rng(11)
    X = np.array([rand_complex(rng, 3) for _ in range(5)])
    for m in (phi_map(MapParams(0.8, 0.9, 0.3)), phi_from_rotation(rotation_block(so2_rotation(1.1)))):
        stacked = m(X)
        assert stacked.shape == X.shape
        for Y, Z in zip(X, stacked):
            assert np.max(np.abs(Z - m(Y))) < 1e-13


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_gellmann(1)
