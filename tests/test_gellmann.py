import numpy as np
import pytest

from conftest import rand_complex
from qutritwit.geometry import MapParams
from qutritwit.witnesses import GELLMANN, phi_from_rotation, phi_map, rotation_block, so2_rotation

ELEMENTS = GELLMANN.reshape(9, 3, 3)


def coefficients(X):
    """c_a = Tr(f_a X) of X or a stack (..., 3, 3), as LinearMap3 expands: vec(X^T) @ GELLMANN.T."""
    Xt = np.swapaxes(np.asarray(X, dtype=complex), -1, -2)
    return Xt.reshape(Xt.shape[:-2] + (9,)) @ GELLMANN.T


def test_n3_leading_elements():
    assert GELLMANN.shape == (9, 9) and GELLMANN.dtype == complex
    assert np.allclose(ELEMENTS[0], np.eye(3) / np.sqrt(3), atol=0)
    assert np.allclose(ELEMENTS[1], np.diag([1.0, -1.0, 0.0]) / np.sqrt(2), atol=0)
    assert np.allclose(ELEMENTS[2], np.diag([1.0, 1.0, -2.0]) / np.sqrt(6), atol=0)


def test_ordering_contract():
    # After f_0 and the diagonals: u_12, u_13, u_23 then v_12, v_13, v_23.
    s = 1 / np.sqrt(2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for offset, kind in ((3, "u"), (6, "v")):
        for m, (k, l) in enumerate(pairs):
            f = ELEMENTS[offset + m]
            expected = np.zeros((3, 3), dtype=complex)
            if kind == "u":
                expected[k, l] = expected[l, k] = s
            else:
                expected[k, l] = -1j * s
                expected[l, k] = 1j * s
            assert np.allclose(f, expected, atol=0), (kind, k, l)


def test_orthonormality_and_tracelessness():
    G = np.zeros((9, 9), dtype=complex)
    for i, f in enumerate(ELEMENTS):
        assert np.linalg.norm(f - f.conj().T) == 0
        if i >= 1:
            assert abs(np.trace(f)) < 1e-15
        for j, g in enumerate(ELEMENTS):
            G[i, j] = np.trace(f @ g)
    assert np.linalg.norm(G - np.eye(9)) < 1e-12


def test_completeness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rand_complex(rng, 3)
        rebuilt = (coefficients(X) @ GELLMANN).reshape(3, 3)
        assert np.linalg.norm(rebuilt - X) < 1e-12


def test_stack_expansion_matches_trace_loop():
    rng = np.random.default_rng(3)
    X = np.array([rand_complex(rng, 3) for _ in range(5)])
    coeffs = coefficients(X)
    assert coeffs.shape == (5, 9)
    reference = np.array([[np.trace(f @ Y) for f in ELEMENTS] for Y in X])
    assert np.max(np.abs(coeffs - reference)) < 1e-13
    rebuilt = (coeffs @ GELLMANN).reshape(X.shape)
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


def test_basis_is_read_only():
    # Every expansion shares the one array, and so do its views.
    for view in (GELLMANN, GELLMANN[1:3, ::4], ELEMENTS):
        with pytest.raises(ValueError):
            view[0, 0] = 1


@pytest.mark.parametrize("R", [np.eye(2), np.eye(9), np.ones(8), np.ones((8, 8, 1))], ids=lambda R: str(R.shape))
def test_phi_from_rotation_rejects_other_shapes(R):
    with pytest.raises(ValueError, match="rotation must be 8x8"):
        phi_from_rotation(R)
