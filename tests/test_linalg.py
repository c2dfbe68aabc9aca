from fractions import Fraction
from math import ulp

import numpy as np
import pytest

from conftest import rand_hermitian
from qutritwit.geometry import MapParams, n_abc
from qutritwit.linalg import (
    DOUBLES,
    PLUS_ONE,
    PLUS_TWO,
    eigenvalues,
    is_psd,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
    structured,
    trace_pair,
)
from qutritwit.maps import apply_phi, phi_map
from qutritwit.states import rho_eps
from qutritwit.witnesses import choi_witness, witness_matrix, witness_u


class TestPartialTranspose:
    def test_basis_case(self):
        M = np.zeros((9, 9), dtype=complex)
        M[0, 4] = 1.0  # |11><22|
        out = partial_transpose(M)
        expected = np.zeros((9, 9), dtype=complex)
        expected[1, 3] = 1.0  # |12><21|
        assert np.array_equal(out, expected)

    def test_involution_and_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            H = rand_hermitian(rng, 9)
            PT = partial_transpose(H)
            assert np.allclose(partial_transpose(PT), H, atol=0)
            assert np.linalg.norm(PT - PT.conj().T) < 1e-14
            assert abs(np.trace(PT) - np.trace(H)) < 1e-14

    def test_rho_eps_stays_ppt(self):
        assert min_eigenvalue(partial_transpose(rho_eps(0.3).matrix)) >= -1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4))


class TestHermitianEigen:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0], atol=0)

    def test_all_ones(self):
        assert np.allclose(eigenvalues(np.ones((3, 3))), [0.0, 0.0, 3.0], atol=1e-14)

    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            H = rand_hermitian(rng, 9)
            ours = eigenvalues(H)
            ref = np.linalg.eigh(H)[0]  # eigenvalues computes with eigvalsh: compare with the other driver
            assert np.max(np.abs(ours - ref)) < 1e-12 * max(1.0, np.linalg.norm(H))

    @pytest.mark.parametrize("i", range(19))
    def test_witness_spectra_are_exact_on_the_lattice(self, i):
        # The spectrum of W[a,b,c] is N/3 {a-2, a+1, a+1, b, b, b, c, c, c}: the |ii> block is
        # N/3 ((a+1) I - J), the rest diagonal.  W_U is W conjugated by a permutation and the
        # Choi matrix of phi_map is W, so all three share it.  A check that uses no LAPACK.
        for j in range(19 - i):
            a, b, c = 2 - Fraction(i + j, 9), Fraction(i, 9), Fraction(j, 9)
            p = MapParams(a, b, c)
            exact = sorted(n_abc(p) / 3 * x for x in (a - 2, a + 1, a + 1, b, b, b, c, c, c))
            for W in (witness_matrix(p), witness_u(p), choi_witness(phi_map(p))):
                bound = 4 * ulp(1.0) * float(np.linalg.norm(W.matrix))
                got = eigenvalues(W.matrix)
                assert all(abs(Fraction(float(g)) - e) <= bound for g, e in zip(got, exact)), (a, b, c, W.kind)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)], ids=str)
@pytest.mark.parametrize("where", [(0, 0), (2, 7)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entry_is_rejected(entry, where):
    # A NaN made the Hermiticity comparison false, so min_eigenvalue returned nan
    # and is_psd answered False without an error.
    M = np.eye(9, dtype=complex)
    M[where] = entry
    for check in (require_hermitian, eigenvalues, min_eigenvalue, is_psd):
        with pytest.raises(ValueError, match="non-finite"):
            check(M)


def test_finite_matrix_whose_norm_overflows_is_accepted():
    # Only a norm that is not finite looks at the entries, and these are all finite.
    A = np.full((3, 3), 1e200)
    with np.errstate(over="ignore"):
        assert np.array_equal(require_hermitian(A), A)
        assert eigenvalues(A)[-1] == pytest.approx(3e200)


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(5))

    def test_negative_identity(self):
        assert not is_psd(-np.eye(5))

    def test_cp_choi_matrix(self):
        p = MapParams(2, 0, 0)
        assert is_psd(choi_witness(lambda X: apply_phi(p, X)).matrix)


class TestTracePair:
    def test_identity(self):
        assert trace_pair(np.eye(9), np.eye(9)) == 9

    def test_witness_trace(self):
        W = witness_matrix(MapParams(1, 1, 0)).matrix
        assert abs(trace_pair(np.eye(9), W) - 1.0) < 1e-15

    def test_rho_one_against_reduction_witness(self):
        value = trace_pair(rho_eps(1.0).matrix, witness_matrix(MapParams(0, 1, 1)).matrix)
        assert abs(value) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_pair(np.eye(3), np.eye(9))


def _structured_reference(diagonal, grid, block):
    """structured written entry by entry: grid[i][j] (or the number grid) at (block[i], block[j]), then the diagonal."""
    M = np.zeros((9, 9), dtype=complex)
    for i, r in enumerate(block):
        for j, s in enumerate(block):
            M[r, s] = grid[i, j] if isinstance(grid, np.ndarray) else grid
    if diagonal is not None:
        for k in range(9):
            M[k, k] = diagonal[k]
    return M


class TestStructured:
    # Every block in use: the |ii> of the witnesses, the witness_u triple and the sigma_pair pairs.
    BLOCKS = {
        "doubles": DOUBLES,
        "u_triple": (DOUBLES[0], PLUS_ONE[1], PLUS_TWO[2]),
        "pair_12": (0, 4),
        "pair_13": (0, 8),
        "pair_23": (4, 8),
        "none": (),
    }

    @pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
    @pytest.mark.parametrize("grid", [-1 / 3, -0.0, 1.0, 7], ids=["third", "minus_zero", "one", "int"])
    @pytest.mark.parametrize("with_diagonal", [True, False], ids=["diagonal", "no_diagonal"])
    def test_number_grid_matches_entry_by_entry(self, block, grid, with_diagonal):
        diagonal = [0.1 * k - 0.35 for k in range(9)] if with_diagonal else None
        M, ref = structured(diagonal, grid, block), _structured_reference(diagonal, grid, block)
        assert M.shape == (9, 9) and M.dtype == complex and M.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_diagonal", [True, False], ids=["diagonal", "no_diagonal"])
    def test_array_grid_matches_entry_by_entry(self, with_diagonal):
        # The P certificate's grid: R - (J - I) on the |ii> block, each entry in its own place.
        rng = np.random.default_rng(5)
        grid = rng.standard_normal((3, 3))
        diagonal = list(rng.standard_normal(9)) if with_diagonal else None
        M, ref = structured(diagonal, grid, DOUBLES), _structured_reference(diagonal, grid, DOUBLES)
        assert M.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_array_grid_of_another_size_is_rejected(self, n):
        # A flat put repeated a 2x2 grid over the 3x3 block and cut a 4x4 one short.
        with pytest.raises(ValueError):
            structured(None, np.ones((n, n)), DOUBLES)
