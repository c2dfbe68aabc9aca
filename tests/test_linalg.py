from fractions import Fraction
from math import ulp

import numpy as np
import pytest

from conftest import rand_hermitian
from qutritwit.forms import DOUBLES, PLUS_ONE, PLUS_TWO
from qutritwit.geometry import MapParams, n_abc
from qutritwit.linalg import (
    as_matrix,
    eigenvalues,
    is_psd,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
    structured,
    trace_pair,
)
from qutritwit.oracles import SeeSawConfig, min_product_expectation, span_rank, zero_product_vectors
from qutritwit.witnesses import (
    apply_phi,
    choi_witness,
    critical_p_from_witness,
    phi_map,
    phi_tilde_map,
    rho_eps,
    spa_state,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
)


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
@pytest.mark.parametrize("where", [(0, 0), (2, 7), "pair"], ids=["diagonal", "off-diagonal", "hermitian pair"])
def test_non_finite_entry_is_rejected(entry, where):
    # A NaN made the Hermiticity comparison false, so min_eigenvalue returned nan
    # and is_psd answered False without an error.
    M = np.eye(9, dtype=complex)
    if where == "pair":  # an inf pair passes A == A^dagger: only the finiteness check ahead of the fast path stops it
        M[2, 7], M[7, 2] = entry, np.conj(entry)
    else:
        M[where] = entry
    for check in (require_hermitian, eigenvalues, min_eigenvalue, is_psd):
        with pytest.raises(ValueError, match="non-finite"):
            check(M)


@pytest.mark.parametrize("shape", [(2, 3), (9,), (3, 3, 3)], ids=str)
def test_non_square_input_is_rejected(shape):
    for check in (as_matrix, eigenvalues, partial_transpose):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check(np.ones(shape))


def test_finite_matrix_whose_norm_overflows_is_accepted():
    # Only a norm that is not finite looks at the entries, and these are all finite.
    A = np.full((3, 3), 1e200)
    with np.errstate(over="ignore"):
        assert np.array_equal(require_hermitian(A), A)
        assert eigenvalues(A)[-1] == pytest.approx(3e200)


def _plane_operators(i):
    """The operators built at the lattice points (2 - (i+j)/9, i/9, j/9) of the plane, exact and
    float: the three witness kinds, the Choi matrices of both families, rho_eps and the SPA state."""
    for j in range(19 - i):
        a, b, c = 2 - Fraction(i + j, 9), Fraction(i, 9), Fraction(j, 9)
        for p in (MapParams(a, b, c), MapParams(float(a), float(b), float(c))):
            yield from (kind(p).matrix for kind in (witness_matrix, witness_tilde_matrix, witness_u))
            yield from (choi_witness(family(p)).matrix for family in (phi_map, phi_tilde_map))
            if i:
                yield rho_eps(float(b)).matrix
            if i + j:
                yield spa_state(p).state.matrix


class TestExactHermitianFastPath:
    @pytest.mark.parametrize("i", range(19))
    def test_plane_operators_match_the_symmetrized_route_bitwise(self, i):
        # Every operator the package builds is exactly Hermitian: the guard hands the array
        # itself to LAPACK, with the bytes that (A + A^dagger)/2 had.
        for A in _plane_operators(i):
            old = (A + A.conj().T) / 2.0
            assert require_hermitian(A) is A
            assert A.tobytes() == old.tobytes()
            assert eigenvalues(A).tobytes() == np.linalg.eigvalsh(old).tobytes()

    def test_callers_only_read_the_array_the_guard_returns(self):
        # The guard hands back the caller's own array, so every caller must take read-only input.
        W = witness_matrix(MapParams(1, 1, 0)).matrix.copy()
        W.flags.writeable = False
        assert require_hermitian(W) is W
        assert is_psd(W) is False and min_eigenvalue(W) == eigenvalues(W)[0]
        assert critical_p_from_witness(W) > 0
        cfg = SeeSawConfig(restarts=4, max_iters=50, rng_seed=1)
        assert min_product_expectation(W, cfg).value > -1e-9
        assert span_rank(zero_product_vectors(W, cfg)) >= 0

    def test_input_hermitian_within_tol_is_symmetrized(self):
        rng = np.random.default_rng(7)
        H = rand_hermitian(rng, 9)
        A = H + 1e-13 * (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        old = (A + A.conj().T) / 2.0
        got = require_hermitian(A)
        assert got is not A and got.tobytes() == old.tobytes()
        assert eigenvalues(A).tobytes() == np.linalg.eigvalsh(old).tobytes()
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(H + 1e4 * (A - H))

    def test_huge_non_hermitian_matrix_is_rejected(self):
        # The norm overflowed to inf, tol * max(1, inf) waived the check, and the spectrum
        # came back as [-2.07e199, 1.21e200].  The norms of A / 1e200 compare as usual.
        with np.errstate(over="ignore"):
            for check in (require_hermitian, eigenvalues):
                with pytest.raises(ValueError, match="not Hermitian"):
                    check(np.array([[1e200, 1e200], [0.0, 1.0]]))

    def test_huge_hermitian_matrix_keeps_a_finite_spectrum(self):
        # (A + A^dagger)/2 overflowed 1e308 + 1e308 to inf and the spectrum came back [nan, nan].
        A = np.diag([1e308, -1e308])
        with np.errstate(over="ignore"):
            assert eigenvalues(A).tolist() == [-1e308, 1e308]
            B = A.astype(complex)
            B[0, 1], B[1, 0] = 1e290, 1e290 * (1 + 1e-14)  # Hermitian within tol only: halved, then added
            half = require_hermitian(B)
            assert np.isfinite(half).all() and np.array_equal(half, half.conj().T)
            assert half[0, 0] == 1e308 and half[1, 1] == -1e308
            assert np.allclose(eigenvalues(B), [-1e308, 1e308], rtol=1e-15, atol=0)
            B[1, 0] = 1e299
            with pytest.raises(ValueError, match="not Hermitian"):
                require_hermitian(B)


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
