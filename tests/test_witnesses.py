import itertools
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from conftest import rand_hermitian, random_slice_params, random_tilde_region_params
from qutritwit.gellmann import default_basis
from qutritwit.geometry import MapParams, Positivity, classify, improper_coeffs, slice_params, so2_coeffs
from qutritwit.linalg import is_psd, partial_transpose
from qutritwit.maps import LinearMap3, apply_phi, apply_phi_tilde, phi_map, phi_tilde_map
from qutritwit.oracles import SeeSawConfig, min_product_expectation
from qutritwit.states import max_entangled_projector
from qutritwit.witnesses import (
    choi_witness,
    decompose_tilde,
    exact_witness_entries,
    matrix_entries,
    mix_witnesses,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
)

DOUBLES = (0, 4, 8)
# U (x) I, with U the permutation of the qutrit levels that swaps the second and third.
U9 = np.kron(np.eye(3)[[0, 2, 1]], np.eye(3))
# Upper root c of bc = (1-a)^2 at b = 1/10 on the plane a+b+c = 2, and a float
# point 1.6e-12 past it: outside the region by more than roundoff.
C0 = (1.9 + 0.37**0.5) / 2
FLOAT_OUTSIDE = slice_params(0.1, C0 + 1.6e-12)


def u_display(p):
    """Independent entrywise build of the conjugated witness pattern."""
    a, b, c = p.asfloats()
    M = np.zeros((9, 9), dtype=complex)
    for idx, val in zip(range(9), (a, b, c, b, c, a, c, a, b)):
        M[idx, idx] = val / 6
    for i in (0, 5, 7):
        for j in (0, 5, 7):
            if i != j:
                M[i, j] = -1 / 6
    return M


class TestStandardWitness:
    def test_choi_map_fixture(self):
        W = witness_matrix(MapParams(1, 1, 0)).matrix
        assert W[0, 0] == 1 / 6
        assert W[0, 4] == -1 / 6
        assert W[2, 2] == 0

    def test_trace_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert abs(witness_matrix(random_slice_params(rng)).trace() - 1) < 1e-14

    def test_cp_corner_is_psd(self):
        assert is_psd(witness_matrix(MapParams(2, 0, 0)).matrix)

    def test_matches_choi_construction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_slice_params(rng)
            direct = witness_matrix(p).matrix
            via_choi = choi_witness(lambda X: apply_phi(p, X)).matrix
            assert np.linalg.norm(direct - via_choi) < 1e-12


def reference_superop(fn):
    """Basis-action matrix S[k, l] = Tr(f_k fn(f_l)), one trace at a time."""
    elements = default_basis().elements
    S = np.zeros((9, 9), dtype=complex)
    for l, f in enumerate(elements):
        image = fn(f)
        for k, g in enumerate(elements):
            S[k, l] = np.trace(g @ image)
    return S


def plane_points():
    """Float and Fraction versions of landmark points and one random plane point."""
    third = Fraction(2, 3)
    points = [(1, 1, 0), (0, 1, 1), (third, third, third)]
    points.append(random_slice_params(np.random.default_rng(12)).astuple())
    return [MapParams(*(kind(x) for x in abc)) for abc in points for kind in (float, Fraction)]


class TestChoiOperator:
    @pytest.mark.parametrize("p", plane_points(), ids=str)
    def test_family_map_choi_matches_closed_form(self, p):
        standard = choi_witness(phi_map(p)).matrix - witness_matrix(p).matrix
        tilde = choi_witness(phi_tilde_map(p)).matrix - witness_tilde_matrix(p).matrix
        assert np.max(np.abs(standard)) < 1e-14
        assert np.max(np.abs(tilde)) < 1e-14

    @pytest.mark.parametrize("p", plane_points(), ids=str)
    def test_family_superop_matches_trace_loop(self, p):
        standard = phi_map(p).superop - reference_superop(lambda X: apply_phi(p, X))
        tilde = phi_tilde_map(p).superop - reference_superop(lambda X: apply_phi_tilde(p, X))
        assert np.max(np.abs(standard)) < 1e-14
        assert np.max(np.abs(tilde)) < 1e-14

    def test_superop_contraction_matches_callable_path(self):
        # A random real non-symmetric S: a swapped reshuffle of the contraction would show.
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = LinearMap3(rng.standard_normal((9, 9)))
            direct = choi_witness(m).matrix
            assert np.max(np.abs(direct - choi_witness(lambda X: m(X)).matrix)) < 1e-14

    def test_tag_names_the_construction(self):
        p = MapParams(1, 1, 0)
        for phi in (phi_map(p), phi_tilde_map(p), lambda X: X):
            W = choi_witness(phi)
            assert W.kind == "choi" and W.params is None

    def test_identity_map_gives_projector(self):
        W = choi_witness(lambda X: X).matrix
        assert np.linalg.norm(W - max_entangled_projector().matrix) < 1e-15

    def test_reduction_witness_display(self):
        W = choi_witness(lambda X: apply_phi(MapParams(0, 1, 1), X)).matrix
        expected = np.zeros((9, 9), dtype=complex)
        for idx, val in zip(range(9), (0, 1, 1, 1, 0, 1, 1, 1, 0)):
            expected[idx, idx] = val / 6
        for i in DOUBLES:
            for j in DOUBLES:
                if i != j:
                    expected[i, j] = -1 / 6
        assert np.linalg.norm(W - expected) < 1e-15


class TestTildeWitness:
    def test_symmetric_point_joins_families(self):
        p = MapParams(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))
        assert np.array_equal(witness_tilde_matrix(p).matrix, witness_matrix(p).matrix)

    def test_trace_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert abs(witness_tilde_matrix(random_slice_params(rng)).trace() - 1) < 1e-14

    def test_matches_choi_construction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_slice_params(rng)
            direct = witness_tilde_matrix(p).matrix
            via_choi = choi_witness(lambda X: apply_phi_tilde(p, X)).matrix
            assert np.linalg.norm(direct - via_choi) < 1e-12

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError):
            witness_tilde_matrix(MapParams(1, 1, 1))

    def test_families_differ_away_from_center(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 20:
            p = random_slice_params(rng)
            if max(abs(float(p.b) - 2 / 3), abs(float(p.c) - 2 / 3)) < 0.05:
                continue
            gap = np.linalg.norm(witness_matrix(p).matrix - witness_tilde_matrix(p).matrix)
            assert gap > 1e-3
            count += 1


class TestPermutedWitness:
    def test_matches_display(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_slice_params(rng)
            assert np.linalg.norm(witness_u(p).matrix - u_display(p)) < 1e-14

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError, match="off the plane"):
            witness_u(MapParams(1, 1, 1))

    def test_same_diagonal_as_tilde(self):
        p = MapParams(1, 1, 0)
        assert np.allclose(np.diag(witness_u(p).matrix), np.diag(witness_tilde_matrix(p).matrix), atol=0)

    def test_detection_invariance(self):
        rng = np.random.default_rng(6)
        p = so2_coeffs(0.9)
        W = witness_matrix(p).matrix
        WU = witness_u(p).matrix
        for _ in range(5):
            rho = rand_hermitian(rng, 9)
            lhs = np.trace(WU @ U9 @ rho @ U9.conj().T)
            rhs = np.trace(W @ rho)
            assert abs(lhs - rhs) < 1e-12

    def test_spectrum_preserved(self):
        p = so2_coeffs(2.3)
        w1 = np.linalg.eigvalsh(witness_matrix(p).matrix)
        w2 = np.linalg.eigvalsh(witness_u(p).matrix)
        assert np.allclose(w1, w2, atol=1e-13)


class TestDecomposition:
    @pytest.mark.parametrize(
        "p",
        [
            improper_coeffs(0.8),
            # Interior points: the displays hold there too, evaluated at the point itself.
            slice_params(0.7, 0.9),
            MapParams(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
            MapParams(Fraction(1, 2), Fraction(1), Fraction(1, 2)),
        ],
        ids=["ellipse", "interior-float", "interior-center", "interior-half"],
    )
    def test_boundary_displays(self, p):
        a, b, c = p.asfloats()
        cert = decompose_tilde(p)
        P_expected = np.zeros((9, 9), dtype=complex)
        P_expected[0, 0], P_expected[4, 4], P_expected[8, 8] = a, c, b
        P_expected[0, 4] = P_expected[4, 0] = b - 1
        P_expected[0, 8] = P_expected[8, 0] = c - 1
        P_expected[4, 8] = P_expected[8, 4] = a - 1
        Q_expected = np.zeros((9, 9), dtype=complex)
        for (s, t), w in {(1, 3): b, (2, 6): c, (5, 7): a}.items():
            Q_expected[s, s] = Q_expected[t, t] = w
            Q_expected[s, t] = Q_expected[t, s] = -w
        assert np.array_equal(cert.P, P_expected)
        assert np.array_equal(cert.Q, Q_expected)

    def test_certificate_invariants(self):
        rng = np.random.default_rng(7)
        points = [improper_coeffs(alpha) for alpha in np.linspace(0, 2 * pi, 12, endpoint=False)]
        points += [random_tilde_region_params(rng) for _ in range(10)]
        for p in points:
            cert = decompose_tilde(p)
            assert np.linalg.eigvalsh(cert.P).min() >= -1e-9
            assert np.linalg.eigvalsh(cert.Q).min() >= -1e-9
            assert cert.residual(witness_tilde_matrix(p)) <= 1e-10

    def test_boundary_principal_submatrix_eigenvalues(self):
        cert = decompose_tilde(improper_coeffs(1.3))
        sub = cert.P[np.ix_(DOUBLES, DOUBLES)]
        assert np.allclose(np.linalg.eigvalsh(sub), [0.0, 0.0, 2.0], atol=1e-9)

    def test_reconstruction_matches_partial_transpose_identity(self):
        p = MapParams(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))
        cert = decompose_tilde(p)
        Wt = witness_tilde_matrix(p).matrix
        assert np.linalg.norm(cert.P + partial_transpose(cert.Q) - 6 * Wt) < 1e-10

    def test_rejects_outside_region(self):
        with pytest.raises(ValueError):
            decompose_tilde(MapParams(1.5, 0.4, 0.1))

    # Points just past C0, outside the region bc >= (1-a)^2 by a gap between
    # 1e-13 and 1e-9: beyond roundoff, so each is outside.  The off-plane one
    # sits 1e-10 below a+b+c = 2, beyond roundoff too: the plane guard and
    # classify both put it off the plane.
    @pytest.mark.parametrize(
        "p, error",
        [
            (slice_params(Fraction(1, 10), Fraction(C0) + Fraction(1, 10**9)), "outside the region"),
            (FLOAT_OUTSIDE, "outside the region"),
            (MapParams(FLOAT_OUTSIDE.a, FLOAT_OUTSIDE.b, FLOAT_OUTSIDE.c - 1e-10), "off the plane"),
        ],
        ids=["rational", "float", "float-off-plane"],
    )
    def test_rejects_point_just_outside_region(self, p, error):
        gap = p.b * p.c - (1 - p.a) ** 2
        assert -1e-9 < gap < -1e-13
        assert p.on_slice() == (error == "outside the region")
        if p.on_slice():
            assert witness_tilde_matrix(p).params == p
        else:
            with pytest.raises(ValueError, match="off the plane"):
                witness_tilde_matrix(p)
        assert classify(p).positivity is Positivity.NOT_POSITIVE
        with pytest.raises(ValueError, match=error):
            decompose_tilde(p)

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError):
            decompose_tilde(MapParams(1, 1, 1))


class TestMixing:
    def test_single_atom(self):
        mixed = mix_witnesses([(pi, 1.0)])
        assert np.linalg.norm(mixed.matrix - witness_matrix(MapParams(0, 1, 1)).matrix) < 1e-12
        assert mixed.kind == "mixed"
        assert mixed.params is None

    def test_equal_choi_pair_average(self):
        mixed = mix_witnesses([(pi / 3, 0.5), (5 * pi / 3, 0.5)])
        average = (
            witness_matrix(so2_coeffs(pi / 3)).matrix + witness_matrix(so2_coeffs(5 * pi / 3)).matrix
        ) / 2
        assert np.linalg.norm(mixed.matrix - average) < 1e-14
        assert abs(mixed.trace() - 1) < 1e-12

    def test_cross_family_mixture_is_block_positive(self):
        mixed = mix_witnesses([(0.7, 0.3), (2.9, 0.2)], [(1.1, 0.25), (4.0, 0.25)])
        est = min_product_expectation(mixed.matrix, SeeSawConfig(restarts=40, rng_seed=12))
        assert est.value >= -1e-7

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            mix_witnesses([(0.5, -0.2), (1.0, 1.2)])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            mix_witnesses([(0.5, 0.7)])


class TestSerialization:
    def test_matrix_entries_roundtrip(self):
        W = witness_matrix(MapParams(1, 1, 0)).matrix
        entries = matrix_entries(W)
        rebuilt = np.array([[complex(re, im) for re, im in row] for row in entries])
        assert np.array_equal(rebuilt, W)

    def test_exact_entries(self):
        p = MapParams(Fraction(1), Fraction(1), Fraction(0))
        entries = exact_witness_entries(p, "standard")
        assert entries[0][0] == "1/6"
        assert entries[0][4] == "-1/6"
        assert entries[2][2] == "0"

    def test_exact_entries_require_rationals(self):
        with pytest.raises(ValueError):
            exact_witness_entries(MapParams(0.1, 1.0, 0.9), "standard")

    def test_exact_entries_match_floats(self):
        # (2/3, 2/3, 2/3) has a = b = c and cannot tell the row patterns apart;
        # the asymmetric fixtures can.
        kinds = (("standard", witness_matrix), ("tilde", witness_tilde_matrix), ("u_conjugated", witness_u))
        fixtures = ["2/3 2/3 2/3", "1 1 0", "0 1 1", "1/2 1 1/2", "1/3 1/2 7/6"]
        # The 190 lattice points (i, j)/9 of the plane.
        lattice = [(2 - Fraction(i, 9) - Fraction(j, 9), Fraction(i, 9), Fraction(j, 9)) for i in range(19) for j in range(19 - i)]
        # Integer parameters are exact too: they round once, as their Fractions do.
        integers = [t for t in itertools.product(range(12), repeat=3) if sum(t) > 0]
        cases = [(tuple(Fraction(x) for x in abc.split()), kinds) for abc in fixtures]
        cases += [(abc, kinds) for abc in lattice] + [(abc, kinds[:1]) for abc in integers]
        for abc, builds in cases:
            p = MapParams(*abc)
            for kind, build in builds:
                rebuilt = np.array([[float(Fraction(cell)) for cell in row] for row in exact_witness_entries(p, kind)])
                # Bit for bit, signed zeros included: each float entry is float() of the exact one.
                assert rebuilt.astype(complex).tobytes() == build(p).matrix.tobytes(), (abc, kind)
        for abc in fixtures:
            p = MapParams(*(Fraction(x) for x in abc.split()))
            # The defining conjugation, independent of how witness_u is built.
            rebuilt = np.array([[float(Fraction(cell)) for cell in row] for row in exact_witness_entries(p, "u_conjugated")])
            assert np.array_equal(rebuilt, (U9 @ witness_matrix(p).matrix @ U9.T).real), abc

    @pytest.mark.parametrize("kind", ["tilde", "u_conjugated"])
    def test_exact_entries_reject_off_slice(self, kind):
        with pytest.raises(ValueError, match="off the plane"):
            exact_witness_entries(MapParams(1, 1, 1), kind)

    def test_unsupported_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unsupported kind 'bogus'"):
            exact_witness_entries(MapParams(1, 1, 0), "bogus")
