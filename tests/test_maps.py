import dataclasses
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from conftest import rand_complex, random_slice_params
from qutritwit.geometry import (
    Decomposability,
    MapParams,
    Positivity,
    classify,
    critical_p,
    detects_rho_family,
    dual,
    improper_coeffs,
    n_abc,
    on_ellipse,
    slice_params,
    so2_coeffs,
)
from qutritwit.maps import (
    apply_D,
    apply_phi,
    apply_phi_tilde,
    improper_rotation,
    phi_from_rotation,
    phi_map,
    phi_tilde_map,
    rotation_block,
    so2_rotation,
    stochastic_matrix,
)
from qutritwit.linalg import trace_pair
from qutritwit.spa import spa_region, spa_state
from qutritwit.witnesses import decompose_tilde, exact_witness_entries, witness_matrix


def diag_proj(i):
    E = np.zeros((3, 3), dtype=complex)
    E[i, i] = 1.0
    return E


class TestParams:
    def test_n_abc(self):
        assert n_abc(MapParams(1, 1, 0)) == 0.5
        assert n_abc(MapParams(0, 1, 1)) == 0.5
        assert n_abc(MapParams(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))) == Fraction(1, 2)

    def test_int_entries_are_fractions(self):
        # An int rounds once, as its Fraction does: N = 1/11 stays exact, not a float.
        p = MapParams(0, 0, 11)
        assert all(type(x) is Fraction for x in p.astuple()) and p.is_exact
        assert n_abc(p) == Fraction(1, 11)
        assert repr(p) == "MapParams(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(11, 1))"

    def test_total_is_not_a_field(self):
        # The stored sum leaves equality, hash and the field list to (a, b, c).
        p, q = MapParams(Fraction(1, 2), 1, Fraction(1, 2)), MapParams(0.5, 1.0, 0.5)
        assert p.total == 2 and type(p.total) is Fraction and type(q.total) is float
        assert p == q and hash(p) == hash(q)
        assert [f.name for f in dataclasses.fields(p)] == ["a", "b", "c"]
        assert not MapParams(Fraction(1), 1, 0.0).is_exact

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MapParams(-0.1, 1, 1)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            MapParams(0, 0, 0)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -float("inf"), 10**400, Fraction(10) ** 400],
        ids=["nan", "inf", "-inf", "huge_int", "huge_fraction"],
    )
    def test_rejects_non_finite_and_overflowing(self, bad):
        with pytest.raises(ValueError):
            MapParams(bad, 1, 1)
        with pytest.raises(ValueError):
            MapParams(1, 1, bad)


class TestDiagonalMap:
    def test_reduction_case(self):
        rng = np.random.default_rng(0)
        p = MapParams(0, 1, 1)
        X = rand_complex(rng, 3)
        assert np.allclose(apply_D(p, X), np.trace(X) * np.eye(3), atol=1e-14)

    def test_substitution(self):
        out = apply_D(MapParams(2, 0, 0), np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(out, np.diag([3.0, 6.0, 9.0]), atol=0)

    def test_output_diagonal_with_row_sum_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c = rng.uniform(0, 2, size=3)
            p = MapParams(a, b, c)
            X = rand_complex(rng, 3)
            out = apply_D(p, X)
            assert np.linalg.norm(out - np.diag(np.diag(out))) == 0
            assert abs(np.trace(out) - (a + b + c + 1) * np.trace(X)) < 1e-12


class TestPhi:
    def test_reduction_map(self):
        rng = np.random.default_rng(2)
        p = MapParams(0, 1, 1)
        X = rand_complex(rng, 3)
        assert np.allclose(apply_phi(p, X), (np.trace(X) * np.eye(3) - X) / 2, atol=1e-14)

    def test_choi_map_on_projector(self):
        out = apply_phi(MapParams(1, 1, 0), diag_proj(0))
        assert np.allclose(out, np.diag([0.5, 0.0, 0.5]), atol=0)

    def test_unitality_and_trace_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = MapParams(*rng.uniform(0.01, 2.5, size=3))
            assert np.linalg.norm(apply_phi(p, np.eye(3)) - np.eye(3)) < 1e-12
            assert np.linalg.norm(apply_phi_tilde(p, np.eye(3)) - np.eye(3)) < 1e-12
            X = rand_complex(rng, 3)
            assert abs(np.trace(apply_phi(p, X)) - np.trace(X)) < 1e-12
            assert abs(np.trace(apply_phi_tilde(p, X)) - np.trace(X)) < 1e-12

    def test_tilde_agrees_at_symmetric_point(self):
        rng = np.random.default_rng(4)
        p = MapParams(2 / 3, 2 / 3, 2 / 3)
        for _ in range(5):
            X = rand_complex(rng, 3)
            assert np.allclose(apply_phi(p, X), apply_phi_tilde(p, X), atol=1e-14)

    def test_tilde_substitution(self):
        # Column rules give D~(|2><2|) = diag(b, c+1, a); here (0, 2, 1).
        out = apply_phi_tilde(MapParams(1, 0, 1), diag_proj(1))
        assert np.allclose(out, np.diag([0.0, 0.5, 0.5]), atol=0)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        p = MapParams(0.4, 1.1, 0.5)
        X = np.array([rand_complex(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        for apply in (apply_D, apply_phi, apply_phi_tilde):
            stacked = apply(p, X)
            assert stacked.shape == X.shape
            for Y, Z in zip(X.reshape(6, 3, 3), stacked.reshape(6, 3, 3)):
                assert np.max(np.abs(Z - apply(p, Y))) < 1e-14


class TestClassify:
    def test_known_points(self):
        cases = {
            (1, 1, 0): (Positivity.POSITIVE_NOT_CP, Decomposability.INDECOMPOSABLE),
            (1, 0, 1): (Positivity.POSITIVE_NOT_CP, Decomposability.INDECOMPOSABLE),
            (0, 1, 1): (Positivity.POSITIVE_NOT_CP, Decomposability.DECOMPOSABLE),
            (2, 0, 0): (Positivity.COMPLETELY_POSITIVE, Decomposability.DECOMPOSABLE),
            (0.9, 0.5, 0.7): (Positivity.POSITIVE_NOT_CP, Decomposability.DECOMPOSABLE),
            (0.5, 0.1, 0.1): (Positivity.NOT_POSITIVE, Decomposability.UNKNOWN),
            (0.2, 0.3, 0.4): (Positivity.NOT_POSITIVE, Decomposability.UNKNOWN),
        }
        for abc, (pos, dec) in cases.items():
            cls = classify(MapParams(*abc))
            assert (cls.positivity, cls.decomposability) == (pos, dec), abc

    def test_condition_three_vacuous_above_one(self):
        # a > 1: bc may fall below (1-a)^2 without losing positivity.
        cls = classify(MapParams(1.5, 0.2, 0.3))
        assert cls.positivity == Positivity.POSITIVE_NOT_CP

    def test_boundary_equality_is_decomposable(self):
        # bc = (2-a)^2 / 4 exactly: flagged decomposable.
        cls = classify(MapParams(Fraction(1), Fraction(1, 2), Fraction(1, 2)))
        assert cls.decomposability == Decomposability.DECOMPOSABLE

    def test_cp_never_flagged_indecomposable(self):
        cls = classify(MapParams(3, 0, 0))
        assert cls.positivity == Positivity.COMPLETELY_POSITIVE
        assert cls.decomposability == Decomposability.DECOMPOSABLE

    def test_random_float_slice_points_above_one_are_positive(self):
        # a > 1 is inside the positive region; float slice points often sum to
        # 2 - 1 ulp, which is roundoff and not a side of the plane.
        rng = np.random.default_rng(0)
        b, c = rng.uniform(0, 1, size=(2, 100_000))
        inside = b + c < 1
        points = [slice_params(float(x), float(y)) for x, y in zip(b[inside], c[inside])][:50_000]
        assert len(points) == 50_000
        flipped = [p for p in points if classify(p).positivity is Positivity.NOT_POSITIVE]
        assert flipped == []


def _plane_decisions(p):
    """Every public side-of-boundary decision at the plane point p."""
    try:
        decompose_tilde(p)
        tilde_region = True
    except ValueError:
        tilde_region = False
    return classify(p), detects_rho_family(p), critical_p(p), spa_region(p.b, p.c), tilde_region


class TestNumpyScalars:
    # Values a float32 holds exactly, so float32 arithmetic on them matches
    # float64; int64 truncates them to integer points.
    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("bc", [(0.5, 0.75), (1.0, 1.0), (1.0, 0.0), (0.25, 0.25), (1.25, 0.25), (0.0, 2.0)])
    def test_plane_decisions_match_python_numbers(self, scalar, bc):
        b, c = (scalar(x) for x in bc)
        assert _plane_decisions(slice_params(b, c)) == _plane_decisions(slice_params(b.item(), c.item()))

    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("abc", [(0.5, 1.2, 0.9), (0.5, 1.2, 0.1), (1.5, 0.25, 0.75), (2.5, 1.0, 0.5)])
    def test_classify_matches_python_numbers(self, scalar, abc):
        values = np.array(abc, dtype=scalar)
        assert classify(MapParams(*values)) == classify(MapParams(*values.tolist()))

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_constructions_run_in_float64(self, scalar):
        p = slice_params(scalar(0.5), scalar(0.75))
        assert witness_matrix(p).trace() == 1
        assert spa_state(p).p_star == spa_state(slice_params(0.5, 0.75)).p_star

    def test_float32_point_lifts_onto_the_plane(self):
        assert slice_params(np.float32(0.1), np.float32(0.2)).on_slice()

    @pytest.mark.parametrize("kind", ["standard", "tilde", "u_conjugated"])
    def test_int64_takes_the_exact_path(self, kind):
        p = MapParams(np.int64(1), np.int64(1), np.int64(0))
        assert p.is_exact
        assert exact_witness_entries(p, kind) == exact_witness_entries(MapParams(1, 1, 0), kind)


class TestSlice:
    def test_slice_params(self):
        assert slice_params(1, 1).astuple() == (0, 1, 1)
        assert slice_params(1, 0).astuple() == (1, 1, 0)
        p = slice_params(Fraction(1, 3), Fraction(1, 3))
        assert p.astuple() == (Fraction(4, 3), Fraction(1, 3), Fraction(1, 3))

    def test_slice_params_rejects_outside(self):
        with pytest.raises(ValueError):
            slice_params(1.5, 1.0)
        with pytest.raises(ValueError):
            slice_params(-0.1, 0.5)

    def test_on_ellipse(self):
        assert on_ellipse(MapParams(0, 1, 1))
        assert on_ellipse(MapParams(Fraction(4, 3), Fraction(1, 3), Fraction(1, 3)))
        assert not on_ellipse(MapParams(2 / 3, 2 / 3, 2 / 3))

    def test_on_ellipse_rejects_off_slice(self):
        with pytest.raises(ValueError):
            on_ellipse(MapParams(1, 1, 1))

    def test_decomposable_iff_self_dual_on_slice(self):
        # On the slice, b = c is exactly the decomposable line; the boundary
        # comparison bc = (2-a)^2/4 is exact, so probe it with rationals.
        for k in range(11):
            b = Fraction(k, 10)
            cls = classify(slice_params(b, b))
            assert cls.decomposability == Decomposability.DECOMPOSABLE
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_slice_params(rng)
            if classify(p).positivity == Positivity.NOT_POSITIVE:
                continue
            expect = Decomposability.DECOMPOSABLE if p.b == p.c else Decomposability.INDECOMPOSABLE
            assert classify(p).decomposability == expect


class TestDuality:
    def test_parameter_swap(self):
        assert dual(MapParams(1, 1, 0)).astuple() == (1, 0, 1)
        assert dual(MapParams(0, 1, 1)).astuple() == (0, 1, 1)

    def test_trace_pairing_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = MapParams(*rng.uniform(0.05, 2.0, size=3))
            X = rand_complex(rng, 3)
            Y = rand_complex(rng, 3)
            lhs = trace_pair(X, apply_phi(p, Y))
            rhs = trace_pair(apply_phi(dual(p), X), Y)
            assert abs(lhs - rhs) < 1e-12


class TestRotationCoefficients:
    def test_special_angles_proper(self):
        for alpha, expected in [
            (pi, (0, 1, 1)),
            (0.0, (4 / 3, 1 / 3, 1 / 3)),
            (pi / 3, (1, 0, 1)),
            (-pi / 3, (1, 1, 0)),
        ]:
            got = so2_coeffs(alpha).asfloats()
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12, alpha

    def test_special_angles_improper(self):
        for alpha, expected in [(0.0, (1, 0, 1)), (pi, (1 / 3, 4 / 3, 1 / 3))]:
            got = improper_coeffs(alpha).asfloats()
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12, alpha

    def test_slice_identities_on_grid(self):
        for coeffs in (so2_coeffs, improper_coeffs):
            for alpha in np.linspace(0, 2 * pi, 720, endpoint=False):
                a, b, c = coeffs(alpha).asfloats()
                assert abs(a + b + c - 2) < 1e-12
                assert abs(b * c - (1 - a) ** 2) < 1e-12
                assert abs(a * b - (1 - c) ** 2) < 1e-12
                assert abs(a * c - (1 - b) ** 2) < 1e-12

    def test_rotation_sweeps_are_never_not_positive(self):
        # Every rotation angle is a point of the ellipse, the boundary of the
        # positive set; roundoff must not push it to the outside.
        for coeffs in (so2_coeffs, improper_coeffs):
            for alpha in np.linspace(0, 2 * pi, 3600, endpoint=False):
                cls = classify(coeffs(float(alpha)))
                assert cls.positivity is not Positivity.NOT_POSITIVE, (coeffs.__name__, alpha)

    def test_dual_reverses_angle(self):
        for alpha in (0.4, 1.9, 5.5):
            lhs = dual(so2_coeffs(alpha)).asfloats()
            rhs = so2_coeffs(-alpha).asfloats()
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) < 1e-12


class TestRotationConstruction:
    def test_rotation_block_identity(self):
        R = rotation_block(np.eye(2))
        assert np.array_equal(R, np.diag([1.0, 1.0] + [-1.0] * 6))

    def test_rotation_block_determinant_and_orthogonality(self):
        for alpha in (0.3, 2.2):
            for T in (so2_rotation(alpha), improper_rotation(alpha)):
                R = rotation_block(T)
                assert abs(np.linalg.det(R) - np.linalg.det(T)) < 1e-12
                assert np.linalg.norm(R.T @ R - np.eye(8)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_rotation_block_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            rotation_block(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not orthogonal"):  # T^T T would overflow
            rotation_block(np.array([[1e200, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_rotation_is_rejected(self, entry):
        # A NaN passed the orthogonality test (the norm comparison is False); an inf warned in T^T T.
        T = np.eye(2)
        T[0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            rotation_block(T)
        R = np.eye(8)
        R[3, 3] = entry
        with pytest.raises(ValueError, match="non-finite"):
            phi_from_rotation(R)

    def test_phi_from_identity_rotation_unital(self):
        m = phi_from_rotation(np.eye(8))
        assert np.linalg.norm(m(np.eye(3)) - np.eye(3)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_phi_from_rotation_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            phi_from_rotation(1.1 * np.eye(8))
        with pytest.raises(ValueError, match="not orthogonal"):  # R^T R would overflow
            phi_from_rotation(1e200 * np.eye(8))

    def test_reduction_at_pi(self):
        rng = np.random.default_rng(8)
        m = phi_from_rotation(rotation_block(so2_rotation(pi)))
        for _ in range(5):
            X = rand_complex(rng, 3)
            assert np.linalg.norm(m(X) - (np.trace(X) * np.eye(3) - X) / 2) < 1e-12

    def test_improper_zero_angle(self):
        rng = np.random.default_rng(9)
        m = phi_from_rotation(rotation_block(improper_rotation(0.0)))
        p = MapParams(1, 0, 1)
        for _ in range(20):
            X = rand_complex(rng, 3)
            assert np.linalg.norm(m(X) - apply_phi_tilde(p, X)) < 1e-10

    def test_equivalence_with_closed_forms(self):
        for alpha in np.linspace(0, 2 * pi, 12, endpoint=False):
            proper = phi_from_rotation(rotation_block(so2_rotation(alpha)))
            assert np.linalg.norm(proper.superop - phi_map(so2_coeffs(alpha)).superop) < 1e-10
            refl = phi_from_rotation(rotation_block(improper_rotation(alpha)))
            assert np.linalg.norm(refl.superop - phi_tilde_map(improper_coeffs(alpha)).superop) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(10)
        m = phi_map(MapParams(0.8, 0.9, 0.3))
        X, Y = rand_complex(rng, 3), rand_complex(rng, 3)
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert np.linalg.norm(m(z * X + Y) - (z * m(X) + m(Y))) < 1e-12


class TestClassifierOracleGrid:
    def test_agreement_on_dense_grid(self):
        # Block positivity of the witness is equivalent to positivity of the
        # map; the see-saw estimate must agree with the closed-form
        # classifier outside a 1e-7 margin band around zero.
        from qutritwit.oracles import SeeSawConfig, min_product_expectation
        from qutritwit.witnesses import witness_matrix

        cfg = SeeSawConfig(restarts=12, max_iters=150, rng_seed=17)
        n = 50
        for i in range(n):
            for j in range(n):
                b = 2.0 * i / (n - 1)
                c = 2.0 * j / (n - 1)
                if b + c > 2.0:
                    continue
                p = slice_params(b, c)
                estimate = min_product_expectation(witness_matrix(p).matrix, cfg).value
                if abs(estimate) < 1e-7:
                    continue
                negative = classify(p).positivity == Positivity.NOT_POSITIVE
                assert (estimate < -1e-7) == negative, (b, c, estimate)


class TestStochasticMatrix:
    def test_circulant_reduction(self):
        D = stochastic_matrix(MapParams(0, 1, 1), "circulant")
        assert np.allclose(D, 0.5 * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), atol=0)

    def test_improper_display(self):
        D = stochastic_matrix(MapParams(1, 0, 1), "improper")
        assert np.allclose(D, 0.5 * np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]]), atol=0)

    def test_doubly_stochastic(self):
        rng = np.random.default_rng(11)
        for kind in ("circulant", "improper"):
            p = random_slice_params(rng)
            D = stochastic_matrix(p, kind)
            assert np.max(np.abs(D.sum(axis=0) - 1)) < 1e-12
            assert np.max(np.abs(D.sum(axis=1) - 1)) < 1e-12

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            stochastic_matrix(MapParams(1, 1, 0), "other")
