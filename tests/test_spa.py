import numpy as np
import pytest

from fractions import Fraction

from conftest import random_slice_params
from qutritwit.geometry import MapParams, critical_p, slice_params
from qutritwit.linalg import min_eigenvalue
from qutritwit.spa import critical_p_from_witness, spa_mix, spa_region, spa_state
from qutritwit.states import is_ppt
from qutritwit.witnesses import witness_matrix


def bisect_critical_p(W, iters=60):
    """Independent oracle: bisection on the smallest mixture eigenvalue."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if min_eigenvalue(spa_mix(W, mid)) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


class TestSpaMix:
    def test_endpoints(self):
        W = witness_matrix(MapParams(1, 1, 0))
        assert np.allclose(spa_mix(W, 1.0), np.eye(9) / 9, atol=0)
        assert np.array_equal(spa_mix(W, 0.0), W.matrix)

    def test_eigenvalues_affine_in_p(self):
        W = witness_matrix(MapParams(0, 1, 1))
        base = np.linalg.eigvalsh(W.matrix)
        for p in (0.2, 0.5, 0.9):
            mixed = np.linalg.eigvalsh(spa_mix(W, p))
            assert np.allclose(mixed, np.sort((1 - p) * base + p / 9), atol=1e-13)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            spa_mix(np.eye(9), 0.5)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            spa_mix(witness_matrix(MapParams(1, 1, 0)), 1.5)


class TestCriticalP:
    def test_reduction_map(self):
        assert critical_p(MapParams(0, 1, 1)) == 0.75

    def test_choi_map(self):
        assert abs(critical_p(MapParams(1, 1, 0)) - 0.6) < 1e-15

    def test_cp_corner(self):
        assert critical_p(MapParams(2, 0, 0)) == 0.0

    def test_exact_input_rounds_once(self):
        # At a = 17/9, p* = 1/7; rounding a first misses it by 2 ulp, and a = 2 - 1e-20,
        # not CP, would give 0.
        assert critical_p(slice_params(Fraction(1, 9), 0)) == 1 / 7
        assert critical_p(slice_params(Fraction(1, 10**20), 0)) == 1.5e-20

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError):
            critical_p(MapParams(1, 1, 1))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_slice_params(rng)
            if float(p.a) >= 2:
                continue
            W = witness_matrix(p)
            assert abs(critical_p(p) - bisect_critical_p(W)) < 1e-9

    def test_critical_mixture_touches_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_slice_params(rng)
            if float(p.a) >= 2 - 1e-6:
                continue
            W = witness_matrix(p)
            star = critical_p(p)
            assert -1e-9 <= min_eigenvalue(spa_mix(W, star)) <= 1e-7
            assert min_eigenvalue(spa_mix(W, star * (1 - 1e-3))) < 0

    def test_eigenvalue_route_agrees(self):
        p = MapParams(0, 1, 1)
        assert abs(critical_p_from_witness(witness_matrix(p)) - 0.75) < 1e-12

    def test_positive_definite_witness_needs_no_noise(self):
        # a > 2 with b, c > 0: every eigenvalue is positive, so no roundoff reaches below zero.
        assert critical_p_from_witness(witness_matrix(MapParams(4, 1, 1))) == 0.0

    @pytest.mark.parametrize("a", [2, 4])
    def test_zero_eigenvalue_roundoff_needs_no_noise(self, a):
        # W(a, 0, 0) is PSD with zero eigenvalues, which LAPACK returns as tiny negatives:
        # p* was 4.4e-16 at a = 2 and 6.7e-32 at a = 4.
        assert critical_p_from_witness(witness_matrix(MapParams(a, 0, 0))) == 0.0


class TestSpaRegion:
    def test_examples(self):
        assert spa_region(1, 1)
        assert spa_region(Fraction(1, 3), Fraction(1, 3))
        assert not spa_region(0.1, 0.1)


class TestSpaState:
    def test_explicit_form(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_slice_params(rng)
            a, b, c = p.asfloats()
            if a >= 2:
                continue
            expected = np.zeros((9, 9), dtype=complex)
            for i in (0, 4, 8):
                expected[i, i] = 2
            for i in (1, 5, 6):
                expected[i, i] = 2 * b + c
            for i in (2, 3, 7):
                expected[i, i] = 2 * c + b
            for i in (0, 4, 8):
                for j in (0, 4, 8):
                    if i != j:
                        expected[i, j] = -1
            expected /= 3 * (2 + 3 * (2 - a))
            res = spa_state(p)
            assert np.max(np.abs(res.state.matrix - expected)) < 1e-12

    def test_reduction_point_certified(self):
        res = spa_state(MapParams(0, 1, 1))
        assert res.separable_certified
        assert res.p_star == 0.75
        rebuilt = res.components.reconstruct()
        assert np.linalg.norm(rebuilt - res.state.matrix) < 1e-10

    def test_components_psd_and_ppt_in_region(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 8:
            p = random_slice_params(rng)
            if float(p.a) >= 2 or not spa_region(p.b, p.c):
                continue
            res = spa_state(p)
            comp = res.components
            assert np.linalg.norm(comp.reconstruct() - res.state.matrix) < 1e-10
            for s in (comp.sigma_12, comp.sigma_13, comp.sigma_23, comp.sigma_d):
                assert s.is_psd()
                assert is_ppt(s.matrix)
            checked += 1

    def test_diagonal_component_vanishes_at_intersection(self):
        res = spa_state(slice_params(Fraction(1, 3), Fraction(1, 3)))
        assert res.separable_certified
        assert np.linalg.norm(res.components.sigma_d.matrix) == 0

    def test_outside_region_not_certified(self):
        res = spa_state(slice_params(0.1, 0.1))
        assert not res.separable_certified
        assert res.components is None

    @pytest.mark.parametrize("kind", [Fraction, float])
    def test_state_is_the_noisy_witness_bitwise(self, kind):
        # spa_state builds the mixture entry by entry; spa_mix of the witness is the reference.
        n = 6
        for i in range(n + 1):
            for j in range(n + 1 - i):
                p = slice_params(kind(Fraction(2 * i, n)), kind(Fraction(2 * j, n)))
                if p.a >= 2:
                    continue
                res = spa_state(p)
                assert res.state.matrix.tobytes() == spa_mix(witness_matrix(p), res.p_star).tobytes(), p

    def test_rejects_cp_corner(self):
        with pytest.raises(ValueError):
            spa_state(MapParams(2, 0, 0))

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError, match="off the plane"):
            spa_state(MapParams(1, 1, 1))
