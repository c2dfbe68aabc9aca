import math

import numpy as np
import pytest

from fractions import Fraction

from conftest import random_slice_params
from qutritwit.geometry import MapParams, critical_p, slice_params, so2_coeffs, spa_region
from qutritwit.linalg import min_eigenvalue
from qutritwit.witnesses import (
    SpaComponents,
    critical_p_from_witness,
    is_ppt,
    sigma_pair,
    spa_mix,
    spa_state,
    witness_matrix,
)


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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("where", [(0, 0), (2, 7)], ids=["diagonal", "off-diagonal pair"])
    def test_rejects_non_finite_entry(self, entry, where):
        # A NaN trace passed the trace test and the mixture came back NaN; an
        # off-diagonal inf pair keeps the trace and gave inf+nanj with a warning.
        M = witness_matrix(MapParams(1, 1, 0)).matrix.copy()
        M[where] = M[where[::-1]] = entry
        with pytest.raises(ValueError, match="non-finite"):
            spa_mix(M, 0.5)


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

    def test_float_input_rounds_once(self):
        # p* = t/(2+t), t = 3(2-a), of the rational a float holds, rounded once: float arithmetic
        # rounded up to four times and missed it at angle 3 pi/2, a row of `sweep --alpha-grid 12`.
        rng = np.random.default_rng(35)
        points = [so2_coeffs(3 * math.pi / 2)] + [so2_coeffs(2 * math.pi * k / 360) for k in range(360)]
        points += [random_slice_params(rng) for _ in range(300)]
        for p in points:
            t = 3 * (2 - Fraction(p.a))
            assert critical_p(p) == (float(t / (2 + t)) if t > 0 else 0.0), p
        assert critical_p(so2_coeffs(3 * math.pi / 2)) == 0.6666666666666667  # float arithmetic: ...666

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

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="Tr W = 1"):
            critical_p_from_witness(2 * witness_matrix(MapParams(0, 1, 1)).matrix)

    def test_positive_definite_witness_needs_no_noise(self):
        # a > 2 with b, c > 0: every eigenvalue is positive, so no roundoff reaches below zero.
        assert critical_p_from_witness(witness_matrix(MapParams(4, 1, 1))) == 0.0

    @pytest.mark.parametrize("a", [2, 3, 4, 2.0])
    def test_zero_eigenvalue_roundoff_needs_no_noise(self, a):
        # W(a, 0, 0) is PSD with zero eigenvalues, which LAPACK returns as tiny negatives:
        # p* was 4.4e-16 at a = 2 and 6.7e-32 at a = 4.
        assert critical_p_from_witness(witness_matrix(MapParams(a, 0, 0))) == 0.0


class TestSpaRegion:
    def test_examples(self):
        assert spa_region(1, 1)
        assert spa_region(Fraction(1, 3), Fraction(1, 3))
        assert not spa_region(0.1, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float32(np.nan)], ids=["nan", "inf", "-inf", "float32-nan"])
    def test_rejects_non_finite(self, bad):
        # A NaN difference read as on the boundary, so spa_region(nan, 1) and spa_region(1, nan) were True.
        with pytest.raises(ValueError, match="parameter b must be finite"):
            spa_region(bad, 1)
        with pytest.raises(ValueError, match="parameter c must be finite"):
            spa_region(1, bad)

    def test_exact_beyond_the_float_range(self):
        assert spa_region(10**400, 0) and spa_region(0, Fraction(10**400, 3))


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

    def test_certified_sigma_d_is_never_negative(self):
        # spa_region accepts a float point within roundoff of the line 2b+c = 1 (or 2c+b = 1),
        # where the float remainder 2b+c-1 can be -1.1e-16: a certificate an exact checker
        # rejects.  Within the region's tolerance the remainder is 0.
        res = spa_state(slice_params(0.2, math.nextafter(0.6, 0)))
        assert res.separable_certified
        assert np.diag(res.components.sigma_d.matrix).real.min() == 0.0
        rng = np.random.default_rng(34)
        certified = 0
        for b in rng.uniform(0, 0.5, 400):
            for c in (1 - 2 * b, (1 - b) / 2):  # on 2b+c = 1, then on 2c+b = 1
                for step in range(-8, 9):
                    x = float(c) + step * math.ulp(float(c))
                    if x < 0 or not spa_region(float(b), x):
                        continue
                    res = spa_state(slice_params(float(b), x))
                    assert res.separable_certified
                    assert min(np.diag(res.components.sigma_d.matrix).real) >= 0, (b, x)
                    certified += 1
        assert certified > 4000

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

    def test_pair_blocks_are_shared_read_only(self):
        first, second = spa_state(MapParams(0, 1, 1)), spa_state(slice_params(0.75, 0.75))
        for name, (i, j) in (("sigma_12", (1, 2)), ("sigma_13", (1, 3)), ("sigma_23", (2, 3))):
            fresh = sigma_pair(i, j).matrix.tobytes()
            assert getattr(first.components, name).matrix.tobytes() == fresh
            assert getattr(second.components, name).matrix.tobytes() == fresh
        with pytest.raises(ValueError, match="read-only"):
            first.components.sigma_12.matrix[0, 0] = 2.0
        assert first.components.sigma_12.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("kind", [Fraction, float])
    def test_reconstruct_matches_fresh_pair_blocks_bitwise(self, kind):
        # The plane_scan lattice (i, j)/9, exact and as floats, wherever the certificate exists.
        fresh = (sigma_pair(1, 2), sigma_pair(1, 3), sigma_pair(2, 3))
        for i in range(19):
            for j in range(19 - i):
                p = slice_params(kind(Fraction(i, 9)), kind(Fraction(j, 9)))
                if p.a >= 2 or not (res := spa_state(p)).separable_certified:
                    continue
                comp = res.components
                want = SpaComponents(*fresh, comp.sigma_d, comp.scale).reconstruct()
                assert comp.reconstruct().tobytes() == want.tobytes(), p

    def test_rejects_cp_corner(self):
        with pytest.raises(ValueError):
            spa_state(MapParams(2, 0, 0))

    def test_rejects_off_slice(self):
        with pytest.raises(ValueError, match="off the plane"):
            spa_state(MapParams(1, 1, 1))
