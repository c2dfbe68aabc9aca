from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf, pi, ulp

import numpy as np
import pytest

from conftest import random_slice_params
from qutritwit.geometry import (
    Decomposability,
    MapParams,
    classify,
    detection_value,
    detects_rho_family,
    improper_coeffs,
    slice_params,
    so2_coeffs,
)
from qutritwit.linalg import eigenvalues, min_eigenvalue, partial_transpose, trace_pair
from qutritwit.states import (
    detection_value_numeric,
    is_ppt,
    max_entangled_projector,
    rho_eps,
    sigma_diag,
    sigma_pair,
)
from qutritwit.witnesses import witness_tilde_matrix


class TestRhoEps:
    def test_trace(self):
        for eps in (0.2, 1.0, 5.0):
            assert abs(rho_eps(eps).trace() - (3 + 3 * eps + 3 / eps)) < 1e-12

    def test_psd_and_ppt(self):
        for eps in (0.1, 0.5, 1.0, 2.0, 10.0):
            state = rho_eps(eps)
            assert state.is_psd()
            assert is_ppt(state.matrix)

    def test_rejects_nonpositive_eps(self):
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                rho_eps(eps)

    @pytest.mark.parametrize(
        "eps", [np.nan, inf, 5e-324, np.float64(5e-324), Fraction(1, 10**400)],
        ids=["nan", "inf", "5e-324", "float64-5e-324", "1/10^400"],
    )
    def test_rejects_eps_or_reciprocal_beyond_floats(self, eps):
        # Each built a matrix with a NaN or inf entry.
        with pytest.raises(ValueError, match="must be finite"):
            rho_eps(eps)


class TestPptCheck:
    def test_maximally_entangled_fails(self):
        assert not is_ppt(max_entangled_projector().matrix)

    def test_product_state_passes(self):
        M = np.zeros((9, 9), dtype=complex)
        M[1, 1] = 1.0  # |12><12|
        assert is_ppt(M)


class TestMaxEntangledProjector:
    def test_rank_one_trace_one(self):
        state = max_entangled_projector()
        w = eigenvalues(state.matrix)
        assert abs(state.trace() - 1) < 1e-14
        assert np.sum(w > 1e-12) == 1

    def test_partial_transpose_minimum(self):
        m = min_eigenvalue(partial_transpose(max_entangled_projector().matrix))
        assert abs(m + 1 / 3) < 1e-12


class TestDetectionValue:
    def test_closed_form_equals_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = MapParams(*rng.uniform(0.05, 2.0, size=3))
            eps = rng.uniform(0.1, 5.0)
            assert abs(detection_value(p, eps) - detection_value_numeric(p, eps)) < 1e-12

    def test_reduction_witness_never_detects(self):
        p = MapParams(0, 1, 1)
        for eps in np.linspace(0.05, 5.0, 40):
            value = detection_value(p, eps)
            assert abs(value - (eps - 1) ** 2 / (2 * eps)) < 1e-12
            assert value >= 0

    def test_choi_witness_detects(self):
        assert detection_value(MapParams(1, 1, 0), 0.5) == -0.25

    def test_center_point_double_root(self):
        p = MapParams(2 / 3, 2 / 3, 2 / 3)
        for eps in np.linspace(0.1, 4.0, 30):
            assert detection_value(p, eps) >= -1e-15

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            detection_value(MapParams(1, 1, 0), 0.0)

    @pytest.mark.parametrize("p", [MapParams(1.0, 1.0, 0.0), MapParams(1, 1, 0)], ids=str)
    @pytest.mark.parametrize(
        "eps", [np.nan, inf, np.float32(np.nan), np.float64(inf)], ids=["nan", "inf", "float32-nan", "float64-inf"]
    )
    def test_rejects_non_finite_eps(self, p, eps):
        # Float parameters returned nan; exact ones raised OverflowError for inf.
        with pytest.raises(ValueError, match="eps must be finite"):
            detection_value(p, eps)

    def test_exact_eps_beyond_floats(self):
        # The certificate's vertex (2-a)/(2b) is 5e399 here: finite, only not a float.
        p = MapParams(1, Fraction(1, 10**400), 1)
        eps = Fraction(10**400, 2)
        assert detection_value(p, eps) == -0.25
        assert detection_value(p, 10**400) == 0.0  # an int: N 10^-400, below the float range


class TestDetectionInterval:
    def test_choi_map(self):
        lo, hi = detects_rho_family(MapParams(1, 1, 0))
        assert abs(lo - 0) < 1e-14
        assert abs(hi - 1) < 1e-14

    def test_dual_choi_map_unbounded(self):
        lo, hi = detects_rho_family(MapParams(1, 0, 1))
        assert abs(lo - 1) < 1e-14
        assert hi == inf

    def test_reduction_map_none(self):
        assert detects_rho_family(MapParams(0, 1, 1)) is None

    def test_interval_iff_asymmetric_on_slice(self):
        # Exact rational grid: the discriminant is (b - c)^2 on the slice.
        for i in range(9):
            for j in range(9 - i):
                b, c = Fraction(i, 5), Fraction(j, 5)
                if b + c == 0:
                    continue
                interval = detects_rho_family(slice_params(b, c))
                assert (interval is not None) == (b != c), (b, c)

    def test_float_self_dual_points_are_decomposable(self):
        # On the plane b = c is the line 4bc = (2-a)^2; float points on it
        # miss it by roundoff only and must not read as indecomposable.
        for b in np.linspace(0, 1, 1001):
            p = slice_params(float(b), float(b))
            assert classify(p).decomposability is Decomposability.DECOMPOSABLE, b
            assert detects_rho_family(p) is None, b

    def test_float_point_near_the_corner_is_indecomposable(self):
        # (2 - 1e-8, 0, 1e-8) lies 2.5e-17 inside 4bc < (2-a)^2, far more than
        # its inputs' roundoff moves bc - (2-a)^2/4 (about 1e-24).
        p = slice_params(0.0, 1e-8)
        assert classify(p).decomposability is Decomposability.INDECOMPOSABLE
        lo, hi = detects_rho_family(p)
        assert lo < 2.0 < hi == inf
        assert detection_value(p, 2.0) < 0

    @pytest.mark.parametrize(
        "p",
        [
            slice_params(Fraction(1, 10**13), 1),
            slice_params(Fraction(1, 10**17), 1),
            so2_coeffs(pi / 3),
            so2_coeffs(5 * pi / 3),
        ],
        ids=["b=1e-13", "b=1e-17", "alpha=pi/3", "alpha=5pi/3"],
    )
    def test_lower_end_does_not_cancel(self, p):
        # With bc << (2-a)^2/4 the lower root ((2-a) - sqrt(D)) / (2b) cancels to
        # nothing (1.5 for 1.0 at the Choi angle pi/3); 2c / ((2-a) + sqrt(D)) does not.
        with localcontext() as ctx:
            ctx.prec = 60
            a, b, c = (Decimal(x.numerator) / x.denominator for x in map(Fraction, p.astuple()))
            stable = 2 * c / ((2 - a) + ((2 - a) ** 2 - 4 * b * c).sqrt())
        lo, _ = detects_rho_family(p)
        assert abs(Decimal(lo) - stable) <= 2 * Decimal(ulp(float(stable)))

    def test_interval_sign_scan(self):
        # Sampled detection values are negative inside the interval and
        # non-negative outside, including the degenerate linear case b = 0.
        for p in (MapParams(1, 1, 0), MapParams(1, 0, 1), MapParams(0.4, 1.3, 0.3)):
            interval = detects_rho_family(p)
            assert interval is not None
            lo, hi = interval
            probe_hi = hi if hi != inf else 2 * max(lo, 1.0) + 3.0
            inside = np.linspace(lo, probe_hi, 13)[1:-1] if hi != inf else np.linspace(lo + 0.1, probe_hi, 11)
            for eps in inside:
                assert detection_value(p, float(eps)) < 0, (p, eps)
            for eps in (lo / 2, lo, hi) if hi != inf else (lo / 2, lo):
                if eps > 0:
                    assert detection_value(p, float(eps)) >= -1e-12


class TestSigmaStates:
    def test_pair_is_psd_and_ppt(self):
        s = sigma_pair(1, 2)
        assert s.is_psd()
        assert is_ppt(s.matrix)

    def test_pair_support(self):
        # Rank 3, contained in the product subspace spanned by levels {i, j}.
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            s = sigma_pair(i, j)
            w = eigenvalues(s.matrix)
            assert np.sum(w > 1e-12) == 3
            keep = [3 * (r - 1) + (t - 1) for r in (i, j) for t in (i, j)]
            mask = np.ones(9, dtype=bool)
            mask[keep] = False
            assert np.linalg.norm(s.matrix[mask]) == 0
            assert np.linalg.norm(s.matrix[:, mask]) == 0

    def test_pair_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            sigma_pair(2, 2)

    def test_diag_reduction_point(self):
        s = sigma_diag(MapParams(0, 1, 1))
        assert np.allclose(np.diag(s.matrix), [0, 2, 2, 2, 0, 2, 2, 2, 0], atol=0)
        assert s.is_psd()

    def test_diag_vanishes_at_intersection(self):
        s = sigma_diag(MapParams(Fraction(4, 3), Fraction(1, 3), Fraction(1, 3)))
        assert np.linalg.norm(s.matrix) == 0

    def test_diag_rejects_off_slice(self):
        with pytest.raises(ValueError, match="off the plane"):
            sigma_diag(MapParams(1, 1, 1))

    def test_diag_psd_iff_region(self):
        cases = [((1, 0.2, 0.8), True), ((1, 0.9, 0.1), True), ((1.4, 0.1, 0.5), False)]
        for abc, expect in cases:
            p = MapParams(*abc)
            assert sigma_diag(p).is_psd() == expect, abc


class TestTildeTrace:
    def test_closed_form(self):
        # The improper-family witnesses give Tr(rho_eps W~) = (eps-1)^2 / (3 eps)
        # for any slice parameters: non-negative, vanishing only at eps = 1.
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0, 2 * np.pi)
            eps = rng.uniform(0.2, 4.0)
            value = trace_pair(rho_eps(eps).matrix, witness_tilde_matrix(improper_coeffs(alpha)).matrix).real
            assert abs(value - (eps - 1) ** 2 / (3 * eps)) < 1e-12
            assert value >= -1e-15

    def test_zero_only_at_unit_eps(self):
        rng = np.random.default_rng(2)
        p = random_slice_params(rng)
        value = trace_pair(rho_eps(1.0).matrix, witness_tilde_matrix(p).matrix).real
        assert abs(value) < 1e-13
