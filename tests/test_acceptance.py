"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); assertion
details carry the diagnostics.  Shared constructions are rebuilt here from
their defining formulas so the checks stay independent of the library paths
they exercise.
"""

from fractions import Fraction
from math import pi

import numpy as np

from conftest import detection_value_numeric, rand_complex, random_slice_params, random_tilde_region_params
from qutritwit.forms import exact_witness_entries
from qutritwit.geometry import (
    MapParams,
    Positivity,
    classify,
    critical_p,
    detection_value,
    detects_rho_family,
    improper_coeffs,
    slice_params,
    so2_coeffs,
    spa_region,
)
from qutritwit.linalg import min_eigenvalue, partial_transpose, trace_pair
from qutritwit.oracles import SeeSawConfig, min_product_expectation, span_rank, zero_product_vectors
from qutritwit.witnesses import (
    apply_phi,
    apply_phi_tilde,
    choi_witness,
    decompose_tilde,
    improper_rotation,
    is_ppt,
    phi_from_rotation,
    rho_eps,
    rotation_block,
    so2_rotation,
    spa_mix,
    spa_state,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
)
from qutritwit.cli import main

DOUBLES = (0, 4, 8)


def _report(label, fn):
    try:
        fn()
    except AssertionError:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _grid_entries(diag, minus_positions, prefactor):
    """Sparse build {(i, j): value} of prefactor * (diag pattern - 1 at given positions).

    Values stay in the arithmetic of the inputs, so Fraction inputs give exact entries.
    """
    entries = {(idx, idx): prefactor * val for idx, val in enumerate(diag)}
    for i in minus_positions:
        for j in minus_positions:
            if i != j:
                entries[(i, j)] = -prefactor
    return entries


def _dense(entries):
    """9x9 float matrix from sparse entries."""
    M = np.zeros((9, 9))
    for (i, j), val in entries.items():
        M[i, j] = float(val)
    return M


def _expected_standard(a, b, c):
    pref = Fraction(1, 3) / (a + b + c)
    return _dense(_grid_entries((a, b, c, c, a, b, b, c, a), DOUBLES, pref))


def _tilde_entries(a, b, c):
    pref = Fraction(1, 3) / (a + b + c)
    return _grid_entries((a, b, c, b, c, a, c, a, b), DOUBLES, pref)


def _expected_tilde(a, b, c):
    return _dense(_tilde_entries(a, b, c))


def _expected_u(a, b, c):
    pref = Fraction(1, 3) / (a + b + c)
    return _dense(_grid_entries((a, b, c, b, c, a, c, a, b), (0, 5, 7), pref))


def _rho_eps_entries(eps):
    """Sparse build of the unnormalized probe state: sum_ij |ii><jj|
    + eps sum_i |i,i+1><i,i+1| + (1/eps) sum_i |i,i+2><i,i+2|, levels cyclic."""
    entries = {(i, j): 1 for i in DOUBLES for j in DOUBLES}
    for i in range(3):
        up = 3 * i + (i + 1) % 3
        down = 3 * i + (i + 2) % 3
        entries[(up, up)] = eps
        entries[(down, down)] = 1 / eps
    return entries


def _pairing(rho, W):
    """Tr(rho W) = sum_ij rho_ji W_ij over sparse entries, in their own arithmetic."""
    return sum(w * rho.get((j, i), 0) for (i, j), w in W.items())


def _tilde_pairing(eps):
    """Tr(rho_eps W~) on the plane a+b+c = 2: each of the |ii>, |i,i+1> and
    |i,i+2> index groups of W~ holds one copy of a, b and c, so the pairing is
    (1/6)[2 - 6 + 2 eps + 2/eps] = (eps-1)^2 / (3 eps) whatever the angle."""
    return (eps - 1) ** 2 / (3 * eps)


FIXTURE_PARAMS = [
    (Fraction(1), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(1)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
]


def test_criterion_01_witness_fixtures():
    def check():
        for a, b, c in FIXTURE_PARAMS:
            p = MapParams(a, b, c)
            assert np.array_equal(witness_matrix(p).matrix.real, _expected_standard(a, b, c))
            assert np.array_equal(witness_tilde_matrix(p).matrix.real, _expected_tilde(a, b, c))
            assert np.array_equal(witness_u(p).matrix.real, _expected_u(a, b, c))

    _report("criterion 1: witness displays exact at the three rational points", check)


def test_criterion_02_choi_consistency():
    def check():
        rng = np.random.default_rng(20)
        for _ in range(50):
            p = random_slice_params(rng)
            gap = np.linalg.norm(
                witness_matrix(p).matrix - choi_witness(lambda X: apply_phi(p, X)).matrix
            )
            assert gap <= 1e-12, gap
            gap_tilde = np.linalg.norm(
                witness_tilde_matrix(p).matrix - choi_witness(lambda X: apply_phi_tilde(p, X)).matrix
            )
            assert gap_tilde <= 1e-12, gap_tilde

    _report("criterion 2: Choi construction matches both witness displays", check)


def test_criterion_03_rotation_equivalence():
    def check():
        rng = np.random.default_rng(30)
        for alpha in np.linspace(0, 2 * pi, 36, endpoint=False):
            proper = phi_from_rotation(rotation_block(so2_rotation(alpha)))
            p = so2_coeffs(alpha)
            refl = phi_from_rotation(rotation_block(improper_rotation(alpha)))
            q = improper_coeffs(alpha)
            for _ in range(10):
                X = rand_complex(rng, 3)
                assert np.linalg.norm(proper(X) - apply_phi(p, X)) <= 1e-10
                assert np.linalg.norm(refl(X) - apply_phi_tilde(q, X)) <= 1e-10
        specials = [
            (so2_coeffs, pi, (0, 1, 1)),
            (so2_coeffs, 0.0, (4 / 3, 1 / 3, 1 / 3)),
            (so2_coeffs, pi / 3, (1, 0, 1)),
            (so2_coeffs, -pi / 3, (1, 1, 0)),
        ]
        for coeffs, alpha, expected in specials:
            got = coeffs(alpha).asfloats()
            assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-12, (alpha, got)

    _report("criterion 3: rotation construction reproduces both families", check)


def test_criterion_04_slice_identities():
    def check():
        for coeffs in (so2_coeffs, improper_coeffs):
            for alpha in np.linspace(0, 2 * pi, 720, endpoint=False):
                a, b, c = coeffs(alpha).asfloats()
                assert abs(a + b + c - 2) <= 1e-12
                assert abs(b * c - (1 - a) ** 2) <= 1e-12
                assert abs(a * b - (1 - c) ** 2) <= 1e-12
                assert abs(a * c - (1 - b) ** 2) <= 1e-12

    _report("criterion 4: plane and ellipse identities on a 720-angle grid", check)


def test_criterion_05_classifier_oracle_agreement():
    def check():
        cfg = SeeSawConfig(restarts=16, max_iters=200, rng_seed=11)
        n = 40
        disagreements = []
        for i in range(n):
            for j in range(n):
                b = 2.0 * i / (n - 1)
                c = 2.0 * j / (n - 1)
                if b + c > 2.0:
                    continue
                p = slice_params(b, c)
                estimate = min_product_expectation(witness_matrix(p).matrix, cfg).value
                if abs(estimate) < 1e-7:
                    continue  # margin band
                oracle_negative = estimate < -1e-7
                classifier_negative = classify(p).positivity is Positivity.NOT_POSITIVE
                if oracle_negative != classifier_negative:
                    disagreements.append((b, c, estimate))
        assert disagreements == [], disagreements

    _report("criterion 5: classifier agrees with the see-saw oracle on a 40x40 grid", check)


def test_criterion_06a_detection_closed_form():
    def check():
        rng = np.random.default_rng(60)
        for _ in range(30):
            p = MapParams(*rng.uniform(0.05, 2.0, size=3))
            eps = rng.uniform(0.1, 5.0)
            assert abs(detection_value(p, eps) - detection_value_numeric(p, eps)) <= 1e-12

    _report("criterion 6a: closed-form detection equals the numeric trace", check)


def test_criterion_06b_interval_iff_asymmetric():
    def check():
        for i in range(11):
            for j in range(11 - i):
                b, c = Fraction(i, 5), Fraction(j, 5)
                if b + c == 0:
                    continue
                interval = detects_rho_family(slice_params(b, c))
                assert (interval is not None) == (b != c), (b, c, interval)

    _report("criterion 6b: detection interval non-empty exactly when b != c", check)


def test_criterion_06c_tilde_zero_trace():
    def pairing(W, eps):
        rho = rho_eps(eps).matrix
        assert np.max(np.abs(rho - _dense(_rho_eps_entries(eps)))) <= 1e-12, eps
        return trace_pair(rho, W).real

    def check():
        rng = np.random.default_rng(61)
        for _ in range(20):
            alpha = rng.uniform(0, 2 * pi)
            eps = rng.uniform(0.25, 4.0)
            p = improper_coeffs(alpha)
            W = witness_tilde_matrix(p).matrix
            gap = np.max(np.abs(W - _expected_tilde(*p.asfloats())))
            assert gap <= 1e-12, (alpha, gap)
            value = pairing(W, eps)
            assert abs(value - _tilde_pairing(eps)) <= 1e-12, (alpha, eps, value)
            assert value >= -1e-15, (alpha, eps, value)  # never detects the PPT family
            assert abs(pairing(W, 1.0)) <= 1e-12, alpha
        for a, b, c in FIXTURE_PARAMS:
            rows = exact_witness_entries(MapParams(a, b, c), "tilde")
            library = {(i, j): Fraction(s) for i, row in enumerate(rows) for j, s in enumerate(row)}
            for eps in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
                rho = _rho_eps_entries(eps)
                for W in (_tilde_entries(a, b, c), library):
                    value = _pairing(rho, W)
                    assert value == _tilde_pairing(eps), ((a, b, c), eps, value)

    _report(
        "criterion 6c: Tr(rho_eps W~) = (eps-1)^2/(3 eps) >= 0 on 20 (alpha, eps) pairs, "
        "zero at eps = 1, exact at rational points",
        check,
    )


def test_criterion_06d_probe_family_ppt():
    def check():
        for eps in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert is_ppt(rho_eps(eps).matrix), eps

    _report("criterion 6d: rho_eps passes the PPT check across the eps range", check)


def test_criterion_07_spa():
    def check():
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 30:
            p = random_slice_params(rng)
            a, b, c = p.asfloats()
            if a >= 2 - 1e-9:
                continue
            checked += 1
            W = witness_matrix(p)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if min_eigenvalue(spa_mix(W, mid)) >= 0:
                    hi = mid
                else:
                    lo = mid
            star = critical_p(p)
            assert abs(star - hi) <= 1e-9
            expected = np.zeros((9, 9))
            for i in DOUBLES:
                expected[i, i] = 2
            for i in (1, 5, 6):
                expected[i, i] = 2 * b + c
            for i in (2, 3, 7):
                expected[i, i] = 2 * c + b
            for i in DOUBLES:
                for j in DOUBLES:
                    if i != j:
                        expected[i, j] = -1
            expected /= 3 * (2 + 3 * (2 - a))
            result = spa_state(p)
            assert np.max(np.abs(result.state.matrix - expected)) <= 1e-12
            if spa_region(p.b, p.c):
                comp = result.components
                assert comp is not None
                assert np.linalg.norm(comp.reconstruct() - result.state.matrix) <= 1e-10
                for part in (comp.sigma_12, comp.sigma_13, comp.sigma_23, comp.sigma_d):
                    assert part.is_psd()
                    assert is_ppt(part.matrix)
        center = spa_state(slice_params(Fraction(1, 3), Fraction(1, 3)))
        assert np.linalg.norm(center.components.sigma_d.matrix) == 0

    _report("criterion 7: critical noise weight, explicit state, and separable pieces", check)


def test_criterion_08_tilde_decomposability():
    def check():
        rng = np.random.default_rng(80)
        boundary = [improper_coeffs(alpha) for alpha in np.linspace(0, 2 * pi, 36, endpoint=False)]
        interior = [random_tilde_region_params(rng) for _ in range(20)]
        for p in boundary + interior:
            cert = decompose_tilde(p)
            assert min_eigenvalue(cert.P) >= -1e-9
            assert min_eigenvalue(cert.Q) >= -1e-9
            residual = np.linalg.norm(
                cert.P + partial_transpose(cert.Q) - 6 * witness_tilde_matrix(p).matrix
            )
            assert residual <= 1e-10, residual
        for p in boundary:
            sub = decompose_tilde(p).P[np.ix_(DOUBLES, DOUBLES)]
            eigs = np.linalg.eigvalsh(sub.real)
            assert np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0]))) <= 1e-9

    _report("criterion 8: decomposability certificates across boundary and interior", check)


def test_criterion_09_span_ranks():
    def check():
        expected = {(0, 1, 1): 9, (1, 1, 0): 7, (1, 0, 1): 7}
        for abc, rank in expected.items():
            W = witness_matrix(MapParams(*abc)).matrix
            for seed in (7, 1234):
                zeros = zero_product_vectors(W, SeeSawConfig(rng_seed=seed))
                assert span_rank(zeros) == rank, (abc, seed)

    _report("criterion 9: zero-vector span ranks 9 / 7 / 7, stable across seeds", check)


def test_criterion_10_families_meet_once():
    def check():
        center = MapParams(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))
        assert np.array_equal(witness_matrix(center).matrix, witness_tilde_matrix(center).matrix)
        rng = np.random.default_rng(100)
        count = 0
        while count < 20:
            p = random_slice_params(rng)
            if max(abs(float(p.b) - 2 / 3), abs(float(p.c) - 2 / 3)) < 0.05:
                continue
            gap = np.linalg.norm(witness_matrix(p).matrix - witness_tilde_matrix(p).matrix)
            assert gap > 1e-3, p
            count += 1

    _report("criterion 10: the two witness families intersect only at the center", check)


def test_criterion_11_figure_data(capsys):
    def check():
        code = main(["figure", "--resolution", "256"])
        out = capsys.readouterr().out
        assert code == 0
        import json

        results = json.loads(out)["results"]
        for b, c in results["ellipse"]:
            x, y = b + c, b - c
            assert abs((9 / 4) * (x - 4 / 3) ** 2 + (3 / 4) * y**2 - 1) <= 1e-10
        points = results["special_points"]
        assert points["i"] == [1.0, 0.0]
        assert points["ii"] == [0.0, 1.0]
        assert points["iii"] == [1.0, 1.0]
        assert points["iv"] == [1 / 3, 1 / 3]
        assert points["v"] == [0.0, 0.0]

    _report("criterion 11: figure polylines satisfy the ellipse equation; special points match", check)
