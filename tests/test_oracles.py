import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_slice_params
from qutritwit.geometry import MapParams, improper_coeffs, indecomposability_certificate, slice_params, so2_coeffs
from qutritwit.linalg import require_hermitian
from qutritwit.maps import LinearMap3, apply_phi, phi_from_rotation, phi_map, rotation_block, so2_rotation
from qutritwit.oracles import (
    DEDUP_TOL,
    SEESAW_TOL,
    SPAN_RANK_TOL,
    ZERO_VALUE_TOL,
    ProductVectorPair,
    SeeSawConfig,
    _contract,
    _ordered,
    _products,
    _random_units,
    _run_seesaw,
    _seesaw_batch,
    is_cp_choi,
    min_product_expectation,
    span_rank,
    zero_product_vectors,
)
from qutritwit.states import max_entangled_projector
from qutritwit.witnesses import witness_matrix, witness_tilde_matrix


class TestConfig:
    def test_defaults(self):
        cfg = SeeSawConfig()
        assert cfg.restarts == 200
        assert cfg.max_iters == 500
        assert SEESAW_TOL == 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            SeeSawConfig(restarts=0)

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 2.5), ("max_iters", 2.5), ("restarts", True), ("max_iters", False),
         ("rng_seed", -1), ("rng_seed", 1.0), ("rng_seed", True), ("rng_seed", "3")],
        ids=str,
    )
    def test_integer_fields(self, field, value):
        # Each of these constructed, then failed inside numpy or ran (True as one restart).
        with pytest.raises(ValueError, match=field):
            SeeSawConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = SeeSawConfig(restarts=np.int64(3), max_iters=np.int32(5), rng_seed=np.uint8(0))
        assert _run_seesaw(np.eye(9), cfg).values.shape == (3,)


class TestMinProductExpectation:
    def test_identity(self):
        r = min_product_expectation(np.eye(9), SeeSawConfig(restarts=20, rng_seed=1))
        assert abs(r.value - 1.0) < 1e-12

    def test_choi_witness_floor(self):
        W = witness_matrix(MapParams(1, 1, 0)).matrix
        r = min_product_expectation(W, SeeSawConfig(rng_seed=2))
        assert abs(r.value) < 1e-9

    def test_negative_projector(self):
        # Product overlap with the maximally entangled state peaks at 1/3.
        r = min_product_expectation(-max_entangled_projector().matrix, SeeSawConfig(rng_seed=3))
        assert abs(r.value + 1 / 3) < 1e-9

    def test_unit_norms_and_consistent_value(self):
        W = witness_matrix(MapParams(0.4, 1.0, 0.6)).matrix
        r = min_product_expectation(W, SeeSawConfig(restarts=30, rng_seed=4))
        assert abs(np.linalg.norm(r.psi) - 1) < 1e-12
        assert abs(np.linalg.norm(r.phi) - 1) < 1e-12
        u = np.kron(r.psi, r.phi)
        direct = np.vdot(u, W @ u)
        assert abs(direct.imag) < 1e-12
        assert abs(direct.real - r.value) < 1e-10

    def test_monotone_value_histories(self):
        W = witness_matrix(MapParams(0.9, 0.8, 0.3)).matrix
        cfg = SeeSawConfig(restarts=12, max_iters=60, rng_seed=5)
        history = _run_seesaw(W, cfg).history
        diffs = np.diff(history, axis=0)
        assert np.max(diffs) <= 1e-12

    def test_bitwise_reproducibility(self):
        W = witness_matrix(MapParams(0.6, 0.9, 0.5)).matrix
        cfg = SeeSawConfig(restarts=15, rng_seed=42)
        r1 = min_product_expectation(W, cfg)
        r2 = min_product_expectation(W, cfg)
        assert r1.value == r2.value
        assert np.array_equal(r1.psi, r2.psi)
        assert np.array_equal(r1.phi, r2.phi)


class TestSeeSawEngine:
    """Per-restart stopping and the extrapolation step at the Choi point,
    whose plain see-saw has the slowest sublinear tail of the fixtures."""

    cfg = SeeSawConfig()

    @pytest.fixture(scope="class")
    def choi(self):
        W = witness_matrix(MapParams(1, 1, 0)).matrix
        return W, _run_seesaw(W, self.cfg)

    def test_restart_depends_only_on_its_start(self, choi):
        W, res = choi
        rng = np.random.default_rng(self.cfg.rng_seed)
        psi0 = _random_units(rng, self.cfg.restarts)
        phi0 = _random_units(rng, self.cfg.restarts)
        order = np.argsort(res.iterations, kind="stable")
        for r in order[[0, 50, 100, 150, -1]]:
            alone = _seesaw_batch(
                W.reshape(3, 3, 3, 3), psi0[r : r + 1], phi0[r : r + 1], self.cfg.max_iters, SEESAW_TOL
            )
            assert abs(alone.values[0] - res.values[r]) <= 1e-12, r
            assert alone.iterations[0] == res.iterations[r], r

    def test_work_counter(self, choi):
        # Running every restart to the slowest one's count would cost 100,000;
        # the plain see-saw with per-restart stopping took 24,896 and left 46
        # restarts unconverged at max_iters.  Extrapolating psi alone, with phi
        # re-minimized by a third eigensolve: 5,743.  Extrapolating both
        # factors and scoring the trial directly: 5,978.
        _, res = choi
        assert np.sum(res.iterations) <= 6_000
        assert np.all(res.converged)

    def test_two_eigensolves_per_alternation(self, choi, monkeypatch):
        W, res = choi
        eigh, calls = np.linalg.eigh, []

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        again = _run_seesaw(W, self.cfg)
        assert np.array_equal(again.iterations, res.iterations)
        assert len(calls) <= 2 * res.iterations.max()

    def test_converged_mask_and_history(self, choi):
        _, res = choi
        capped = res.iterations == self.cfg.max_iters
        last_drop = res.history[-2] - res.history[-1]
        assert np.array_equal(res.converged, ~capped | (last_drop < SEESAW_TOL))
        assert res.history.shape == (res.iterations.max(), self.cfg.restarts)
        for r, n in enumerate(res.iterations):
            assert np.all(res.history[n - 1 :, r] == res.values[r]), r
            # Every step before the last lowered the value by at least SEESAW_TOL.
            drops = -np.diff(res.history[:n, r])
            assert np.all(drops[:-1] >= SEESAW_TOL), r
            assert res.converged[r] == (drops[-1] < SEESAW_TOL), r


@pytest.mark.parametrize(
    "W",
    [
        witness_matrix(MapParams(1, 1, 0)).matrix,
        witness_matrix(MapParams(0, 1, 1)).matrix,
        witness_matrix(MapParams(0.9, 0.8, 0.3)).matrix,
        -max_entangled_projector().matrix,
    ],
    ids=["choi", "reduction", "interior", "neg-projector"],
)
def test_values_are_product_expectations(W):
    # An accepted extrapolated trial carries a quadratic-form value, a plain
    # step an eigenvalue; both must be the expectation at the returned factors.
    res = _run_seesaw(W, SeeSawConfig())
    for r in range(len(res.values)):
        u = np.kron(res.psi[r], res.phi[r])
        assert abs(res.values[r] - np.vdot(u, W @ u).real) <= 1e-12, r


def _reference_extrapolate(old, new, step):
    """One factor's extrapolated trial, as the gather/scatter loop below computes it."""
    overlap = np.sum(old.conj() * new, axis=1)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.zeros_like(overlap), where=size > 0)
    trial = new + step[:, None] * (new - phase[:, None] * old)
    return trial / np.linalg.norm(trial, axis=1, keepdims=True)


def _reference_seesaw_batch(W4, psi, phi, max_iters, tol):
    """The see-saw loop that gathers the running restarts' rows and scatters them back on every alternation."""
    M_psi = W4.transpose(1, 3, 0, 2).reshape(9, 9)
    M_phi = W4.transpose(0, 2, 1, 3).reshape(9, 9)
    W = W4.reshape(9, 9)
    psi, phi = psi.copy(), phi.copy()
    count = psi.shape[0]
    values = np.full(count, math.inf)
    beta = np.ones(count)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    history = []
    for t in range(1, max_iters + 1):
        _, vecs = np.linalg.eigh(_contract(phi[active], M_psi))
        new_psi = vecs[:, :, 0]
        w, vecs = np.linalg.eigh(_contract(new_psi, M_phi))
        new_phi, new_value = vecs[:, :, 0], w[:, 0]
        if t > 1:
            step = beta[active]
            trial_psi = _reference_extrapolate(psi[active], new_psi, step)
            trial_phi = _reference_extrapolate(phi[active], new_phi, step)
            u = _products(trial_psi, trial_phi)
            trial_value = ((u.conj() @ W) * u).sum(1).real
            accept = trial_value < new_value
            new_psi = np.where(accept[:, None], trial_psi, new_psi)
            new_phi = np.where(accept[:, None], trial_phi, new_phi)
            new_value = np.where(accept, trial_value, new_value)
            beta[active] = np.where(accept, 1.5 * step, np.maximum(0.5 * step, 0.1))
        psi[active] = new_psi
        phi[active] = new_phi
        stop = values[active] - new_value < tol
        values[active] = new_value
        iterations[active] = t
        converged[active[stop]] = True
        history.append(values.copy())
        active = active[~stop]
        if active.size == 0:
            break
    return psi, phi, values, iterations, converged, np.array(history)


@pytest.mark.parametrize(
    "W, cfg",
    [
        pytest.param(witness_matrix(MapParams(1, 1, 0)).matrix, SeeSawConfig(), id="choi"),
        pytest.param(witness_matrix(MapParams(0, 1, 1)).matrix, SeeSawConfig(), id="reduction"),
        pytest.param(witness_matrix(MapParams(0.9, 0.8, 0.3)).matrix, SeeSawConfig(), id="interior"),
        pytest.param(-max_entangled_projector().matrix, SeeSawConfig(), id="neg-projector"),
        pytest.param(witness_matrix(MapParams(1, 1, 0)).matrix, SeeSawConfig(max_iters=3), id="capped"),
        pytest.param(witness_matrix(MapParams(0.9, 0.8, 0.3)).matrix, SeeSawConfig(restarts=1), id="one-restart"),
        pytest.param(np.eye(9) / 9, SeeSawConfig(restarts=2, max_iters=10**12), id="flat-huge-cap"),
    ],
)
def test_engine_matches_gather_scatter_loop_bitwise(W, cfg):
    # The compacted loop runs the same operations on the same rows in the same
    # order as the loop that gathers and scatters every alternation.
    rng = np.random.default_rng(cfg.rng_seed)
    psi0 = _random_units(rng, cfg.restarts)
    phi0 = _random_units(rng, cfg.restarts)
    W4 = require_hermitian(W, 1e-9).reshape(3, 3, 3, 3)
    expected = _reference_seesaw_batch(W4, psi0, phi0, cfg.max_iters, SEESAW_TOL)
    res = _run_seesaw(W, cfg)
    for name, want in zip(("psi", "phi", "values", "iterations", "converged", "history"), expected):
        got = getattr(res, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    if cfg.max_iters == 3:
        assert not res.converged.all()  # restarts still running at the cap are written back at the end
    if cfg.max_iters == 10**12:
        assert res.iterations.tolist() == [2, 2]  # a flat form stops at once; nothing is sized by max_iters


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=str)
def test_non_finite_witness_is_rejected(entry):
    # A NaN entry used to give value nan, so a block-positivity test read False with no error.
    W = witness_matrix(MapParams(1, 1, 0)).matrix.copy()
    W[0, 0] = entry
    for oracle in (min_product_expectation, zero_product_vectors):
        with pytest.raises(ValueError, match="non-finite"):
            oracle(W, SeeSawConfig(restarts=4))


@pytest.mark.filterwarnings("error")
def test_non_finite_choi_matrix_is_rejected():
    # An inf image used to become NaN in the division by 3, with a RuntimeWarning; a
    # superoperator is checked before its contraction with the basis, which would warn.
    for entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            is_cp_choi(lambda X: X + entry)
        S = np.eye(9)
        S[4, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            is_cp_choi(LinearMap3(S))


def _reference_sort_key(value, psi, phi):
    """Restart-by-restart ordering key: (value, rounded phase-fixed product)."""
    u = np.kron(psi, phi)
    ph = u[int(np.argmax(np.abs(u)))]
    if abs(ph) > 0:
        u = u * (np.conj(ph) / abs(ph))
    return (value, tuple(np.round(u.real, 12)) + tuple(np.round(u.imag, 12))), u


def _reference_zero_rows(res, dedup_tol):
    """Zero candidates sorted by the key, kept unless an earlier kept one is close."""
    keys = {r: _reference_sort_key(res.values[r], res.psi[r], res.phi[r]) for r in range(len(res.values))}
    idx = sorted((r for r in keys if res.values[r] <= ZERO_VALUE_TOL), key=lambda r: keys[r][0])
    kept = []
    for r in idx:
        if not any(1.0 - abs(np.vdot(keys[k][1], keys[r][1])) <= dedup_tol for k in kept):
            kept.append(r)
    return kept


def _rows_of(res, pairs):
    return [
        next(r for r in range(len(res.values)) if np.array_equal(res.psi[r], p.psi) and np.array_equal(res.phi[r], p.phi))
        for p in pairs
    ]


class TestHarvestMatchesReference:
    """The array pass orders, picks and deduplicates exactly as the per-restart loop."""

    cfg = SeeSawConfig()

    @pytest.fixture(
        scope="class",
        params=[
            pytest.param((witness_matrix, MapParams(1, 1, 0)), id="choi"),
            pytest.param((witness_matrix, MapParams(0, 1, 1)), id="reduction"),
            pytest.param((witness_matrix, so2_coeffs(5 * math.pi / 6)), id="proper-5pi/6"),
            pytest.param((witness_tilde_matrix, improper_coeffs(math.pi / 3)), id="improper-pi/3"),
        ],
    )
    def case(self, request):
        build, p = request.param
        W = build(p).matrix
        return W, _run_seesaw(W, self.cfg)

    def test_best_restart(self, case):
        W, res = case
        best = min(range(len(res.values)), key=lambda r: _reference_sort_key(res.values[r], res.psi[r], res.phi[r])[0])
        pair = min_product_expectation(W, self.cfg)
        assert _rows_of(res, [pair]) == [best]
        assert pair.value == res.values[best]

    def test_tied_values_order_by_product(self, case):
        # With every value tied, the phase-fixed products alone set the order.
        _, res = case
        tied = np.zeros(len(res.values))
        keys = [_reference_sort_key(0.0, res.psi[r], res.phi[r]) for r in range(len(tied))]
        expected = sorted(range(len(tied)), key=lambda r: keys[r][0])
        order, U = _ordered(tied, res.psi, res.phi)
        assert order.tolist() == expected
        assert np.array_equal(U, np.array([keys[r][1] for r in expected]))

    @pytest.mark.parametrize("dedup_tol", [DEDUP_TOL, 0.05, 0.5])
    def test_zero_rows(self, case, dedup_tol):
        W, res = case
        expected = _reference_zero_rows(res, dedup_tol)
        zeros = zero_product_vectors(W, self.cfg, dedup_tol=dedup_tol)
        assert _rows_of(res, zeros) == expected
        assert [p.value for p in zeros] == [float(res.values[r]) for r in expected]

    def test_span_rank(self, case):
        # Reference: the 9x9 Gram matrix accumulated one outer product at a time.
        W, _ = case
        zeros = zero_product_vectors(W, self.cfg)
        products = [np.kron(z.psi, z.phi) for z in zeros]
        G = sum(np.outer(u, u.conj()) for u in products)
        w = np.linalg.eigvalsh(G)
        assert span_rank(zeros) == int(np.sum(w > SPAN_RANK_TOL * w[-1]))


class TestBlockPositivity:
    """The see-saw minimum read as a block-positivity verdict, with 1e-7 of slack."""

    def test_reduction_witness(self):
        W = witness_matrix(MapParams(0, 1, 1)).matrix
        assert min_product_expectation(W, SeeSawConfig(restarts=40, rng_seed=6)).value >= -1e-7

    def test_identity(self):
        assert min_product_expectation(np.eye(9), SeeSawConfig(restarts=10, rng_seed=7)).value >= -1e-7

    def test_non_positive_point(self):
        W = witness_matrix(MapParams(0.5, 0.1, 0.1)).matrix
        assert min_product_expectation(W, SeeSawConfig(restarts=20, rng_seed=8)).value < -1e-7


class TestChoiCp:
    def test_cp_member(self):
        p = MapParams(2, 0, 0)
        assert is_cp_choi(lambda X: apply_phi(p, X))

    def test_choi_map_not_cp(self):
        p = MapParams(1, 1, 0)
        assert not is_cp_choi(lambda X: apply_phi(p, X))

    def test_identity_map(self):
        assert is_cp_choi(lambda X: X)

    @pytest.mark.parametrize("abc", [(2, 0, 0), (Fraction(2), Fraction(0), Fraction(0)), (2.0, 0.0, 0.0)], ids=str)
    def test_linear_map_cp_corner(self, abc):
        assert is_cp_choi(phi_map(MapParams(*abc)))

    @pytest.mark.parametrize(
        "m",
        [
            phi_map(MapParams(1, 1, 0)),
            phi_map(MapParams(1.999, 0.0005, 0.0005)),
            phi_from_rotation(rotation_block(so2_rotation(math.pi))),
        ],
        ids=["choi", "just_inside_cp_corner", "reduction_rotation"],
    )
    def test_linear_map_not_cp(self, m):
        assert not is_cp_choi(m)


class TestZeroVectors:
    def test_reduction_witness_spans_everything(self):
        W = witness_matrix(MapParams(0, 1, 1)).matrix
        zeros = zero_product_vectors(W, SeeSawConfig(rng_seed=9))
        assert len(zeros) > 0
        assert span_rank(zeros) == 9
        for pair in zeros:
            assert pair.value <= 1e-9
            assert abs(np.linalg.norm(pair.psi) - 1) < 1e-12
            assert abs(np.linalg.norm(pair.phi) - 1) < 1e-12

    def test_choi_witnesses_span_seven(self):
        for abc in ((1, 1, 0), (1, 0, 1)):
            W = witness_matrix(MapParams(*abc)).matrix
            zeros = zero_product_vectors(W, SeeSawConfig(rng_seed=10))
            assert span_rank(zeros) == 7, abc
            for pair in zeros:
                assert pair.value <= 1e-9
                assert abs(np.linalg.norm(pair.psi) - 1) < 1e-12
                assert abs(np.linalg.norm(pair.phi) - 1) < 1e-12

    def test_strictly_positive_gives_empty(self):
        assert zero_product_vectors(np.eye(9), SeeSawConfig(restarts=20, rng_seed=11)) == []


class TestSpanRank:
    def test_single_vector(self):
        e = np.zeros(3)
        e[0] = 1.0
        pair = ProductVectorPair(e, e, 0.0)
        assert span_rank([pair]) == 1

    def test_full_product_basis(self):
        pairs = []
        for i in range(3):
            for j in range(3):
                ei, ej = np.zeros(3), np.zeros(3)
                ei[i] = 1.0
                ej[j] = 1.0
                pairs.append(ProductVectorPair(ei, ej, 0.0))
        assert span_rank(pairs) == 9

    def test_empty(self):
        assert span_rank([]) == 0


class TestIndecomposabilityCertificate:
    def test_choi_map(self):
        eps, value = indecomposability_certificate(MapParams(1, 1, 0))
        assert eps == 0.5
        assert value == -0.25

    def test_dual_choi_map(self):
        eps, value = indecomposability_certificate(MapParams(1, 0, 1))
        assert eps == 2.0
        assert value < 0

    def test_reduction_map(self):
        assert indecomposability_certificate(MapParams(0, 1, 1)) is None

    @pytest.mark.parametrize("k", [*range(1, 18), 100, 161])
    def test_negative_near_b_equals_c(self, k):
        # The detection value has its minimum -N (b-c)^2 / 2 (to leading order) at the
        # parabola's vertex, far below the roundoff of its three terms in floats.  The
        # vertex is held as a Fraction: a float one rounds to 1.0, an end of the interval,
        # once |b - c| is about 1e-16.  At k = 161 the value is subnormal, about -2.5e-323.
        p = slice_params(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**k))
        eps, value = indecomposability_certificate(p)
        assert eps == (2 - p.a) / (2 * p.b)
        assert value < 0
        exact = (p.b * eps * eps + (p.a - 2) * eps + p.c) / (2 * eps)
        assert value == float(exact)

    def test_vertex_beyond_the_float_range(self):
        # 2 - a = 1e-400 and b = 0: eps = c/(2-a) + 1 = 10^400 + 1, held exactly; the value
        # -N (2-a)/eps is below the float range.  The existence test used to scale c by 2^1330.
        p = MapParams(2 - Fraction(1, 10**400), 0, 1)
        eps, value = indecomposability_certificate(p)
        assert eps == 10**400 + 1
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_linear_case_takes_eps_past_the_root(self):
        # b = 0: the value is negative on (c/(2-a), inf) and eps = c/(2-a) + 1.
        eps, value = indecomposability_certificate(MapParams(1, 0, Fraction(1, 2)))
        assert eps == Fraction(3, 2)
        assert value == float(Fraction(-4, 9))

    def test_asymmetric_slice_points(self):
        rng = np.random.default_rng(12)
        found = 0
        while found < 10:
            p = random_slice_params(rng)
            if abs(float(p.b) - float(p.c)) < 1e-3:
                continue
            cert = indecomposability_certificate(p)
            assert cert is not None
            assert cert[1] < 0
            found += 1
