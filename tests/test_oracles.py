import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import max_entangled_projector, random_slice_params
from qutritwit import oracles
from qutritwit.geometry import MapParams, improper_coeffs, indecomposability_certificate, slice_params, so2_coeffs
from qutritwit.linalg import eigenvalues, require_hermitian
from qutritwit.oracles import (
    CLOSED_FORM_GAP_TOL,
    CLOSED_FORM_MIN_ROWS,
    DEDUP_TOL,
    SEESAW_TOL,
    SPAN_RANK_TOL,
    ZERO_VALUE_TOL,
    ProductVectorPair,
    SeeSawConfig,
    _contract,
    _lowest,
    _products,
    _random_units,
    _run_seesaw,
    _seesaw_batch,
    min_product_expectation,
    span_rank,
    zero_product_vectors,
)
from qutritwit.witnesses import (
    LinearMap3,
    apply_phi,
    is_cp_choi,
    phi_from_rotation,
    phi_map,
    rotation_block,
    so2_rotation,
    witness_matrix,
    witness_tilde_matrix,
)


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
        r = min_product_expectation(-max_entangled_projector(), SeeSawConfig(rng_seed=3))
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
            alone = _seesaw_batch(W.reshape(3, 3, 3, 3), psi0[r : r + 1], phi0[r : r + 1], self.cfg.max_iters)
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
        # Counted at the kernel: a batch of CLOSED_FORM_MIN_ROWS or more never calls eigh.
        W, res = choi
        lowest, calls = oracles._lowest, []

        def counting(H):
            calls.append(1)
            return lowest(H)

        monkeypatch.setattr(oracles, "_lowest", counting)
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


def _random_hermitian(rng, n, shift=0.0):
    A = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return A + A.conj().transpose(0, 2, 1) + shift * np.eye(3)


def _with_spectrum(rng, spectrum):
    """Forms U diag(spectrum_r) U^dagger with Haar-random unitaries U, one per row of spectrum."""
    Z = rng.standard_normal((len(spectrum), 3, 3)) + 1j * rng.standard_normal((len(spectrum), 3, 3))
    U = np.linalg.qr(Z)[0]
    return (U * np.asarray(spectrum, float)[:, None, :]) @ U.conj().transpose(0, 2, 1)


def _assert_lowest_pairs(H, values, vecs):
    """Unit vectors whose Rayleigh quotient is the value and lies within 8 eps ||H|| of lambda_min.

    ||H|| is bounded by 3 max |H_ij|, which does not overflow where the Frobenius norm would.
    """
    full = np.tril(H) + np.tril(H, -1).conj().transpose(0, 2, 1)
    full[:, range(3), range(3)] = full[:, range(3), range(3)].real
    slack = 24 * np.finfo(float).eps * np.abs(full).max(axis=(1, 2))
    quotient = np.einsum("ni,nij,nj->n", vecs.conj(), full, vecs).real
    assert np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1) <= 4 * np.finfo(float).eps)
    assert np.all(quotient <= np.linalg.eigvalsh(H)[:, 0] + slack)
    assert np.all(np.abs(values - quotient) <= slack)


class TestLowestKernel:
    """The see-saw's 3x3 eigensolver against LAPACK: the closed form on large batches of
    well-separated forms, eigh on small batches and on the rows it leaves."""

    @pytest.fixture
    def lapack_rows(self, monkeypatch):
        eigh, rows = np.linalg.eigh, []

        def counting(H, *args, **kwargs):
            rows.append(len(H))
            return eigh(H, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return rows

    @pytest.mark.parametrize("n", [1, CLOSED_FORM_MIN_ROWS - 1, CLOSED_FORM_MIN_ROWS, 200])
    @pytest.mark.parametrize("shift", [0.0, 100.0])
    def test_matches_lapack(self, n, shift, lapack_rows):
        H = _random_hermitian(np.random.default_rng(n), n, shift)
        values, vecs = _lowest(H)
        _assert_lowest_pairs(H, values, vecs)
        if n < CLOSED_FORM_MIN_ROWS:
            assert lapack_rows == [n]
            w, v = np.linalg.eigh(H)
            assert np.array_equal(values, w[:, 0]) and np.array_equal(vecs, v[:, :, 0])
        else:
            assert lapack_rows == []

    @pytest.mark.parametrize("k", range(2, 17))
    def test_close_lowest_pair(self, k, lapack_rows):
        # The spread p is 1 here: a gap 10^-k below CLOSED_FORM_GAP_TOL p goes to eigh, and at
        # k = 4 the gap is the tolerance itself.
        spectrum = np.tile([-1.0, -1.0 + 10.0**-k, 2.0], (200, 1))
        H = _with_spectrum(np.random.default_rng(k), spectrum)
        values, vecs = _lowest(H)
        _assert_lowest_pairs(H, values, vecs)
        if k != 4:
            assert lapack_rows == ([] if 10.0**-k > CLOSED_FORM_GAP_TOL else [200])

    def test_degenerate_and_flat_forms(self, lapack_rows):
        # Equal lowest pairs, scalar, zero and rank-one forms have no simple lowest eigenvalue,
        # and at a spread of 1e-100 or 1e100 the squared adjugate leaves the float range: they
        # go to eigh, from a batch whose other rows take the closed form, among them a simple
        # lowest eigenvalue below an equal pair.
        rng = np.random.default_rng(3)
        u = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        flat = np.concatenate([
            [np.diag(d) for d in ([1.0, 1.0, 3.0], [2.0, -5.0, -5.0], [-1.0, 4.0, -1.0], [0.0, 0.0, 1e-300])],
            [c * np.eye(3) for c in (0.0, 1.0, -7.5, 1e300)],
            u[:, :, None] * u[:, None, :].conj(),
            _random_hermitian(rng, 2) * 1e-100,
            _random_hermitian(rng, 2) * 1e100,
        ])
        H = np.concatenate([flat, _with_spectrum(rng, np.tile([-2.0, 0.5, 0.5], (8, 1))), _random_hermitian(rng, 16)])
        values, vecs = _lowest(H)
        _assert_lowest_pairs(H, values, vecs)
        assert len(H) >= CLOSED_FORM_MIN_ROWS and lapack_rows == [len(flat)]
        # Equal to -3 I up to roundoff: the spread is about eps, and either path may serve it.
        nearly_scalar = _with_spectrum(rng, np.tile([-3.0, -3.0, -3.0], (CLOSED_FORM_MIN_ROWS, 1)))
        _assert_lowest_pairs(nearly_scalar, *_lowest(nearly_scalar))

    def test_mixed_batch_takes_both_paths(self, lapack_rows):
        rng = np.random.default_rng(4)
        H = _random_hermitian(rng, 200)
        close = np.arange(200) % 7 == 3
        H[close] = _with_spectrum(rng, np.tile([1.0, 1.0, 1.0 + 1e-9], (close.sum(), 1)))
        values, vecs = _lowest(H)
        _assert_lowest_pairs(H, values, vecs)
        assert lapack_rows == [close.sum()]
        w, v = np.linalg.eigh(H[close])
        assert np.array_equal(values[close], w[:, 0]) and np.array_equal(vecs[close], v[:, :, 0])

    @pytest.mark.parametrize("n", [CLOSED_FORM_MIN_ROWS - 1, 200])
    def test_reads_only_the_lower_triangle(self, n):
        # As eigh does: the strictly upper triangle and the diagonal's imaginary part are not
        # read.  A third of the rows have a close lowest pair, so at n = 200 both paths run.
        rng = np.random.default_rng(5)
        H = _random_hermitian(rng, n)
        H[1::3] = _with_spectrum(rng, np.tile([0.0, 1e-12, 1.0], (len(H[1::3]), 1)))
        noisy = H + np.triu(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)), 1)
        noisy[:, range(3), range(3)] += 1j * rng.standard_normal((n, 3))
        for want, got in zip(_lowest(H), _lowest(noisy)):
            assert np.array_equal(want, got)


@pytest.mark.parametrize(
    "W",
    [
        witness_matrix(MapParams(1, 1, 0)).matrix,
        witness_matrix(MapParams(0, 1, 1)).matrix,
        witness_matrix(MapParams(0.9, 0.8, 0.3)).matrix,
        -max_entangled_projector(),
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
        new_psi = _lowest(_contract(phi[active], M_psi))[1]
        new_value, new_phi = _lowest(_contract(new_psi, M_phi))
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
        pytest.param(-max_entangled_projector(), SeeSawConfig(), id="neg-projector"),
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
    W4 = require_hermitian(W).reshape(3, 3, 3, 3)
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


def test_hermiticity_tolerance_is_that_of_eigenvalues():
    # The see-saw once accepted a gap of up to 1e-9; it now reads linalg's one tolerance, 1e-10.
    W = witness_matrix(MapParams(1, 1, 0)).matrix.copy()
    assert np.linalg.norm(W) <= 1  # so the gap is checked against 1e-10 itself
    W[0, 1] += 5e-10 / np.sqrt(2)  # ||W - W^dagger||_F = 5e-10
    for check in (eigenvalues, lambda M: min_product_expectation(M, SeeSawConfig(restarts=4))):
        with pytest.raises(ValueError, match="not Hermitian"):
            check(W)


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


def _reference_zero_rows(res):
    """Zero candidates by value, ties in restart order, kept unless an earlier kept one is close."""
    idx = sorted((r for r in range(len(res.values)) if res.values[r] <= ZERO_VALUE_TOL), key=lambda r: res.values[r])
    kept = []
    for r in idx:
        u = np.kron(res.psi[r], res.phi[r])
        if not any(1.0 - abs(np.vdot(np.kron(res.psi[k], res.phi[k]), u)) <= oracles.DEDUP_TOL for k in kept):
            kept.append(r)
    return kept


def _rows_of(res, pairs):
    return [
        next(r for r in range(len(res.values)) if np.array_equal(res.psi[r], p.psi) and np.array_equal(res.phi[r], p.phi))
        for p in pairs
    ]


def _with_values(res, values):
    return oracles.SeeSawResult(res.psi, res.phi, values, res.iterations, res.converged, res.history)


class TestHarvestMatchesReference:
    """The array pass picks and deduplicates exactly as the per-restart loop."""

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
        best = min(range(len(res.values)), key=lambda r: res.values[r])
        pair = min_product_expectation(W, self.cfg)
        assert _rows_of(res, [pair]) == [best]
        assert pair.value == res.values[best]

    def test_tied_values_keep_restart_order(self, case, monkeypatch):
        # Three tied groups: the first restart of the lowest group is the best one, and the
        # harvest runs through the groups by value, each in restart order.
        W, res = case
        tied = -1e-10 * (np.arange(len(res.values)) % 3)
        monkeypatch.setattr(oracles, "_run_seesaw", lambda W, cfg: _with_values(res, tied))
        assert _rows_of(res, [min_product_expectation(W, self.cfg)]) == [2]
        rows = _rows_of(res, zero_product_vectors(W, self.cfg))
        assert rows == _reference_zero_rows(_with_values(res, tied))
        assert all(tied[r] < tied[s] or (tied[r] == tied[s] and r < s) for r, s in zip(rows, rows[1:]))

    @pytest.mark.parametrize("dedup_tol", [DEDUP_TOL, 0.05, 0.5])
    def test_zero_rows(self, case, dedup_tol, monkeypatch):
        W, res = case
        monkeypatch.setattr(oracles, "DEDUP_TOL", dedup_tol)
        expected = _reference_zero_rows(res)
        zeros = zero_product_vectors(W, self.cfg)
        assert _rows_of(res, zeros) == expected
        assert [p.value for p in zeros] == [float(res.values[r]) for r in expected]
        assert all(a.value <= b.value for a, b in zip(zeros, zeros[1:]))

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
        # Zero vectors span nothing: every Gram eigenvalue is 0, and none is above 0 * tol.
        assert span_rank([ProductVectorPair(np.zeros(3), np.zeros(3), 0.0)] * 2) == 0


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

    @pytest.mark.parametrize("a", [1e-308, Fraction(1, 10**308)], ids=["float", "exact"])
    def test_value_beyond_the_float_range_raises(self, a):
        # b = c = 0: eps = 1 and the value is -N (2 - a), about -2e308.  Float input gave -inf.
        with pytest.raises(OverflowError):
            indecomposability_certificate(MapParams(a, 0, 0))

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
