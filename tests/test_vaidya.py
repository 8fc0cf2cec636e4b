"""Tests for the volumetric-barrier cutting-plane machinery."""

import dataclasses
import io
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

from minmin import vaidya as vaidya_module
from minmin import (
    Ball,
    Box,
    DegeneratePolytopeError,
    InfeasiblePointError,
    NewtonStagnationError,
    OracleLedger,
    Polytope,
    PolytopeStructureError,
    VaidyaConfig,
    barrier_quantities,
    newton_recenter,
    place_cut,
    seeded_rng,
    vaidya_minimize,
    volumetric_value,
    write_iterations_csv,
)


def random_polytope(rng, dim, extra_rows):
    """Unit box rows plus random cuts through the interior (origin kept)."""
    poly = Polytope.from_box(Box(-np.ones(dim), np.ones(dim)))
    for _ in range(extra_rows):
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        poly.add_row(a, -float(rng.uniform(0.3, 0.9)))  # a.x >= beta, 0 interior
    return poly


class TestPolytope:
    def test_from_box_slacks_are_distances_to_faces(self):
        box = Box(np.array([-1.0, 0.0]), np.array([3.0, 2.0]))
        poly = Polytope.from_box(box)
        s = poly.slacks(box.center)
        assert_array_equal(s, [2.0, 1.0, 2.0, 1.0])
        assert poly.num_rows == 4 and poly.dim == 2

    def test_add_and_drop_rows(self):
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        poly.add_row(np.array([1.0, 1.0]), -3.0)
        assert poly.num_rows == 5
        poly.drop_row(4)
        assert poly.num_rows == 4
        assert_array_equal(poly.b, [-1.0, -1.0, -1.0, -1.0])

    def test_minimum_row_count_enforced(self):
        with pytest.raises(PolytopeStructureError):
            Polytope(np.eye(2), np.zeros(2))  # 2 rows < d+1
        poly = Polytope(np.vstack([np.eye(2), -np.eye(2)[:1]]), np.array([0.0, 0.0, -1.0]))
        with pytest.raises(PolytopeStructureError):
            poly.drop_row(0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((3, 2)), np.zeros(2))
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        with pytest.raises(ValueError):
            poly.add_row(np.zeros(3), 0.0)


class TestBarrierQuantities:
    def test_symmetric_box_center(self):
        # Unit box, x = 0: slacks 1, H = sum a a^T = 2*I, each leverage score
        # a^T H^{-1} a = 1/2, and they sum to the dimension.
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        state = barrier_quantities(poly, np.zeros(2))
        assert_allclose(state.H, 2.0 * np.eye(2), atol=1e-15)
        assert_allclose(state.sigma, 0.25 * np.ones(4) * 2.0, atol=1e-15)
        assert_allclose(state.sigma_sum, 2.0, atol=1e-14)
        assert_allclose(state.grad, np.zeros(2), atol=1e-15)
        assert_allclose(state.value, 0.5 * np.log(4.0), rtol=1e-14)

    def test_sigma_matches_direct_inverse(self):
        rng = seeded_rng(2)
        for dim in (2, 3, 5):
            poly = random_polytope(rng, dim, extra_rows=6)
            x = 0.1 * rng.normal(size=dim)
            state = barrier_quantities(poly, x)
            s = poly.slacks(x)
            Hinv = np.linalg.inv(state.H)
            direct = np.einsum("ij,jk,ik->i", poly.A, Hinv, poly.A) / s**2
            assert_allclose(state.sigma, direct, rtol=1e-8)
            assert_allclose(state.Q, (poly.A / s[:, None] * state.sigma[:, None]).T @ (poly.A / s[:, None]), rtol=1e-10)

    def test_sigma_always_sums_to_dimension(self):
        rng = seeded_rng(3)
        for trial in range(20):
            dim = int(rng.integers(2, 6))
            poly = random_polytope(rng, dim, extra_rows=int(rng.integers(0, 8)))
            # random cut offsets stay >= 0.3 from the origin, so ||x|| <= 0.25
            # keeps the point strictly interior
            direction = rng.normal(size=dim)
            x = 0.25 * direction / max(1.0, float(np.linalg.norm(direction)))
            state = barrier_quantities(poly, x)
            assert_allclose(state.sigma_sum, dim, atol=1e-10, err_msg=f"trial {trial}")

    def test_infeasible_point_rejected(self):
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        with pytest.raises(InfeasiblePointError):
            barrier_quantities(poly, np.array([1.0, 0.0]))  # zero slack
        with pytest.raises(InfeasiblePointError):
            barrier_quantities(poly, np.array([2.0, 0.0]))

    def test_degenerate_hessian_rejected(self):
        # All rows parallel to e1: H has rank one in 2-d.
        poly = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, -1.0, -2.0]))
        with pytest.raises(DegeneratePolytopeError):
            barrier_quantities(poly, np.zeros(2))

    def test_ledger_counts_one_factorization_per_call(self):
        poly = Polytope.from_box(Box(-np.ones(3), np.ones(3)))
        ledger = OracleLedger()
        state = barrier_quantities(poly, np.zeros(3), ledger)
        state.hinv_quad(np.ones(3))  # reuses the cached factor
        barrier_quantities(poly, 0.1 * np.ones(3), ledger)
        assert ledger.matrix_inversions == 2

    def test_volumetric_value_matches_state_and_handles_exterior(self):
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        state = barrier_quantities(poly, np.array([0.2, -0.3]))
        assert_allclose(volumetric_value(poly, state.x), state.value, rtol=1e-14)
        assert volumetric_value(poly, np.array([1.5, 0.0])) == math.inf

    def test_triangular_solves_match_scipy_bitwise(self):
        # The leverage scores and c^T H^{-1} c come from LAPACK dtrtrs on the
        # cached factor; they must equal scipy's solve_triangular bit for bit.
        rng = seeded_rng(21)
        for dim in (1, 2, 3, 5, 8):
            for _ in range(10):
                poly = random_polytope(rng, dim, extra_rows=int(rng.integers(0, 10)))
                direction = rng.normal(size=dim)
                x = 0.25 * direction / max(1.0, float(np.linalg.norm(direction)))
                state = barrier_quantities(poly, x)
                W = poly.A / state.slacks[:, None]
                V = solve_triangular(state.chol, W.T, lower=True)
                assert np.array_equal(state.sigma, np.einsum("ij,ij->j", V, V))
                c = rng.normal(size=dim)
                w = solve_triangular(state.chol, c, lower=True)
                assert state.hinv_quad(c) == float(w @ w)

    def test_hinv_quad_rejects_nonfinite_direction(self):
        state = barrier_quantities(Polytope.from_box(Box(-np.ones(2), np.ones(2))), np.zeros(2))
        with pytest.raises(ValueError):
            state.hinv_quad(np.array([np.nan, 1.0]))


class TestPlaceCut:
    def test_pinned_values(self):
        # H = I, c = e1, x = 0: beta = -sqrt(5/sqrt(gamma)).
        x = np.zeros(2)
        c = np.array([1.0, 0.0])
        assert_allclose(place_cut(1.0, x, c, 0.25), -math.sqrt(10.0), rtol=1e-15)
        assert_allclose(place_cut(1.0, x, c, 0.006), -8.034284189446517, rtol=1e-15)

    @pytest.mark.parametrize("gamma", [0.006, 0.1, 0.25])
    def test_satisfies_defining_equation(self, gamma):
        rng = seeded_rng(4)
        poly = random_polytope(rng, 3, extra_rows=4)
        x = 0.1 * rng.normal(size=3)
        state = barrier_quantities(poly, x)
        c = rng.normal(size=3)
        quad = state.hinv_quad(c)
        beta = place_cut(quad, x, c, gamma)
        slack = float(x @ c) - beta
        assert slack > 0
        assert abs(quad / slack**2 - math.sqrt(gamma) / 5.0) <= 1e-12

    def test_scaling_homogeneity(self):
        # Scaling the cut direction scales the created slack linearly, so the
        # geometric position of the new face does not change.
        rng = seeded_rng(9)
        poly = random_polytope(rng, 2, extra_rows=2)
        x = np.array([0.05, -0.1])
        state = barrier_quantities(poly, x)
        c = rng.normal(size=2)
        for t in (2.0, 7.5, 0.25):
            beta1 = place_cut(state.hinv_quad(c), x, c, 0.006)
            beta_t = place_cut(state.hinv_quad(t * c), x, t * c, 0.006)
            assert_allclose(float(x @ (t * c)) - beta_t, t * (float(x @ c) - beta1), rtol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            place_cut(0.0, np.zeros(2), np.ones(2), 0.006)
        with pytest.raises(ValueError):
            place_cut(1.0, np.zeros(2), np.ones(2), 0.0)


class TestNewtonRecenter:
    def test_box_center_is_recovered(self):
        # The volumetric center of any box is its midpoint (the barrier is
        # separable and each 1-d term is symmetric in the two slacks).
        box = Box(np.array([-2.0, 1.0, 0.0]), np.array([4.0, 3.0, 0.4]))
        poly = Polytope.from_box(box)
        start = np.array([3.5, 1.2, 0.01])
        x = newton_recenter(poly, start, VaidyaConfig())
        assert_allclose(x, box.center, atol=1e-6)

    def test_center_is_fixed_point(self):
        rng = seeded_rng(14)
        poly = random_polytope(rng, 3, extra_rows=5)
        x1 = newton_recenter(poly, np.zeros(3), VaidyaConfig())
        x2 = newton_recenter(poly, x1, VaidyaConfig())
        assert_allclose(x2, x1, atol=1e-6)

    def test_gradient_small_and_value_beats_grid(self):
        rng = seeded_rng(15)
        poly = random_polytope(rng, 2, extra_rows=3)
        x = newton_recenter(poly, np.zeros(2), VaidyaConfig())
        state = barrier_quantities(poly, x)
        assert np.linalg.norm(state.grad) <= 1e-6
        # No grid point in the interior should do better than the center
        # (up to the grid resolution).
        grid = np.linspace(-0.99, 0.99, 81)
        best = min(
            volumetric_value(poly, np.array([gx, gy]))
            for gx in grid
            for gy in grid
        )
        assert state.value <= best + 1e-3

    def test_stagnation_error_carries_point(self):
        err = NewtonStagnationError(np.array([0.5, 0.5]))
        assert_array_equal(err.x, [0.5, 0.5])
        assert "stagnated" in str(err)


def _reference_factor(poly, x, calls):
    """The factoring step as it was before the LAPACK gufuncs were called
    directly: slacks through ``Polytope.slacks`` and the factor through the
    public ``np.linalg.cholesky``.  ``calls[0]`` counts the factorizations.
    """
    s = poly.slacks(x)
    if (s <= 0).any():
        raise InfeasiblePointError("point is not strictly interior to the polytope")
    W = poly.A / s[:, None]
    H = W.T @ W
    calls[0] += 1
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise DegeneratePolytopeError("barrier Hessian is singular") from exc
    return x, s, W, H, chol, float(np.log(chol.diagonal()).sum())


def _reference_state(factored, ledger):
    """Leverage scores, gradient and Q of a factored point, one ledger charge."""
    x, s, W, H, chol, value = factored
    if ledger is not None:
        ledger.add_inversion()
    V = solve_triangular(chol, W.T, lower=True, check_finite=False)
    sigma = np.einsum("ij,ij->j", V, V)
    grad = -(W.T @ sigma)
    Q = (W * sigma[:, None]).T @ W
    return vaidya_module.BarrierState(
        x=x.copy(), slacks=s, H=H, chol=chol, sigma=sigma, grad=grad, Q=Q, value=value
    )


def _reference_barrier_quantities(poly, x, ledger=None):
    return _reference_state(_reference_factor(poly, np.asarray(x, dtype=float), [0]), ledger)


def _reference_recenter(poly, x_start, config, ledger):
    """Recentering as it was before the accepted trial's factor was reused and
    before the LAPACK gufuncs were called directly.

    Every Cholesky factorization goes through ``np.linalg.cholesky`` and every
    Newton direction through ``np.linalg.solve``; nothing in it calls the
    module's barrier code.  Each accepted point is rebuilt from scratch.
    Returns ``(x, state, solves, factorizations)`` like ``_recenter``, where
    the rebuilds, which ``_recenter`` does not make, are not counted.
    """
    calls = [0]
    x = np.asarray(x_start, dtype=float).copy()
    state = _reference_state(_reference_factor(poly, x, calls), ledger)
    solves = 1
    for _ in range(config.max_newton_steps):
        try:
            direction = np.linalg.solve(state.Q, state.grad)
        except np.linalg.LinAlgError as exc:
            raise DegeneratePolytopeError("barrier metric Q is singular") from exc
        squared = max(float(state.grad @ direction), 0.0)
        decrement = math.sqrt(squared)
        if decrement <= config.newton_tolerance:
            break
        t = 1.0
        accepted = None
        for _ in range(60):
            try:
                trial = _reference_factor(poly, x - t * direction, calls)
            except (InfeasiblePointError, DegeneratePolytopeError):
                trial = None
            if trial is not None and trial[-1] <= state.value - 0.25 * t * squared:
                accepted = trial
                break
            t *= 0.5
        if accepted is None:
            if decrement <= vaidya_module._STAGNATION_DECREMENT:
                break
            raise NewtonStagnationError(x)
        x = accepted[0]
        previous_value = state.value
        state = _reference_state(_reference_factor(poly, x, [0]), ledger)
        solves += 1
        if previous_value - state.value <= 1e-13 * (1.0 + abs(state.value)):
            break
    return x, state, solves, calls[0]


def _bowl_oracle(target):
    return lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))


def _interior_start(rng, dim):
    direction = rng.normal(size=dim)
    return 0.25 * direction / max(1.0, float(np.linalg.norm(direction)))


def _assert_states_equal(state, reference):
    for name in ("x", "slacks", "H", "chol", "sigma", "grad", "Q"):
        assert np.array_equal(getattr(state, name), getattr(reference, name), equal_nan=True), name
    assert repr(state.value) == repr(reference.value)


class TestFactorReuse:
    """The gufunc path, with the accepted trial's factor reused, changes no
    iterate and no count against the ``np.linalg`` reference."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_recenter_iterates_match_reference_bitwise(self, dim):
        rng = seeded_rng(100 + dim)
        for _ in range(10):
            poly = random_polytope(rng, dim, extra_rows=int(rng.integers(0, 3 * dim)))
            start = _interior_start(rng, dim)
            ref_ledger, ledger = OracleLedger(), OracleLedger()
            x_ref, ref_state, ref_solves, ref_factorizations = _reference_recenter(
                poly, start, VaidyaConfig(), ref_ledger
            )
            x, state, solves, factorizations = vaidya_module._recenter(
                poly, start, VaidyaConfig(), ledger
            )
            assert np.array_equal(x, x_ref)
            assert np.array_equal(newton_recenter(poly, start, VaidyaConfig()), x_ref)
            _assert_states_equal(state, ref_state)
            assert (solves, factorizations) == (ref_solves, ref_factorizations)
            assert ledger.matrix_inversions == ref_ledger.matrix_inversions

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_minimize_counts_match_reference(self, dim, monkeypatch):
        target = seeded_rng(200 + dim).uniform(-0.8, 0.8, size=dim)
        region = Box(-np.ones(dim), np.ones(dim))
        config = VaidyaConfig(max_iterations=60)
        ledger = OracleLedger()
        result = vaidya_minimize(_bowl_oracle(target), dim, region, config, ledger)
        monkeypatch.setattr(vaidya_module, "_recenter", _reference_recenter)
        ref_ledger = OracleLedger()
        reference = vaidya_minimize(_bowl_oracle(target), dim, region, config, ref_ledger)
        assert ledger.snapshot() == ref_ledger.snapshot()
        assert len(result.iterations) == len(reference.iterations)
        for it, ref in zip(result.iterations, reference.iterations):
            assert it.barrier_solves == ref.barrier_solves
            assert it.factorizations == ref.factorizations
            assert it.action == ref.action
            assert repr(it.min_sigma) == repr(ref.min_sigma)
            assert np.array_equal(it.x, ref.x)
        assert repr(result.best_value) == repr(reference.best_value)


class TestFactorizationCount:
    @pytest.mark.parametrize("dim", [2, 5])
    def test_iteration_counts_every_cholesky_of_h(self, dim, monkeypatch):
        # VaidyaIteration.factorizations is the start state's factorization
        # plus one per strictly interior line-search trial: every call of the
        # module's Cholesky gufunc, of which barrier_solves are accepted.
        calls = [0]
        cholesky_lo = vaidya_module._cholesky_lo

        def counting(*args, **kwargs):
            calls[0] += 1
            return cholesky_lo(*args, **kwargs)

        monkeypatch.setattr(vaidya_module, "_cholesky_lo", counting)
        target = seeded_rng(250 + dim).uniform(-0.8, 0.8, size=dim)
        result = vaidya_minimize(
            _bowl_oracle(target), dim, Box(-np.ones(dim), np.ones(dim)),
            VaidyaConfig(max_iterations=80),
        )
        assert sum(it.factorizations for it in result.iterations) == calls[0]
        assert all(it.factorizations >= it.barrier_solves for it in result.iterations)
        # The full step is mostly rejected, so trials outnumber Newton iterates.
        assert calls[0] > sum(it.barrier_solves for it in result.iterations)


def _random_spd(rng, dim):
    poly = random_polytope(rng, dim, extra_rows=int(rng.integers(0, 3 * dim)))
    s = poly.slacks(_interior_start(rng, dim))
    W = poly.A / s[:, None]
    return W.T @ W


class TestLapackGufuncs:
    """The gufuncs behind ``np.linalg`` give its bits and its errors."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_gufuncs_equal_linalg_bitwise(self, dim):
        rng = seeded_rng(400 + dim)
        for _ in range(20):
            M = rng.normal(size=(dim, dim))
            for H in (_random_spd(rng, dim), M @ M.T + dim * np.eye(dim)):
                chol = vaidya_module._cholesky(H)
                expected = np.linalg.cholesky(H)
                assert np.array_equal(chol, expected)
                assert chol.flags.c_contiguous == expected.flags.c_contiguous
                assert chol.flags.f_contiguous == expected.flags.f_contiguous
                rhs = rng.normal(size=dim)
                assert np.array_equal(
                    vaidya_module._newton_direction(H, rhs), np.linalg.solve(H, rhs)
                )


@contextmanager
def _no_runtime_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


class TestFailureSemantics:
    """Where ``np.linalg`` raises, the gufunc path raises the same error, and
    no path emits a RuntimeWarning."""

    def test_rank_deficient_polytope(self):
        # All rows parallel to e1: H has rank one in 2-d.
        poly = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, -1.0, -2.0]))
        with _no_runtime_warning():
            with pytest.raises(DegeneratePolytopeError) as excinfo:
                barrier_quantities(poly, np.zeros(2))
            assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
            assert volumetric_value(poly, np.zeros(2)) == math.inf
            with pytest.raises(DegeneratePolytopeError):
                newton_recenter(poly, np.zeros(2), VaidyaConfig())

    def test_indefinite_and_singular_matrices(self):
        # The helpers run under the callers' errstate, as in the module.
        with _no_runtime_warning(), np.errstate(invalid="ignore"):
            with pytest.raises(DegeneratePolytopeError):
                vaidya_module._cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
            with pytest.raises(DegeneratePolytopeError):
                vaidya_module._newton_direction(np.zeros((3, 3)), np.ones(3))

    def test_singular_q_raises(self, monkeypatch):
        # Q is singular only when H is, which barrier_quantities rejects
        # first; hand the Newton loop a singular Q directly.
        compute = vaidya_module.barrier_quantities

        def singular_q(poly, x, ledger=None):
            state = compute(poly, x, ledger)
            return dataclasses.replace(state, Q=np.zeros_like(state.Q))

        monkeypatch.setattr(vaidya_module, "barrier_quantities", singular_q)
        poly = Polytope.from_box(Box(-np.ones(2), np.ones(2)))
        with _no_runtime_warning():
            with pytest.raises(DegeneratePolytopeError) as excinfo:
                newton_recenter(poly, np.array([0.3, -0.1]), VaidyaConfig())
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_nan_point_matches_linalg_path(self):
        # OpenBLAS's potrf does not flag NaN, so np.linalg.cholesky returns a
        # NaN factor without raising; the gufunc path must do the same.
        poly = random_polytope(seeded_rng(31), 3, extra_rows=4)
        x = np.array([np.nan, 0.1, -0.2])
        with _no_runtime_warning():
            state = barrier_quantities(poly, x)
            _assert_states_equal(state, _reference_barrier_quantities(poly, x))
            assert np.isnan(state.chol[0, 0])
            assert math.isnan(volumetric_value(poly, x))
            with pytest.raises(NewtonStagnationError):
                newton_recenter(poly, x, VaidyaConfig())
            with pytest.raises(NewtonStagnationError):
                _reference_recenter(poly, x, VaidyaConfig(), None)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_every_recorded_center_is_within_stagnation_decrement(dim, monkeypatch):
    # Centrality: the Newton decrement sqrt(g^T Q^{-1} g) at each center the
    # outer loop records is at most the stagnation threshold.
    states = []
    recenter = vaidya_module._recenter

    def recording(poly, x_start, config, ledger):
        out = recenter(poly, x_start, config, ledger)
        states.append(out[1])
        return out

    monkeypatch.setattr(vaidya_module, "_recenter", recording)
    target = seeded_rng(300 + dim).uniform(-0.8, 0.8, size=dim)
    result = vaidya_minimize(
        _bowl_oracle(target), dim, Box(-np.ones(dim), np.ones(dim)), VaidyaConfig(max_iterations=150)
    )
    assert len(states) == len(result.iterations)
    for state, it in zip(states, result.iterations):
        assert np.array_equal(state.x, it.x)
        decrement = math.sqrt(max(float(state.grad @ np.linalg.solve(state.Q, state.grad)), 0.0))
        assert decrement <= vaidya_module._STAGNATION_DECREMENT, f"k={it.k}: {decrement:.3e}"


class TestVaidyaConfig:
    def test_gamma_floor(self):
        with pytest.raises(ValueError):
            VaidyaConfig(gamma=0.005)
        VaidyaConfig(gamma=0.006)  # boundary allowed

    def test_other_validation(self):
        with pytest.raises(ValueError):
            VaidyaConfig(newton_tolerance=0.0)
        with pytest.raises(ValueError):
            VaidyaConfig(max_iterations=0)


class TestVaidyaMinimize:
    # Targets are offset from the box center: the first query happens at the
    # center, and a target there would trivially end the run at step one.

    def test_quadratic_bowl(self):
        target = np.array([0.3, -0.2])
        region = Box(-np.ones(2), np.ones(2))
        oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
        result = vaidya_minimize(oracle, 2, region, VaidyaConfig(max_iterations=500))
        assert result.best_value <= 1e-6
        assert np.linalg.norm(result.x - target) <= 2e-3

    def test_one_dimensional_absolute_value(self):
        region = Box(np.array([-1.0]), np.array([1.0]))
        oracle = lambda x: (abs(float(x[0]) - 0.3), np.array([math.copysign(1.0, float(x[0]) - 0.3)]))
        result = vaidya_minimize(oracle, 1, region, VaidyaConfig(max_iterations=250))
        # Cuts are placed with a large relative slack (about 8 metric units at
        # gamma = 0.006), so each one trims the interval only modestly;
        # around 180 calls is the honest cost of a 1e-4 localization here.
        assert result.best_value <= 1e-4
        calls_when_good = next(
            it.k for it in result.iterations
            if it.oracle_value is not None and it.best_value <= 1e-4
        )
        assert calls_when_good <= 220

    def test_zero_subgradient_stops_immediately(self):
        region = Box(-np.ones(2), np.ones(2))

        def oracle(x):
            r = float(np.linalg.norm(x))
            if r <= 0.5:
                return 0.0, np.zeros(2)
            return r - 0.5, x / r

        result = vaidya_minimize(oracle, 2, region)
        assert result.stop_reason == "zero_subgradient"
        assert result.oracle_calls == 1
        assert result.iterations[-1].action == "stop"

    def test_oracle_only_queried_inside_region(self):
        # Region much smaller than its reported bounding box, so the center
        # regularly leaves it and separation cuts must take over.
        class SmallBallBigBox(Ball):
            def bounding_box(self):
                return Box(self.center - 2.0, self.center + 2.0)

        region = SmallBallBigBox(np.zeros(2), 0.5)
        queried = []

        def oracle(x):
            queried.append(x.copy())
            assert region.contains(x, tol=1e-9)
            return float(-x[0]), np.array([-1.0, 0.0])

        # The linear objective drags the center toward x[0] = 2 (the box edge),
        # which leaves the ball around iteration 150; plenty of margin here.
        result = vaidya_minimize(oracle, 2, region, VaidyaConfig(max_iterations=400))
        separations = [it for it in result.iterations if it.feasible_query is False]
        assert len(separations) > 0
        assert len(queried) == result.oracle_calls
        # pushing x[0] toward the boundary: the best point approaches (0.5, 0)
        assert result.best_value <= -0.4

    def test_row_bookkeeping_matches_actions(self):
        target = np.array([0.25, -0.4, 0.1])
        region = Box(-np.ones(3), np.ones(3))
        oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
        result = vaidya_minimize(oracle, 3, region, VaidyaConfig(max_iterations=60))
        rows = 6  # 2*d box rows
        for it in result.iterations:
            assert it.m_rows == rows
            if it.action == "add":
                assert it.min_sigma >= 0.006
                rows += 1
            elif it.action == "drop":
                assert it.min_sigma < 0.006
                rows -= 1
            assert it.min_slack > 0
            assert abs(it.sigma_sum - 3.0) < 1e-9

    def test_ledger_matches_recorded_barrier_solves(self):
        target = np.array([0.3, 0.1])
        region = Box(-np.ones(2), np.ones(2))
        oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
        ledger = OracleLedger()
        result = vaidya_minimize(oracle, 2, region, VaidyaConfig(max_iterations=30), ledger)
        assert ledger.matrix_inversions == sum(it.barrier_solves for it in result.iterations)

    def test_stop_condition_checked_before_work(self):
        region = Box(-np.ones(2), np.ones(2))
        oracle = lambda x: (float(x @ x), 2.0 * x)
        ledger = OracleLedger()
        result = vaidya_minimize(
            oracle, 2, region, VaidyaConfig(), ledger, stop_condition=lambda: True
        )
        assert result.stop_reason == "stop_condition"
        assert result.oracle_calls == 0
        assert ledger.matrix_inversions == 0

    def test_max_iterations_reason(self):
        target = np.array([0.3, -0.2])
        region = Box(-np.ones(2), np.ones(2))
        oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
        result = vaidya_minimize(oracle, 2, region, VaidyaConfig(max_iterations=3))
        assert result.stop_reason == "max_iterations"
        assert len(result.iterations) == 3

    def test_region_dimension_checked(self):
        with pytest.raises(ValueError):
            vaidya_minimize(lambda x: (0.0, x), 3, Box(-np.ones(2), np.ones(2)))


def test_write_iterations_csv_format():
    target = np.array([0.3, -0.2])
    region = Box(-np.ones(2), np.ones(2))
    oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
    result = vaidya_minimize(oracle, 2, region, VaidyaConfig(max_iterations=5))
    buffer = io.StringIO()
    write_iterations_csv(result.iterations, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "k,m_rows,min_sigma,action,f_best"
    assert len(lines) == 1 + len(result.iterations)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "4" and first[3] in ("add", "drop", "stop")
