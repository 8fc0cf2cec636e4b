"""Tests for the projected fast gradient method and its restart wrapper."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minmin import (
    Ball,
    Box,
    CountingOracle,
    FunctionOracle,
    NumericFailureError,
    OracleLedger,
    RestartConfig,
    fgm_restarted,
    fgm_run,
    inner_solve,
    make_logreg_minmin,
    make_quadratic_minmin,
    make_synthetic_classification,
    next_alpha,
    seeded_rng,
    strong_convexity_gap_bound,
)


def quadratic_oracle(D, c):
    """f(y) = 0.5 * (y-c)^T diag(D) (y-c): gradient D*(y-c), L = max(D)."""
    D = np.asarray(D, dtype=float)
    c = np.asarray(c, dtype=float)
    return FunctionOracle(
        c.size,
        lambda y: 0.5 * float((y - c) @ (D * (y - c))),
        lambda y: D * (y - c),
    )


class TestNextAlpha:
    def test_closed_forms(self):
        # A=0: alpha = 1/L; A=1, L=1: golden ratio.
        assert next_alpha(0.0, 1.0) == 1.0
        assert next_alpha(0.0, 2.0) == 0.5
        assert_allclose(next_alpha(1.0, 1.0), (1.0 + math.sqrt(5.0)) / 2.0, rtol=1e-15)

    def test_solves_defining_quadratic(self):
        rng = seeded_rng(5)
        for _ in range(100):
            A = float(rng.uniform(0.0, 50.0))
            L = float(rng.uniform(0.1, 100.0))
            alpha = next_alpha(A, L)
            assert_allclose(L * alpha * alpha, A + alpha, rtol=1e-12)
            assert alpha > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            next_alpha(0.0, 0.0)
        with pytest.raises(ValueError):
            next_alpha(-1.0, 1.0)


def test_single_step_on_scalar_quadratic_hits_zero():
    # f(y) = y^2/2, y0 = 1, L = 1: alpha_1 = 1, z = u = y0, u_1 = 1 - 1*1 = 0,
    # y_1 = (1*0 + 0*1)/1 = 0.  One step lands exactly on the minimizer.
    oracle = quadratic_oracle([1.0], [0.0])
    region = Ball(np.zeros(1), 10.0)
    y1 = fgm_run(oracle, region, np.array([1.0]), L=1.0, num_steps=1)
    assert_allclose(y1, [0.0], atol=0.0)


def test_minimizer_is_fixed_point():
    oracle = quadratic_oracle([1.0, 4.0], [0.3, -0.2])
    region = Ball(np.zeros(2), 5.0)
    y = fgm_run(oracle, region, np.array([0.3, -0.2]), L=4.0, num_steps=25)
    assert_allclose(y, [0.3, -0.2], atol=1e-14)


def test_step_size_identities():
    # A_k must track both the alpha sum and L*alpha_k^2 along a real run.
    oracle = quadratic_oracle(np.linspace(1.0, 3.0, 4), np.zeros(4))
    region = Ball(np.zeros(4), 10.0)
    states = []
    fgm_run(oracle, region, np.ones(4), L=3.0, num_steps=30, callback=states.append)
    alpha_sum = 0.0
    for state in states:
        alpha_sum += state.alpha
        assert_allclose(state.A, alpha_sum, rtol=1e-12)
        assert_allclose(3.0 * state.alpha**2, state.A, rtol=1e-12)
    assert states[-1].k == 30


def test_rate_bound_on_random_quadratics():
    # f(y_N) - f* <= 8*L*R^2/(N+1)^2 with R^2 = 0.5*||y0 - y*||^2, at every N.
    rng = seeded_rng(123)
    for trial in range(5):
        n = 20
        D = rng.uniform(0.5, 30.0, size=n)
        c = rng.normal(size=n)
        L = float(np.max(D))
        oracle = quadratic_oracle(D, c)
        region = Ball(np.zeros(n), 50.0)
        y0 = rng.normal(size=n)
        R2 = 0.5 * float((y0 - c) @ (y0 - c))
        gaps = []
        fgm_run(oracle, region, y0, L, 60, callback=lambda s: gaps.append(oracle.value(s.y)))
        for N, gap in enumerate(gaps, start=1):
            assert gap <= 8.0 * L * R2 / (N + 1) ** 2 + 1e-12, f"trial {trial}, N={N}"


def test_projection_keeps_iterates_feasible_and_finds_boundary_optimum():
    # Unconstrained minimizer (3, 0) lies outside the unit ball; the
    # constrained optimum is (1, 0).
    oracle = quadratic_oracle([1.0, 1.0], [3.0, 0.0])
    region = Ball(np.zeros(2), 1.0)
    seen = []
    y = fgm_run(oracle, region, np.zeros(2), L=1.0, num_steps=300, callback=seen.append)
    assert_allclose(y, [1.0, 0.0], atol=1e-4)
    for state in seen:
        assert region.contains(state.u, tol=1e-9)


def test_input_validation():
    oracle = quadratic_oracle([1.0], [0.0])
    region = Ball(np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        fgm_run(oracle, region, np.zeros(1), L=0.0, num_steps=1)
    with pytest.raises(ValueError):
        fgm_run(oracle, region, np.zeros(1), L=1.0, num_steps=0)
    with pytest.raises(ValueError):
        fgm_run(oracle, region, np.array([5.0]), L=1.0, num_steps=1)  # infeasible start


def test_nonfinite_gradient_raises_with_step():
    oracle = FunctionOracle(1, lambda y: 0.0, lambda y: np.array([np.nan]))
    region = Ball(np.zeros(1), 1.0)
    with pytest.raises(NumericFailureError) as info:
        fgm_run(oracle, region, np.zeros(1), L=1.0, num_steps=3)
    assert info.value.step == 1


class TestRestartConfig:
    def test_block_length_formula(self):
        # ceil(4*sqrt(L/mu))
        assert RestartConfig(L=1.0, mu=1.0, epsilon=1e-3, R=1.0).steps_per_restart == 4
        assert RestartConfig(L=100.0, mu=1.0, epsilon=1e-3, R=1.0).steps_per_restart == 40
        assert RestartConfig(L=2.0, mu=1.0, epsilon=1e-3, R=1.0).steps_per_restart == 6

    def test_restart_count_formula(self):
        # ceil(0.5*ln(mu*R^2/eps)), floored at one block.
        cfg = RestartConfig(L=1.0, mu=1.0, epsilon=1e-6, R=1.0)
        assert cfg.num_restarts == math.ceil(0.5 * math.log(1e6))
        # mu*R^2 <= eps: already good enough, but still run one block
        assert RestartConfig(L=1.0, mu=1.0, epsilon=10.0, R=1.0).num_restarts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartConfig(L=1.0, mu=0.0, epsilon=1.0, R=1.0)
        with pytest.raises(ValueError):
            RestartConfig(L=0.5, mu=1.0, epsilon=1.0, R=1.0)
        with pytest.raises(ValueError):
            RestartConfig(L=1.0, mu=1.0, epsilon=0.0, R=1.0)
        with pytest.raises(ValueError):
            RestartConfig(L=1.0, mu=1.0, epsilon=1.0, R=0.0)


@pytest.mark.parametrize("ratio", [4.0, 100.0])
def test_each_block_contracts_squared_distance(ratio):
    # One block of ceil(4*sqrt(L/mu)) steps must halve ||y - y*||^2.
    rng = seeded_rng(31)
    for _ in range(10):
        n = 15
        D = np.linspace(1.0, ratio, n)
        c = rng.normal(size=n)
        oracle = quadratic_oracle(D, c)
        region = Ball(np.zeros(n), 100.0)
        y0 = c + rng.normal(size=n)
        cfg = RestartConfig(L=ratio, mu=1.0, epsilon=1e-12, R=float(np.linalg.norm(y0 - c)))
        y = fgm_run(oracle, region, y0, cfg.L, cfg.steps_per_restart)
        d0 = float((y0 - c) @ (y0 - c))
        d1 = float((y - c) @ (y - c))
        assert d1 <= 0.5 * d0 + 1e-15


def test_restarted_reaches_target_accuracy():
    rng = seeded_rng(77)
    n = 12
    D = np.linspace(0.5, 40.0, n)
    c = rng.normal(size=n)
    oracle = quadratic_oracle(D, c)
    region = Box(-10.0 * np.ones(n), 10.0 * np.ones(n))
    y0 = region.project(c + rng.normal(size=n))
    eps = 1e-9
    cfg = RestartConfig(L=40.0, mu=0.5, epsilon=eps, R=float(np.linalg.norm(y0 - c)) + 1.0)
    y = fgm_restarted(oracle, region, y0, cfg)
    assert oracle.value(y) - 0.0 <= eps


def test_stop_when_short_circuits_blocks():
    oracle = quadratic_oracle([1.0, 1.0], [0.0, 0.0])
    region = Ball(np.zeros(2), 5.0)
    cfg = RestartConfig(L=1.0, mu=1.0, epsilon=1e-14, R=3.0)
    assert cfg.num_restarts > 1
    calls = []

    def stop_when(y):
        calls.append(np.array(y))
        return True  # certified immediately after the first block

    fgm_restarted(oracle, region, np.array([2.0, 1.0]), cfg, stop_when=stop_when)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Reference copy of the restarted-FGM inner solve as it was before its hot
# path was made lean: projection through np.linalg.norm, ``next_alpha`` and
# ``np.all(np.isfinite(...))`` per step, and a ledger charge per gradient
# through CountingOracle.  The lean path must match it bit for bit.


class NormBall:
    """Ball whose norms go through np.linalg.norm, with the two-step check."""

    def __init__(self, ball):
        self.center, self.radius = ball.center, ball.radius

    def _check(self, point):
        p = np.asarray(point, dtype=float)
        if p.ndim != 1 or p.size != self.center.size:
            raise ValueError("bad point")
        return p

    def contains(self, point, tol=1e-12):
        p = self._check(point)
        return float(np.linalg.norm(p - self.center)) <= self.radius + tol * (1.0 + self.radius)

    def project(self, point):
        p = self._check(point)
        offset = p - self.center
        norm = float(np.linalg.norm(offset))
        if norm <= self.radius:
            return p.copy()
        return self.center + offset * (self.radius / norm)


def reference_fgm_run(oracle, region, y0, L, num_steps):
    y = np.asarray(y0, dtype=float).copy()
    u = y.copy()
    A = 0.0
    for k in range(num_steps):
        alpha = next_alpha(A, L)
        A_next = A + alpha
        z = (alpha * u + A * y) / A_next
        g = np.asarray(oracle.gradient(z), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericFailureError("non-finite gradient", step=k + 1)
        u = region.project(u - alpha * g)
        y = (alpha * u + A * y) / A_next
        A = A_next
    return y


def reference_inner_solve(problem, x, eps_inner, ledger, y_start=None, max_grad_y=None):
    region = NormBall(problem.set_y)
    y = np.asarray(y_start, dtype=float).copy() if y_start is not None else region.center.copy()
    start_calls = ledger.grad_y_calls
    cost = problem.components.m if problem.components is not None else 1
    fixed_x = FunctionOracle(
        problem.y_dim, lambda v: problem.value(x, v), lambda v: problem.grad_y(x, v)
    )
    oracle = CountingOracle(fixed_x, ledger, cost)

    def certificate(point):
        return strong_convexity_gap_bound(region, problem.mu, point, oracle.gradient(point))

    config = RestartConfig(
        L=problem.L, mu=problem.mu, epsilon=eps_inner, R=problem.diameter_y / math.sqrt(2.0)
    )
    if certificate(y) > eps_inner:
        for _ in range(config.num_restarts):
            spent = ledger.grad_y_calls - start_calls
            if max_grad_y is not None and spent + cost * config.steps_per_restart > max_grad_y:
                break
            y = reference_fgm_run(oracle, region, y, problem.L, config.steps_per_restart)
            if certificate(y) <= eps_inner:
                break
    return y, float(problem.value(x, y))


def _quadratic(num_components):
    problem, _ = make_quadratic_minmin(3, 12, 0.05, seed=4, num_components=num_components)
    return problem


def _logistic(finite_sum):
    problem = make_logreg_minmin(make_synthetic_classification(60, 14, seed=2), 4, 0.01)
    return problem if finite_sum else dataclasses.replace(problem, components=None)


@pytest.mark.parametrize("make_problem", [
    lambda: _quadratic(None), lambda: _quadratic(3), lambda: _logistic(False),
    lambda: _logistic(True),
], ids=["quadratic", "quadratic-finite-sum", "logistic", "logistic-finite-sum"])
@pytest.mark.parametrize("max_grad_y", [None, "truncating"])
def test_inner_solve_matches_reference_loop_bitwise(make_problem, max_grad_y):
    problem = make_problem()
    cost = problem.components.m if problem.components is not None else 1
    rng = seeded_rng(11)
    lean_ledger, reference_ledger = OracleLedger(), OracleLedger()
    y_warm = None
    truncated = 0
    for call in range(6):
        x = problem.set_x.project(rng.normal(size=problem.x_dim))
        eps = 10.0 ** -(3 + call)
        # Room for the entry certificate and half a block, or for one block
        # and its certificate and half of the next.
        budget = None
        if max_grad_y == "truncating":
            steps = RestartConfig(L=problem.L, mu=problem.mu, epsilon=eps, R=1.0).steps_per_restart
            budget = cost * (1 + (call % 2) * (steps + 1) + steps // 2)
        lean = inner_solve(problem, x, eps, ledger=lean_ledger, y_start=y_warm,
                           max_grad_y=budget)
        before = reference_ledger.grad_y_calls
        reference = reference_inner_solve(problem, x, eps, reference_ledger, y_start=y_warm,
                                          max_grad_y=budget)
        assert np.array_equal(lean[0], reference[0])
        assert lean[1] == reference[1]
        assert lean_ledger.snapshot() == reference_ledger.snapshot()
        if budget is not None:
            unbounded = OracleLedger()
            reference_inner_solve(problem, x, eps, unbounded, y_start=y_warm)
            truncated += unbounded.grad_y_calls > reference_ledger.grad_y_calls - before
        y_warm = lean[0]
    if max_grad_y == "truncating":
        assert truncated > 0  # the budget did cut some solves short
