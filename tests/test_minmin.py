"""Tests for the two-level min-min driver and its accuracy certificates."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minmin import (
    Ball,
    Box,
    InnerStagnationError,
    MinMinComponents,
    MinMinConfig,
    MinMinProblem,
    NumericFailureError,
    OracleLedger,
    RunHistory,
    VaidyaConfig,
    delta_from_eps,
    delta_subgradient,
    eps_floor,
    frank_wolfe_gap,
    inner_solve,
    make_logreg_minmin,
    make_quadratic_minmin,
    make_synthetic_classification,
    seeded_rng,
    solve_minmin,
    strong_convexity_gap_bound,
)
from oracles import ball_fw_gap


def coupled_quadratic(x_dim=2, y_dim=8, mu=0.5, seed=0, num_components=None):
    """Coupled quadratic with a known coupling matrix and exact solution."""
    rng = seeded_rng(seed)
    coupling = rng.normal(size=(y_dim, x_dim)) / math.sqrt(y_dim)
    problem, solution = make_quadratic_minmin(
        x_dim, y_dim, mu, seed=seed + 1, coupling=coupling,
        num_components=num_components,
    )
    return problem, solution, coupling


def exact_inner_minimizer(problem, coupling, x):
    """y(x) for F(x, y) = 0.5*||y - Bx||^2 + mu/2*||y||^2 + x-only terms."""
    return coupling @ x / (1.0 + problem.mu)


class TestGapBound:
    def test_unconstrained_closed_form(self):
        # In a region so large the constraint is slack, the maximizer is
        # w = g/mu and the bound equals ||g||^2 / (2 mu).
        region = Ball(np.zeros(2), 1e9)
        bound = strong_convexity_gap_bound(region, 2.0, np.zeros(2), np.array([3.0, 4.0]))
        assert bound == pytest.approx(25.0 / 4.0, rel=1e-15)

    def test_zero_gradient_gives_zero(self):
        region = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert strong_convexity_gap_bound(region, 0.7, np.zeros(2), np.zeros(2)) == 0.0

    def test_exact_for_matching_quadratic(self):
        # f = mu/2 * ||y - c||^2 makes the strong-convexity model tight, so
        # the certificate equals the true gap to rounding.
        rng = seeded_rng(3)
        region = Ball(np.zeros(4), 100.0)
        mu = 1.7
        for _ in range(20):
            c = rng.normal(size=4)
            y = rng.normal(size=4)
            g = mu * (y - c)
            gap = 0.5 * mu * float((y - c) @ (y - c))
            assert strong_convexity_gap_bound(region, mu, y, g) == pytest.approx(
                gap, rel=1e-12, abs=1e-15
            )

    def test_sound_for_anisotropic_quadratics(self):
        # bound >= true gap whenever f is mu-strongly convex.
        rng = seeded_rng(4)
        region = Box(-5.0 * np.ones(5), 5.0 * np.ones(5))
        mu = 0.3
        diag = np.linspace(mu, 9.0, 5)
        for _ in range(50):
            c = rng.uniform(-2.0, 2.0, size=5)
            y = rng.uniform(-5.0, 5.0, size=5)
            gap = 0.5 * float((y - c) @ (diag * (y - c)))
            g = diag * (y - c)
            bound = strong_convexity_gap_bound(region, mu, y, g)
            assert bound + 1e-12 >= gap

    def test_matches_numeric_maximum_on_box(self):
        from scipy.optimize import minimize

        rng = seeded_rng(5)
        lower, upper = -np.ones(3), np.array([2.0, 0.5, 1.0])
        region = Box(lower, upper)
        mu = 0.9
        for _ in range(10):
            y = rng.uniform(lower, upper)
            g = rng.normal(size=3)

            def negated(z):
                w = y - z
                return -(g @ w - 0.5 * mu * w @ w)

            best = minimize(negated, region.center, bounds=list(zip(lower, upper)))
            assert strong_convexity_gap_bound(region, mu, y, g) == pytest.approx(
                -best.fun, abs=1e-8
            )

    def test_mu_must_be_positive(self):
        region = Ball(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="positive"):
            strong_convexity_gap_bound(region, 0.0, np.zeros(1), np.ones(1))


class TestFrankWolfeGap:
    def test_ball_matches_explicit_minimizer_and_samples(self):
        rng = seeded_rng(31)
        ball = Ball(np.array([0.5, -0.3, 1.2, 0.0]), 2.5)
        for _ in range(10):
            y = ball.project(ball.center + 3.0 * rng.normal(size=4))
            g = rng.normal(size=4)
            gap = frank_wolfe_gap(ball, y, g)
            assert gap == pytest.approx(ball_fw_gap(ball, y, g), rel=1e-13, abs=1e-13)
            directions = rng.normal(size=(1000, 4))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            samples = ball.center + ball.radius * rng.uniform(size=(1000, 1)) ** 0.25 * directions
            assert ((y - samples) @ g).max() <= gap + 1e-12
            assert gap >= 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_box_matches_best_vertex(self, n):
        rng = seeded_rng(40 + n)
        box = Box(-rng.uniform(0.1, 2.0, size=n), rng.uniform(0.1, 2.0, size=n))
        vertices = np.array([
            np.where(bits, box.upper, box.lower)
            for bits in itertools.product([False, True], repeat=n)
        ])
        for _ in range(20):
            y = rng.uniform(box.lower, box.upper)
            g = rng.normal(size=n)
            expected = float(((y - vertices) @ g).max())
            assert frank_wolfe_gap(box, y, g) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("region", [
        Ball(np.array([1.0, -2.0]), 0.5),
        Box(np.array([-1.0, 0.5]), np.array([0.2, 3.0])),
    ])
    def test_zero_gradient_gives_zero(self, region):
        assert frank_wolfe_gap(region, region.center, np.zeros(2)) == 0.0

    def test_dominates_strong_convexity_bound(self):
        # Dropping the -mu/2*||y - z||^2 term can only raise the maximum.
        rng = seeded_rng(32)
        for region in (Ball(np.zeros(3), 1.5), Box(-np.ones(3), np.array([2.0, 0.5, 1.0]))):
            for _ in range(20):
                y = region.project(2.0 * rng.normal(size=3))
                g = rng.normal(size=3)
                assert frank_wolfe_gap(region, y, g) >= (
                    strong_convexity_gap_bound(region, 0.4, y, g) - 1e-12
                )


class TestProblemValidation:
    def test_rejects_bad_constants(self):
        set_x = Box(np.array([-1.0]), np.array([1.0]))
        set_y = Ball(np.zeros(2), 1.0)
        kwargs = dict(
            x_dim=1, y_dim=2, set_x=set_x, set_y=set_y,
            value=lambda x, y: 0.0,
            grad_y=lambda x, y: np.zeros(2),
            subgrad_x=lambda x, y: np.zeros(1),
        )
        with pytest.raises(ValueError, match="mu <= L"):
            MinMinProblem(L=1.0, mu=2.0, **kwargs)
        with pytest.raises(ValueError, match="nonnegative"):
            MinMinProblem(L=1.0, mu=0.5, grad_norm_bound=-1.0, **kwargs)
        with pytest.raises(ValueError, match="dimensions"):
            MinMinProblem(x_dim=2, y_dim=2, set_x=set_x, set_y=set_y,
                          value=kwargs["value"], grad_y=kwargs["grad_y"],
                          subgrad_x=kwargs["subgrad_x"], L=1.0, mu=0.5)

    def test_component_mean_must_match_L(self):
        set_x = Box(np.array([-1.0]), np.array([1.0]))
        set_y = Ball(np.zeros(2), 1.0)
        comps = MinMinComponents(
            m=2, lipschitz=np.array([1.0, 3.0]),
            value=lambda i, x, y: 0.0,
            grad_y=lambda i, x, y: np.zeros(2),
            subgrad_x=lambda i, x, y: np.zeros(1),
        )
        with pytest.raises(ValueError, match="mean"):
            MinMinProblem(
                x_dim=1, y_dim=2, set_x=set_x, set_y=set_y,
                value=lambda x, y: 0.0, grad_y=lambda x, y: np.zeros(2),
                subgrad_x=lambda x, y: np.zeros(1),
                L=1.0, mu=0.5, components=comps,
            )
        with pytest.raises(ValueError, match="positive"):
            MinMinComponents(
                m=2, lipschitz=np.array([1.0, -3.0]),
                value=comps.value, grad_y=comps.grad_y, subgrad_x=comps.subgrad_x,
            )


class TestDeltaTranslation:
    def test_delta_formula(self):
        problem, _, _ = coupled_quadratic(mu=0.5)
        D = problem.diameter_y
        for eps in (1e-2, 1e-5):
            expected = (problem.L * D + problem.grad_norm_bound) * math.sqrt(2 * eps / 0.5)
            assert delta_from_eps(problem, eps) == pytest.approx(expected, rel=1e-15)
        assert delta_from_eps(problem, 0.0) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            delta_from_eps(problem, -1e-9)

    def test_eps_floor_keeps_delta_below_half_target(self):
        problem, _, _ = coupled_quadratic(mu=0.5)
        target = 1e-4
        floor = eps_floor(problem, target)
        denom = 2.0 * (problem.L * problem.diameter_y + problem.grad_norm_bound)
        assert floor == pytest.approx(0.5 * 0.5 * (target / denom) ** 2, rel=1e-14)
        assert delta_from_eps(problem, floor) == pytest.approx(target / 2.0, rel=1e-12)

    def test_subgradient_charging(self):
        # Plain problems charge one x-subgradient call, finite sums charge m.
        problem, _, _ = coupled_quadratic()
        ledger = OracleLedger()
        x = problem.set_x.center
        y = problem.set_y.center
        g = delta_subgradient(problem, x, y, ledger)
        assert ledger.grad_x_calls == 1
        assert_allclose(g, problem.subgrad_x(x, y), rtol=1e-15)

        finite, _, _ = coupled_quadratic(num_components=5)
        ledger = OracleLedger()
        delta_subgradient(finite, x, finite.set_y.center, ledger)
        assert ledger.grad_x_calls == 5


class TestInnerSolve:
    @pytest.mark.parametrize("selector,num_components", [
        ("restarted-fgm", None),
        ("restarted-fgm", 4),
        ("varag", 4),
    ])
    def test_reaches_requested_accuracy(self, selector, num_components):
        problem, _, coupling = coupled_quadratic(num_components=num_components)
        x = 0.3 * np.ones(problem.x_dim)
        eps = 1e-8
        y_tilde, value = inner_solve(problem, x, eps, selector=selector, seed=7)
        y_star = exact_inner_minimizer(problem, coupling, x)
        gap = value - problem.value(x, y_star)
        assert 0.0 <= gap <= eps
        # Strong convexity converts the certified gap into a distance bound.
        assert np.linalg.norm(y_tilde - y_star) <= math.sqrt(2 * eps / problem.mu) + 1e-12

    def test_warm_start_at_optimum_exits_after_one_check(self):
        problem, _, coupling = coupled_quadratic()
        x = np.array([0.1, -0.2])
        y_star = exact_inner_minimizer(problem, coupling, x)
        ledger = OracleLedger()
        y_tilde, _ = inner_solve(problem, x, 1e-10, ledger=ledger, y_start=y_star)
        assert ledger.grad_y_calls == 1  # the single certificate gradient
        assert_allclose(y_tilde, y_star, rtol=1e-15)

    def test_varag_certificate_reuses_anchor_gradient(self):
        problem, _, coupling = coupled_quadratic(num_components=4)
        x = np.array([0.1, -0.2])
        y_star = exact_inner_minimizer(problem, coupling, x)
        ledger = OracleLedger()
        inner_solve(problem, x, 1e-10, selector="varag", ledger=ledger, y_start=y_star)
        # One epoch-opening full pass (m = 4) certifies; no inner steps run.
        assert ledger.grad_y_calls == 4

    @pytest.mark.parametrize("selector,num_components,first_check", [
        ("restarted-fgm", None, 1),
        ("varag", 4, 4),
    ])
    def test_measured_gap_stops_on_gradient_in_hand(self, selector, num_components, first_check):
        # At the start point the certificate is far above eps, but a
        # delta_target just above the FW gap there ends the solve on the
        # gradient the first check evaluates, at no extra cost.
        problem, _, _ = coupled_quadratic(num_components=num_components)
        x = np.array([0.1, -0.2])
        y0 = problem.set_y.center
        g0 = problem.grad_y(x, y0)
        assert strong_convexity_gap_bound(problem.set_y, problem.mu, y0, g0) > 1e-10
        gap0 = ball_fw_gap(problem.set_y, y0, g0)
        ledger = OracleLedger()
        y_tilde, _ = inner_solve(problem, x, 1e-10, selector=selector, ledger=ledger,
                                 delta_target=1.001 * gap0)
        assert ledger.grad_y_calls == first_check
        assert np.array_equal(y_tilde, y0)

        ledger = OracleLedger()
        inner_solve(problem, x, 1e-10, selector=selector, ledger=ledger,
                    delta_target=0.999 * gap0)
        assert ledger.grad_y_calls > first_check

    def test_budget_cap_on_gradient_spend(self):
        problem, _, _ = coupled_quadratic()
        x = np.zeros(2)
        ledger = OracleLedger()
        inner_solve(problem, x, 1e-12, ledger=ledger, max_grad_y=50)
        # Pre-checked restart blocks plus at most one certificate gradient.
        assert ledger.grad_y_calls <= 51

        finite, _, _ = coupled_quadratic(num_components=4)
        ledger = OracleLedger()
        inner_solve(finite, x, 1e-12, selector="varag", ledger=ledger, max_grad_y=50)
        assert ledger.grad_y_calls <= 50 + 4 + 1

    @staticmethod
    def _logreg_counting_gradients(components: bool):
        """60x20 synthetic logistic problem (d=3); grad_y calls are counted."""
        problem = make_logreg_minmin(make_synthetic_classification(60, 20, seed=0), 3, 0.005)
        calls = [0]
        grad_y = problem.grad_y

        def counting(x, y):
            calls[0] += 1
            return grad_y(x, y)

        problem = dataclasses.replace(
            problem, grad_y=counting, components=problem.components if components else None
        )
        return problem, calls

    def test_fgm_budget_holds_without_ledger(self):
        # Without a ledger the spend used to read 0, so later restart blocks
        # ran past max_grad_y (411 gradients against 247 with a ledger).
        results = []
        for ledger in (OracleLedger(), None):
            problem, calls = self._logreg_counting_gradients(components=False)
            y, value = inner_solve(problem, np.zeros(3), 1e-12, ledger=ledger, max_grad_y=300)
            results.append((y, value, calls[0]))
            if ledger is not None:
                assert ledger.grad_y_calls == calls[0] == 247
        (y_ref, value_ref, calls_ref), (y, value, calls) = results
        assert calls == calls_ref
        assert np.array_equal(y, y_ref)
        assert repr(value) == repr(value_ref)

    def test_varag_budget_holds_without_ledger(self):
        # Without a ledger the budget never counted as hit, so the run went on
        # to the epoch cap and raised InnerStagnationError.
        problem, _ = self._logreg_counting_gradients(components=True)
        ledger = OracleLedger()
        y_ref, value_ref = inner_solve(problem, np.zeros(3), 1e-12, selector="varag",
                                       ledger=ledger, max_grad_y=500)
        assert ledger.grad_y_calls == 546
        y, value = inner_solve(problem, np.zeros(3), 1e-12, selector="varag", max_grad_y=500)
        assert np.array_equal(y, y_ref)
        assert repr(value) == repr(value_ref)

    def test_zero_budget_is_a_no_op_for_varag(self):
        problem, _, _ = coupled_quadratic(num_components=4)
        ledger = OracleLedger()
        y_start = problem.set_y.center + 0.5
        y_tilde, _ = inner_solve(problem, np.zeros(2), 1e-10, selector="varag",
                                 ledger=ledger, y_start=y_start, max_grad_y=0)
        assert ledger.grad_y_calls == 0
        assert_allclose(y_tilde, y_start, rtol=1e-15)

    def test_validation(self):
        problem, _, _ = coupled_quadratic()
        with pytest.raises(ValueError, match="eps_inner"):
            inner_solve(problem, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="selector"):
            inner_solve(problem, np.zeros(2), 1e-6, selector="sgd")
        far = problem.set_x.center + 100.0
        with pytest.raises(ValueError, match="outside"):
            inner_solve(problem, far, 1e-6)
        with pytest.raises(ValueError, match="finite-sum"):
            inner_solve(problem, np.zeros(2), 1e-6, selector="varag")

    def test_stagnation_raises_when_oracle_is_not_a_gradient(self):
        # A rotational field K*R*y (R = 90-degree rotation) is monotone but
        # integrates to no function: iterates spiral instead of converging, so
        # the gap certificate can never drop and the epoch cap must trip.
        K = 50.0
        rot_matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
        rot = lambda y: K * (rot_matrix @ y)
        comps = MinMinComponents(
            m=2, lipschitz=np.array([K, K]),
            value=lambda i, x, y: 0.0,
            grad_y=lambda i, x, y: rot(y),
            subgrad_x=lambda i, x, y: np.zeros(1),
        )
        problem = MinMinProblem(
            x_dim=1, y_dim=2,
            set_x=Box(np.array([-1.0]), np.array([1.0])),
            set_y=Ball(np.array([2.0, 0.0]), 5.0),  # center off the fixed point
            value=lambda x, y: 0.0,
            grad_y=lambda x, y: rot(y),
            subgrad_x=lambda x, y: np.zeros(1),
            L=K, mu=1.0, components=comps,
        )
        with pytest.raises(InnerStagnationError, match="certificate"):
            inner_solve(problem, np.zeros(1), 1e-3, selector="varag",
                        y_start=np.array([1.0, 0.0]))
        # Through the driver the failure reports which outer iteration died.
        with pytest.raises(InnerStagnationError, match="outer iteration 0"):
            solve_minmin(problem, MinMinConfig(target_epsilon=1e-3, inner="varag"))

    @pytest.mark.parametrize("num_components", [None, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_failure_in_second_block_charges_exactly_the_evaluated_gradients(
        self, num_components, k
    ):
        # F(x, y) = 0.5 * sum_j D_j (y_j - x_j)^2 with L/mu = 40, so one
        # restart block cannot certify 1e-14 and a second block runs.
        diag = np.linspace(0.5, 20.0, 4)
        block = math.ceil(4.0 * math.sqrt(20.0 / 0.5))
        # Entry certificate, block 1, its certificate, then step k of block 2.
        failing_call = 1 + block + 1 + k
        evaluated = []

        def grad_y(x, y):
            evaluated.append(1)
            g = diag * (y - x)
            return np.full_like(g, np.nan) if len(evaluated) == failing_call else g

        comps = None
        if num_components is not None:
            comps = MinMinComponents(
                m=num_components, lipschitz=np.full(num_components, 20.0),
                value=lambda i, x, y: 0.0,
                grad_y=lambda i, x, y: diag * (y - x),
                subgrad_x=lambda i, x, y: diag * (x - y),
            )
        problem = MinMinProblem(
            x_dim=4, y_dim=4,
            set_x=Box(-np.ones(4), np.ones(4)), set_y=Ball(np.zeros(4), 3.0),
            value=lambda x, y: 0.5 * float(diag @ (y - x) ** 2),
            grad_y=grad_y, subgrad_x=lambda x, y: diag * (x - y),
            L=20.0, mu=0.5, components=comps,
        )
        ledger = OracleLedger()
        with pytest.raises(NumericFailureError) as info:
            inner_solve(problem, np.array([0.9, -0.8, 0.7, -0.6]), 1e-14, ledger=ledger)
        assert info.value.step == k
        assert len(evaluated) == failing_call
        cost = num_components or 1
        assert ledger.grad_y_calls == cost * failing_call


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="target_epsilon"):
            MinMinConfig(target_epsilon=0.0)
        with pytest.raises(ValueError, match="inner"):
            MinMinConfig(target_epsilon=1e-6, inner="adam")
        with pytest.raises(ValueError, match="decay"):
            MinMinConfig(target_epsilon=1e-6, decay=1.0)
        with pytest.raises(ValueError, match="eps0"):
            MinMinConfig(target_epsilon=1e-6, eps0=-1.0)
        with pytest.raises(ValueError, match="budget"):
            MinMinConfig(target_epsilon=1e-6, grad_y_budget=0)


class TestDeltaSubgradientValidity:
    def test_linearization_error_bounded_by_delta(self):
        # f(x') >= f^(x) + <g, x' - x> - delta must hold for the inexact
        # subgradient produced by an eps-accurate inner solve.
        problem, _, coupling = coupled_quadratic(x_dim=2, y_dim=10, mu=0.8, seed=2)
        rng = seeded_rng(11)
        for eps in (1e-3, 1e-6):
            delta = delta_from_eps(problem, eps)
            worst = math.inf
            for _ in range(25):
                x = problem.set_x.project(rng.uniform(-3.0, 3.0, size=2))
                x_other = problem.set_x.project(rng.uniform(-3.0, 3.0, size=2))
                y_tilde, f_hat = inner_solve(problem, x, eps, seed=3)
                g = delta_subgradient(problem, x, y_tilde)
                f_other = problem.value(x_other, exact_inner_minimizer(problem, coupling, x_other))
                worst = min(worst, f_other - f_hat - g @ (x_other - x))
            assert worst >= -delta


class TestSolveMinMin:
    def test_converges_with_fgm_inner(self):
        problem, solution, _ = coupled_quadratic(x_dim=3, y_dim=12, mu=0.5, seed=1)
        config = MinMinConfig(target_epsilon=1e-8,
                              vaidya=VaidyaConfig(max_iterations=250))
        result = solve_minmin(problem, config)
        assert result.value - solution.value <= 1e-7
        assert np.linalg.norm(result.x - solution.x) <= 1e-2
        assert result.oracle_calls > 0

    def test_converges_with_varag_inner(self):
        problem, solution, _ = coupled_quadratic(
            x_dim=2, y_dim=10, mu=0.5, seed=2, num_components=5,
        )
        config = MinMinConfig(target_epsilon=1e-8, inner="varag",
                              vaidya=VaidyaConfig(max_iterations=200))
        result = solve_minmin(problem, config)
        assert result.value - solution.value <= 1e-6

    def test_stop_below_halts_outer_loop(self):
        problem, solution, _ = coupled_quadratic(x_dim=2, y_dim=10, mu=0.5, seed=3)
        config = MinMinConfig(target_epsilon=1e-10,
                              vaidya=VaidyaConfig(max_iterations=400))
        result = solve_minmin(problem, config, stop_below=solution.value + 1e-5)
        assert result.vaidya.stop_reason == "stop_condition"
        assert result.value <= solution.value + 1e-5

    def test_budget_limits_total_gradient_spend(self):
        problem, _, _ = coupled_quadratic(
            x_dim=2, y_dim=10, mu=0.5, seed=4, num_components=6,
        )
        for budget in (200, 1000):
            ledger = OracleLedger()
            config = MinMinConfig(target_epsilon=1e-10, inner="varag",
                                  grad_y_budget=budget)
            result = solve_minmin(problem, config, ledger=ledger)
            # Truncation may finish the step in flight: overshoot is below m.
            assert ledger.grad_y_calls <= budget + 6
            assert result.vaidya.stop_reason == "stop_condition"

    def test_history_tracks_eps_schedule_and_ledger(self):
        problem, _, _ = coupled_quadratic(x_dim=2, y_dim=8, mu=0.5, seed=5)
        ledger = OracleLedger()
        history = RunHistory(clock=None)
        config = MinMinConfig(target_epsilon=1e-6, decay=0.5,
                              vaidya=VaidyaConfig(max_iterations=40))
        solve_minmin(problem, config, ledger=ledger, history=history)
        records = history.records
        assert records[0].note == "initial"
        eps_values = [float(r.note.split("=")[1]) for r in records[1:]]
        floor = eps_floor(problem, 1e-6)
        eps0 = problem.mu * problem.diameter_y**2 / 8.0
        for k, eps in enumerate(eps_values):
            assert eps == pytest.approx(max(eps0 * 0.5**k, floor), rel=1e-3)
        assert records[-1].ledger.grad_y_calls == ledger.grad_y_calls
        assert ledger.matrix_inversions > 0

    def test_inversions_match_barrier_solve_count(self):
        problem, _, _ = coupled_quadratic(x_dim=2, y_dim=8, mu=0.5, seed=6)
        ledger = OracleLedger()
        config = MinMinConfig(target_epsilon=1e-6,
                              vaidya=VaidyaConfig(max_iterations=30))
        result = solve_minmin(problem, config, ledger=ledger)
        assert ledger.matrix_inversions == sum(
            it.barrier_solves for it in result.vaidya.iterations
        )

    def test_fgm_and_varag_agree_on_minimizer(self):
        problem, solution, _ = coupled_quadratic(
            x_dim=2, y_dim=10, mu=0.5, seed=7, num_components=5,
        )
        results = []
        for inner in ("restarted-fgm", "varag"):
            config = MinMinConfig(target_epsilon=1e-8, inner=inner,
                                  vaidya=VaidyaConfig(max_iterations=150))
            results.append(solve_minmin(problem, config))
        assert np.linalg.norm(results[0].x - results[1].x) <= 5e-2
        for result in results:
            assert abs(result.value - solution.value) <= 1e-5
