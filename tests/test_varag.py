"""Tests for the variance-reduced accelerated finite-sum solver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from minmin import (
    Ball,
    Box,
    FiniteSum,
    OracleLedger,
    RunHistory,
    build_schedule,
    make_finite_sum_quadratic,
    seeded_rng,
    varag_inner_prox,
    varag_run,
)


def toy_sum(m, dim, mu, L, seed, heterogeneity=0.5):
    """Finite-sum quadratic with known minimizer and nonuniform sampling."""
    return make_finite_sum_quadratic(m, dim, mu, L, seed, heterogeneity=heterogeneity)


class TestSchedule:
    def test_epoch_lengths_double_then_hold(self):
        sched = build_schedule(8, 1.0, 0.1, np.ones(8))
        assert sched.s0 == 4  # floor(log2 8) + 1
        assert [sched.inner_steps(s) for s in range(1, 7)] == [1, 2, 4, 8, 8, 8]

    def test_epoch_lengths_non_power_of_two(self):
        sched = build_schedule(10, 1.0, 0.0, np.ones(10))
        assert sched.s0 == 4
        assert [sched.inner_steps(s) for s in (1, 4, 5, 20)] == [1, 8, 8, 8]

    def test_ramp_up_alpha_is_half(self):
        sched = build_schedule(8, 1.0, 0.01, np.ones(8))
        for s in range(1, 5):
            assert sched.alpha(s) == 0.5
            assert sched.anchor_weight(s) == 0.5

    def test_tail_alpha_decays_then_floors(self):
        # mu = 0 removes the floor entirely: alpha_s = 2 / (s - s0 + 4).
        sched = build_schedule(8, 2.0, 0.0, np.full(8, 2.0))
        assert sched.alpha(5) == pytest.approx(2.0 / 5.0)
        assert sched.alpha(12) == pytest.approx(2.0 / 12.0)
        # With mu > 0 the decay stops at sqrt(m mu / (3 L)).
        floor = math.sqrt(8 * 0.03 / (3.0 * 2.0))
        sched = build_schedule(8, 2.0, 0.03, np.full(8, 2.0))
        assert sched.alpha(5) == pytest.approx(2.0 / 5.0)
        assert sched.alpha(200) == pytest.approx(floor)

    def test_gamma_alpha_product_is_fixed(self):
        # gamma_s * alpha_s * 3L == 1 links the step size to the momentum.
        for mu in (0.0, 0.05, 1.0):
            sched = build_schedule(8, 3.0, mu, np.full(8, 3.0))
            for s in (1, 3, 5, 9, 40):
                assert sched.gamma(s) * sched.alpha(s) * 3.0 * 3.0 == pytest.approx(
                    1.0, rel=1e-15
                )

    def test_probabilities_proportional_to_lipschitz(self):
        lip = np.array([1.0, 3.0, 6.0])
        sched = build_schedule(3, float(np.mean(lip)), 0.0, lip)
        assert_allclose(sched.probabilities, lip / 10.0, rtol=1e-15)
        assert sched.probabilities.sum() == pytest.approx(1.0)

    def test_flat_regime_ramp_up_and_mu_zero(self):
        sched = build_schedule(8, 1.0, 0.0, np.ones(8))
        assert all(sched.flat_weights(s) for s in (1, 4, 5, 100))
        # Strongly convex with m >= 3L/(4 mu): geometric right after the ramp.
        sched = build_schedule(8, 1.0, 1.0, np.ones(8))
        assert sched.flat_weights(4)
        assert not sched.flat_weights(5)

    def test_flat_regime_switch_point(self):
        # m < 3L/(4 mu): flat until s0 + sqrt(12 L / (m mu)) - 4.
        sched = build_schedule(8, 800.0, 1.0, np.full(8, 800.0))
        threshold = 4 + math.sqrt(12.0 * 800.0 / 8.0) - 4  # ~34.64
        assert sched.flat_weights(int(threshold))
        assert not sched.flat_weights(int(threshold) + 1)

    def test_alpha_continuous_at_regime_switch(self):
        # At the flat/geometric boundary the decaying alpha meets its floor,
        # so the step size does not jump when the weight profile changes.
        sched = build_schedule(8, 800.0, 1.0, np.full(8, 800.0))
        floor = math.sqrt(8 * 1.0 / (3.0 * 800.0))
        s_star = 4 + math.sqrt(12.0 * 800.0 / 8.0) - 4
        assert sched.alpha(math.ceil(s_star)) == pytest.approx(floor, rel=1e-12)

    def test_flat_theta_values(self):
        # m=8, L=2, mu=0, s=6: alpha=1/3, gamma=1/2, so the profile is
        # (gamma/alpha)(alpha+p) = 1.25 repeated, with gamma/alpha = 1.5 last.
        sched = build_schedule(8, 2.0, 0.0, np.full(8, 2.0))
        theta = sched.theta(6)
        assert theta.shape == (8,)
        assert_allclose(theta[:-1], 1.25, rtol=1e-15)
        assert theta[-1] == pytest.approx(1.5, rel=1e-15)

    def test_flat_theta_uniform_during_ramp_up(self):
        # While alpha = p = 1/2 the two flat values coincide: 1 - alpha - p = 0.
        sched = build_schedule(8, 1.0, 1.0, np.ones(8))
        theta = sched.theta(4)
        assert_allclose(theta, theta[0], rtol=1e-15)

    def test_geometric_theta_matches_growth_factors(self):
        # With alpha + p = 1 the recursive weights collapse to pure powers of
        # (1 + mu*gamma).
        sched = build_schedule(8, 1.0, 1.0, np.ones(8))
        assert not sched.flat_weights(5)
        assert sched.alpha(5) == 0.5  # floor sqrt(8/3) caps at 1/2
        growth = 1.0 + 1.0 * sched.gamma(5)
        assert_allclose(sched.theta(5), growth ** np.arange(8), rtol=1e-14)

    def test_geometric_theta_general_recursion(self):
        sched = build_schedule(8, 800.0, 1.0, np.full(8, 800.0))
        s = 40  # deep in the geometric regime
        assert not sched.flat_weights(s)
        T = sched.inner_steps(s)
        alpha, gamma, p = sched.alpha(s), sched.gamma(s), sched.anchor_weight(s)
        growth = (1.0 + 1.0 * gamma) ** np.arange(T + 1)
        expected = growth[:-1] - (1.0 - alpha - p) * growth[1:]
        expected[-1] = growth[T - 1]
        assert_allclose(sched.theta(s), expected, rtol=1e-14)
        assert np.all(sched.theta(s) > 0)

    def test_theta_positive_everywhere(self):
        for mu, L in [(0.0, 5.0), (0.2, 5.0), (5.0, 5.0)]:
            sched = build_schedule(12, L, mu, np.full(12, L))
            for s in range(1, 30):
                assert np.all(sched.theta(s) > 0), (mu, L, s)

    def test_epoch_index_starts_at_one(self):
        sched = build_schedule(4, 1.0, 0.0, np.ones(4))
        with pytest.raises(ValueError, match="epoch index"):
            sched.inner_steps(0)

    def test_build_schedule_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_schedule(0, 1.0, 0.0, np.ones(0))
        with pytest.raises(ValueError, match="nonnegative"):
            build_schedule(2, 1.0, -0.1, np.ones(2))
        with pytest.raises(ValueError, match="shape"):
            build_schedule(2, 1.0, 0.0, np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            build_schedule(2, 1.0, 0.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="mean"):
            build_schedule(2, 5.0, 0.0, np.array([1.0, 3.0]))
        with pytest.raises(ValueError, match="mu <= L"):
            build_schedule(2, 1.0, 2.0, np.ones(2))


class TestInnerProx:
    def test_matches_scalar_minimizer_on_interval(self):
        from scipy.optimize import minimize_scalar

        region = Box(np.array([-0.7]), np.array([0.9]))
        rng = seeded_rng(7)
        for _ in range(25):
            y_prev = rng.uniform(-0.7, 0.9)
            y_under = rng.uniform(-2.0, 2.0)
            grad = rng.uniform(-3.0, 3.0)
            gamma = rng.uniform(0.05, 2.0)
            mu = rng.uniform(0.0, 2.0)

            def objective(y):
                return (
                    gamma * (grad * y + 0.5 * mu * (y_under - y) ** 2)
                    + 0.5 * (y_prev - y) ** 2
                )

            best = minimize_scalar(
                objective, bounds=(-0.7, 0.9), method="bounded",
                options={"xatol": 1e-12},
            )
            got = varag_inner_prox(
                np.array([y_prev]), np.array([y_under]), np.array([grad]),
                gamma, mu, region,
            )
            assert_allclose(got[0], best.x, atol=1e-8)

    def test_unconstrained_step_without_strong_convexity(self):
        # mu = 0 in a huge ball reduces to a plain gradient step y_prev - gamma*G.
        region = Ball(np.zeros(3), 1e6)
        y_prev = np.array([0.5, -1.0, 2.0])
        grad = np.array([1.0, 2.0, -4.0])
        got = varag_inner_prox(y_prev, np.zeros(3), grad, 0.25, 0.0, region)
        assert_allclose(got, y_prev - 0.25 * grad, rtol=1e-15)

    def test_projection_clips_to_box(self):
        region = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        got = varag_inner_prox(
            np.array([0.9, 0.0]), np.zeros(2), np.array([-50.0, 0.0]),
            1.0, 0.0, region,
        )
        assert_allclose(got, [1.0, 0.0], rtol=1e-15)

    def test_validation(self):
        region = Ball(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="gamma"):
            varag_inner_prox(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, 0.0, region)
        with pytest.raises(ValueError, match="nonnegative"):
            varag_inner_prox(np.zeros(1), np.zeros(1), np.zeros(1), 1.0, -1.0, region)


class TestEstimator:
    def test_unbiased_under_nonuniform_sampling(self):
        # Enumerate the m outcomes of the sampled estimator
        #   (grad f_i(y_) - grad f_i(y~)) / (q_i m) + grad f(y~)
        # and check the q-weighted mean equals grad f(y_) exactly.
        built = toy_sum(m=6, dim=4, mu=0.5, L=20.0, seed=11)
        oracle = built.oracle
        sched = build_schedule(oracle.m, oracle.L, oracle.mu, oracle.lipschitz)
        q = sched.probabilities
        assert np.ptp(q) > 0  # heterogeneity must make sampling nonuniform
        rng = seeded_rng(5)
        for _ in range(10):
            y_under = rng.normal(size=4)
            y_tilde = rng.normal(size=4)
            g_tilde = oracle.gradient(y_tilde)
            mean = np.zeros(4)
            for i in range(oracle.m):
                outcome = (
                    oracle.component_gradient(i, y_under)
                    - oracle.component_gradient(i, y_tilde)
                ) / (q[i] * oracle.m) + g_tilde
                mean += q[i] * outcome
            assert_allclose(mean, oracle.gradient(y_under), rtol=1e-13, atol=1e-13)


class TestVaragRun:
    def test_fixed_seed_is_bitwise_reproducible(self):
        built = toy_sum(m=12, dim=6, mu=0.5, L=30.0, seed=2)
        anchors = []
        objectives = []
        for _ in range(2):
            history = RunHistory(clock=None)
            anchors.append(
                varag_run(built.oracle, built.region, built.region.center,
                          epochs=8, seed=99, history=history)
            )
            objectives.append([record.objective for record in history])
        assert_array_equal(anchors[0], anchors[1])
        assert objectives[0] == objectives[1]

    def test_different_seeds_differ(self):
        built = toy_sum(m=12, dim=6, mu=0.5, L=30.0, seed=2)
        a = varag_run(built.oracle, built.region, built.region.center, 6, seed=1)
        b = varag_run(built.oracle, built.region, built.region.center, 6, seed=2)
        assert not np.array_equal(a, b)

    def test_single_component_is_seed_independent(self):
        # m = 1 leaves nothing to sample, so the run is deterministic.
        built = toy_sum(m=1, dim=5, mu=1.0, L=1.0, seed=3, heterogeneity=0.0)
        a = varag_run(built.oracle, built.region, built.region.center, 10, seed=1)
        b = varag_run(built.oracle, built.region, built.region.center, 10, seed=1234)
        assert_array_equal(a, b)

    def test_converges_on_finite_sum_quadratic(self):
        built = toy_sum(m=20, dim=10, mu=1.0, L=50.0, seed=4)
        ledger = OracleLedger()
        anchor = varag_run(built.oracle, built.region, built.region.center,
                           epochs=30, seed=0, ledger=ledger)
        gap = built.oracle.value(anchor) - built.f_star
        assert gap <= 1e-8
        assert ledger.grad_y_calls > 0

    def test_ledger_charges_full_passes_plus_two_per_inner_step(self):
        built = toy_sum(m=5, dim=3, mu=0.2, L=10.0, seed=6)
        ledger = OracleLedger()
        history = RunHistory(clock=None)
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=4, seed=0, ledger=ledger, history=history)
        # m=5 gives s0=3: epoch lengths 1, 2, 4, 4.
        expected = 4 * 5 + 2 * (1 + 2 + 4 + 4)
        assert ledger.grad_y_calls == expected
        assert ledger.grad_x_calls == 0 and ledger.matrix_inversions == 0
        assert history.records[-1].ledger.grad_y_calls == expected

    def test_history_rows_and_notes(self):
        built = toy_sum(m=8, dim=3, mu=0.5, L=4.0, seed=8)
        history = RunHistory(clock=None)
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=3, seed=0, history=history)
        notes = [record.note for record in history]
        assert notes[0] == "initial"
        assert notes[1] == "epoch=1 T=1/1 weights=flat"
        assert notes[2] == "epoch=2 T=2/2 weights=flat"
        assert notes[3] == "epoch=3 T=4/4 weights=flat"
        assert len(history) == 4

    def test_history_must_start_empty(self):
        built = toy_sum(m=4, dim=2, mu=0.5, L=2.0, seed=9)
        history = RunHistory(clock=None)
        history.append(0, 1.0, OracleLedger())
        with pytest.raises(ValueError, match="empty"):
            varag_run(built.oracle, built.region, built.region.center,
                      epochs=1, seed=0, history=history)

    def test_validation(self):
        built = toy_sum(m=4, dim=2, mu=0.5, L=2.0, seed=9)
        with pytest.raises(ValueError, match="epochs"):
            varag_run(built.oracle, built.region, built.region.center, 0, seed=0)
        outside = built.region.center + 10.0 * built.region.diameter()
        with pytest.raises(ValueError, match="feasible"):
            varag_run(built.oracle, built.region, outside, 1, seed=0)


class TestBudget:
    def test_budget_respected_with_bounded_overshoot(self):
        built = toy_sum(m=10, dim=5, mu=0.5, L=20.0, seed=12)
        full_cost = OracleLedger()
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=12, seed=0, ledger=full_cost)
        for budget in (15, 40, 97, 200):
            ledger = OracleLedger()
            varag_run(built.oracle, built.region, built.region.center,
                      epochs=12, seed=0, ledger=ledger,
                      max_component_gradients=budget)
            assert ledger.grad_y_calls <= min(budget + 10 + 1, full_cost.grad_y_calls)
            # The budget is actually consumed unless the run finished first.
            if budget < full_cost.grad_y_calls:
                assert ledger.grad_y_calls >= budget

    def test_truncated_epoch_keeps_partial_average(self):
        # m=4 (s0=3, lengths 1,2,...): budget 4+2 + 4+2 cuts epoch 2 after one
        # of its two inner steps, so the anchor is the 1-step theta average.
        built = toy_sum(m=4, dim=3, mu=0.5, L=8.0, seed=13)
        history = RunHistory(clock=None)
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=5, seed=0, history=history, max_component_gradients=12)
        assert history.records[-1].note == "epoch=2 T=1/2 weights=flat"

    def test_wasted_full_pass_leaves_anchor_unchanged(self):
        # Budget dies right after an epoch-opening pass: no inner step runs,
        # the anchor cannot move, and the log says T=0.
        built = toy_sum(m=4, dim=3, mu=0.5, L=8.0, seed=13)
        history = RunHistory(clock=None)
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=5, seed=0, history=history, max_component_gradients=10)
        assert history.records[-1].note == "epoch=2 T=0/2 weights=flat"
        assert history.records[-1].objective == history.records[-2].objective

    def test_zero_remaining_budget_runs_nothing(self):
        built = toy_sum(m=4, dim=3, mu=0.5, L=8.0, seed=13)
        ledger = OracleLedger()
        anchor = varag_run(built.oracle, built.region, built.region.center,
                           epochs=5, seed=0, ledger=ledger,
                           max_component_gradients=0)
        assert ledger.grad_y_calls == 0
        assert_array_equal(anchor, built.region.center)


class TestStoppingHooks:
    def test_grad_stop_sees_anchor_gradient_at_no_extra_cost(self):
        built = toy_sum(m=6, dim=4, mu=0.5, L=12.0, seed=14)
        seen = []

        def grad_stop(anchor, gradient):
            seen.append((anchor.copy(), gradient.copy()))
            return True

        ledger = OracleLedger()
        anchor = varag_run(built.oracle, built.region, built.region.center,
                           epochs=7, seed=0, ledger=ledger, grad_stop=grad_stop)
        # Stopping on the first look costs exactly the one full pass.
        assert ledger.grad_y_calls == 6
        assert len(seen) == 1
        assert_array_equal(anchor, built.region.center)
        assert_array_equal(seen[0][0], built.region.center)
        assert_allclose(seen[0][1], built.oracle.gradient(built.region.center),
                        rtol=1e-15)

    def test_grad_stop_on_second_epoch(self):
        built = toy_sum(m=6, dim=4, mu=0.5, L=12.0, seed=14)
        calls = []

        def grad_stop(anchor, gradient):
            calls.append(anchor.copy())
            return len(calls) == 2

        ledger = OracleLedger()
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=7, seed=0, ledger=ledger, grad_stop=grad_stop)
        # m=6 gives T_1 = 1: pass + 1 inner step + the second pass.
        assert ledger.grad_y_calls == 6 + 2 + 6

    def test_stop_when_checks_each_epoch_anchor(self):
        built = toy_sum(m=6, dim=4, mu=0.5, L=12.0, seed=14)
        visited = []

        def stop_when(anchor):
            visited.append(anchor.copy())
            return len(visited) >= 2

        history = RunHistory(clock=None)
        varag_run(built.oracle, built.region, built.region.center,
                  epochs=9, seed=0, history=history, stop_when=stop_when)
        assert len(visited) == 2
        assert len(history) == 3  # initial + two epoch rows


# ---------------------------------------------------------------------------
# Reference copy of the Varag loop as it was before the per-epoch CDF draws:
# one rng.choice(m, p=q) per inner step and one ledger charge per gradient
# pair.  varag_run must reproduce it bit for bit.


def reference_varag_run(oracle, region, y0, epochs, seed, ledger, history,
                        max_component_gradients=None):
    schedule = build_schedule(oracle.m, oracle.L, oracle.mu, oracle.lipschitz)
    m, mu = schedule.m, schedule.mu
    q = schedule.probabilities
    rng = seeded_rng(seed)
    used = 0

    def charge(count):
        nonlocal used
        used += count
        ledger.add_grad_y(count)

    def exhausted():
        return max_component_gradients is not None and used >= max_component_gradients

    history.append(0, oracle.value(y0), ledger, note="initial")
    y_tilde = y0.copy()
    y_end = y0.copy()
    for s in range(1, epochs + 1):
        if exhausted():
            break
        g_tilde = oracle.gradient(y_tilde)
        charge(m)
        T = schedule.inner_steps(s)
        alpha = schedule.alpha(s)
        gamma = schedule.gamma(s)
        p = schedule.anchor_weight(s)
        thetas = schedule.theta(s)
        lift = 1.0 + mu * gamma
        denom = 1.0 + mu * gamma * (1.0 - alpha)
        y_t = y_end.copy()
        y_bar = y_tilde.copy()
        accum = np.zeros_like(y0)
        weight_sum = 0.0
        steps_done = 0
        for t in range(1, T + 1):
            if exhausted():
                break
            i = int(rng.choice(m, p=q))
            y_under = (lift * (1.0 - alpha - p) * y_bar + alpha * y_t + lift * p * y_tilde) / denom
            grad_est = (
                oracle.component_gradient(i, y_under) - oracle.component_gradient(i, y_tilde)
            ) / (q[i] * m) + g_tilde
            charge(2)
            y_t = varag_inner_prox(y_t, y_under, grad_est, gamma, mu, region)
            y_bar = (1.0 - alpha - p) * y_bar + alpha * y_t + p * y_tilde
            accum += thetas[t - 1] * y_bar
            weight_sum += thetas[t - 1]
            steps_done = t
        if steps_done:
            y_end = y_t
            y_tilde = accum / weight_sum
        profile = "flat" if schedule.flat_weights(s) else "geometric"
        history.append(s, oracle.value(y_tilde), ledger,
                       note=f"epoch={s} T={steps_done}/{T} weights={profile}")
    return y_tilde


class TestCdfDraws:
    @pytest.mark.parametrize("m", [1, 2, 7, 200])
    def test_searchsorted_reproduces_choice_and_rng_state(self, m):
        # The identity varag_run relies on, checked against this numpy.
        lip = seeded_rng(m).uniform(0.1, 5.0, size=m)
        q = build_schedule(m, float(np.mean(lip)), 0.0, lip).probabilities
        cdf = q.cumsum()
        cdf /= cdf[-1]
        one_by_one, at_once = seeded_rng(5), seeded_rng(5)
        for T in (1, 3, 64):
            expected = [int(one_by_one.choice(m, p=q)) for _ in range(T)]
            assert cdf.searchsorted(at_once.random(T), side="right").tolist() == expected
        assert one_by_one.bit_generator.state == at_once.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 7, 200])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_varag_run_matches_reference_loop_bitwise(self, m, truncate):
        built = toy_sum(m=m, dim=4, mu=0.5, L=20.0, seed=m, heterogeneity=0.5 if m > 1 else 0.0)
        schedule = build_schedule(m, built.oracle.L, built.oracle.mu, built.oracle.lipschitz)
        budget = None
        if truncate:
            # Three whole epochs, then the fourth cut after half its steps.
            half = max(1, schedule.inner_steps(4) // 2)
            budget = sum(m + 2 * schedule.inner_steps(s) for s in (1, 2, 3)) + m + 2 * half - 1
        runs = []
        for run in (varag_run, reference_varag_run):
            ledger, history = OracleLedger(), RunHistory(clock=None)
            anchor = run(built.oracle, built.region, built.region.center, 10 if truncate else 6,
                         seed=31, ledger=ledger, history=history,
                         max_component_gradients=budget)
            runs.append((anchor, ledger.snapshot(), history.records))
        (anchor, snapshot, records), (ref_anchor, ref_snapshot, ref_records) = runs
        assert np.array_equal(anchor, ref_anchor)
        assert snapshot == ref_snapshot
        assert records == ref_records
        if truncate and m > 1:
            assert records[-1].note.startswith(f"epoch=4 T={half}/{schedule.inner_steps(4)}")

    @pytest.mark.parametrize("failing_step", [1, 6])
    def test_step_that_raises_is_charged_like_the_reference(self, failing_step):
        # Inner steps reach the ledger once per epoch; a step that raises in
        # its projection has evaluated its two gradients and is charged.
        built = toy_sum(m=7, dim=4, mu=0.5, L=20.0, seed=7, heterogeneity=0.5)

        class FailingRegion:
            def __init__(self, region):
                self.region, self.calls = region, 0

            def contains(self, point, tol=1e-12):
                return self.region.contains(point, tol)

            def project(self, point):
                self.calls += 1
                if self.calls == failing_step:
                    raise RuntimeError("projection failed")
                return self.region.project(point)

        snapshots = []
        for run in (varag_run, reference_varag_run):
            ledger = OracleLedger()
            with pytest.raises(RuntimeError, match="projection failed"):
                run(built.oracle, FailingRegion(built.region), built.region.center, 6,
                    seed=31, ledger=ledger, history=RunHistory(clock=None))
            snapshots.append(ledger.snapshot())
        assert snapshots[0] == snapshots[1]
