"""Tests for feasible sets, RNG seeding, oracle accounting and run histories."""

import io
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from minmin import (
    Ball,
    Box,
    FiniteSum,
    LedgerSnapshot,
    NumericFailureError,
    OracleLedger,
    RunHistory,
    seeded_rng,
)
from oracles import CountingOracle, FunctionOracle


class TestBall:
    def test_projection_inside_is_identity(self):
        ball = Ball(np.zeros(3), 2.0)
        p = np.array([0.5, -1.0, 0.3])
        assert_array_equal(ball.project(p), p)

    def test_projection_outside_lands_on_sphere(self):
        ball = Ball(np.array([1.0, 0.0]), 1.0)
        proj = ball.project(np.array([4.0, 0.0]))
        assert_allclose(proj, [2.0, 0.0])
        assert_allclose(np.linalg.norm(proj - ball.center), ball.radius)

    def test_diameter_and_contains(self):
        ball = Ball(np.zeros(2), 3.0)
        assert ball.diameter() == 6.0
        assert ball.contains(np.array([3.0, 0.0]))
        assert not ball.contains(np.array([3.1, 0.0]))

    def test_bounding_box_contains_sphere_points(self):
        ball = Ball(np.array([1.0, -2.0, 0.5]), 1.7)
        box = ball.bounding_box()
        rng = seeded_rng(0)
        for _ in range(50):
            direction = rng.normal(size=3)
            point = ball.center + 1.7 * direction / np.linalg.norm(direction)
            assert box.contains(point, tol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Ball(np.zeros((2, 2)), 1.0)
        ball = Ball(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            ball.project(np.zeros(3))

    @pytest.mark.parametrize("point,message", [
        (np.zeros(3), r"point has dimension 3, set has 2"),
        (np.zeros((2, 1)), r"point must be one-dimensional, got shape \(2, 1\)"),
        (1.0, r"point must be one-dimensional, got shape \(\)"),
    ])
    def test_wrong_shape_messages(self, point, message):
        ball = Ball(np.zeros(2), 1.0)
        for method in (ball.project, ball.contains):
            with pytest.raises(ValueError, match=message):
                method(point)

    @pytest.mark.parametrize("n", [1, 5, 50, 500])
    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_bitwise_equal_to_linalg_norm_formula(self, n, scale):
        # Reference: the np.linalg.norm formula the projection used before it
        # switched to sqrt(v @ v).
        def reference_project(ball, p):
            offset = p - ball.center
            norm = float(np.linalg.norm(offset))
            return p.copy() if norm <= ball.radius else ball.center + offset * (ball.radius / norm)

        rng = seeded_rng(n)
        for _ in range(20):
            ball = Ball(scale * rng.normal(size=n), scale * rng.uniform(0.5, 2.0))
            direction = rng.normal(size=n)
            unit = direction / np.linalg.norm(direction)
            on_sphere = ball.center + ball.radius * unit
            for p in (ball.center + 0.5 * ball.radius * unit,  # inside
                      on_sphere, ball.project(on_sphere),  # on (to rounding)
                      ball.center + 3.0 * ball.radius * unit):  # outside
                assert ball.project(p).tobytes() == reference_project(ball, p).tobytes()
                distance = float(np.linalg.norm(p - ball.center))
                for tol in (0.0, 1e-12, 1e-9):
                    assert ball.contains(p, tol) == (
                        distance <= ball.radius + tol * (1.0 + ball.radius)
                    )


class TestBox:
    def test_projection_is_clipping(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert_array_equal(box.project(np.array([5.0, -3.0])), [1.0, 0.0])

    def test_center_and_diameter(self):
        box = Box(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert_array_equal(box.center, [1.0, 1.0])
        assert_allclose(box.diameter(), 2.0 * np.sqrt(2.0))

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_bounding_box_is_self(self):
        box = Box(np.array([-1.0]), np.array([1.0]))
        assert box.bounding_box() is box


@pytest.mark.parametrize("region", [
    Ball(np.array([0.3, -0.7, 1.1]), 1.4),
    Box(np.array([-2.0, -1.0, 0.0]), np.array([1.0, 3.0, 0.5])),
])
def test_projection_properties(region):
    # Idempotence, feasibility and nonexpansiveness on random pairs.
    rng = seeded_rng(7)
    for _ in range(200):
        u = 5.0 * rng.normal(size=3)
        v = 5.0 * rng.normal(size=3)
        pu, pv = region.project(u), region.project(v)
        assert region.contains(pu, tol=1e-9)
        assert_allclose(region.project(pu), pu, atol=1e-12)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("region", [
    Ball(np.array([1.0, 2.0]), 0.8),
    Box(np.array([-1.0, 0.5]), np.array([0.2, 3.0])),
])
def test_diameter_dominates_sampled_distances(region):
    # The declared diameter must bound the distance of any two feasible points;
    # rejection-sample pairs inside and check.
    rng = seeded_rng(11)
    best = 0.0
    box = region.bounding_box()
    for _ in range(2000):
        p = rng.uniform(box.lower, box.upper)
        q = rng.uniform(box.lower, box.upper)
        if region.contains(p) and region.contains(q):
            best = max(best, float(np.linalg.norm(p - q)))
    assert best <= region.diameter() + 1e-12
    assert best > 0.5 * region.diameter()  # the bound is not wildly loose


class TestSupport:
    """support(v) = max over the set of v @ y, against brute force."""

    def test_ball_matches_explicit_maximizer_and_samples(self):
        rng = seeded_rng(21)
        ball = Ball(np.array([0.4, -1.2, 2.0]), 1.7)
        for _ in range(10):
            v = rng.normal(size=3)
            support = ball.support(v)
            maximizer = ball.center + ball.radius * v / np.linalg.norm(v)
            assert support == pytest.approx(float(v @ maximizer), rel=1e-14, abs=1e-14)
            directions = rng.normal(size=(1000, 3))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = ball.radius * rng.uniform(0.0, 1.0, size=(1000, 1)) ** (1.0 / 3.0)
            samples = ball.center + radii * directions
            values = samples @ v
            assert values.max() <= support + 1e-12
            assert values.max() >= support - 0.2 * ball.radius * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_box_matches_best_vertex(self, n):
        rng = seeded_rng(22 + n)
        lower = rng.uniform(-3.0, 0.0, size=n)
        box = Box(lower, lower + rng.uniform(0.1, 2.0, size=n))
        vertices = np.array([
            np.where(bits, box.upper, box.lower)
            for bits in itertools.product([False, True], repeat=n)
        ])
        for _ in range(20):
            v = rng.normal(size=n)
            v[rng.uniform(size=n) < 0.2] = 0.0
            best = float((vertices @ v).max())
            assert box.support(v) == pytest.approx(best, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("region", [
        Ball(np.array([1.0, -2.0]), 0.5),
        Box(np.array([-1.0, 0.5]), np.array([0.2, 3.0])),
    ])
    def test_zero_direction_gives_zero(self, region):
        assert region.support(np.zeros(2)) == 0.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Ball(np.zeros(2), 1.0).support(np.ones(3))


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = seeded_rng(42).normal(size=10)
        b = seeded_rng(42).normal(size=10)
        assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = seeded_rng(1).normal(size=10)
        b = seeded_rng(2).normal(size=10)
        assert np.any(a != b)

    def test_choice_stream_pinned(self):
        # Known-good draw count for the documented generator; a change here
        # means the underlying bit stream changed and all seeded results move.
        rng = seeded_rng(12345)
        draws = rng.choice(2, size=100000, p=[0.5, 0.5])
        assert int(np.sum(draws == 0)) == 49969

    def test_degenerate_weights(self):
        rng = seeded_rng(0)
        draws = rng.choice(3, size=100, p=[0.0, 1.0, 0.0])
        assert_array_equal(draws, np.ones(100, dtype=draws.dtype))


class TestOracleLedger:
    def test_counts_accumulate(self):
        ledger = OracleLedger()
        ledger.add_grad_x()
        ledger.add_grad_y(5)
        ledger.add_inversion(2)
        ledger.add_grad_y()
        assert ledger.snapshot() == LedgerSnapshot(1, 6, 2)

    def test_negative_counts_rejected(self):
        ledger = OracleLedger()
        for bump in (ledger.add_grad_x, ledger.add_grad_y, ledger.add_inversion):
            with pytest.raises(ValueError):
                bump(-1)

    def test_snapshot_is_detached(self):
        ledger = OracleLedger()
        snap = ledger.snapshot()
        ledger.add_grad_y(3)
        assert snap.grad_y_calls == 0
        assert ledger.snapshot().grad_y_calls == 3


def test_counting_oracle_charges_per_gradient():
    ledger = OracleLedger()
    base = FunctionOracle(2, lambda y: float(y @ y), lambda y: 2.0 * y)
    counted = CountingOracle(base, ledger, cost=7)
    counted.value(np.ones(2))  # values are free
    assert ledger.grad_y_calls == 0
    g = counted.gradient(np.array([1.0, -1.0]))
    assert_array_equal(g, [2.0, -2.0])
    counted.gradient(np.zeros(2))
    assert ledger.grad_y_calls == 14
    with pytest.raises(ValueError):
        CountingOracle(base, ledger, cost=0)


class TestFiniteSum:
    def _sum(self, m=4, dim=3, with_batch=False):
        centers = np.arange(m * dim, dtype=float).reshape(m, dim)
        kwargs = {}
        if with_batch:
            kwargs["batch_value"] = lambda y: float(
                np.mean(0.5 * np.sum((y[None, :] - centers) ** 2, axis=1))
            )
            kwargs["batch_gradient"] = lambda y: y - centers.mean(axis=0)
        return FiniteSum(
            dim,
            lambda i, y: 0.5 * float((y - centers[i]) @ (y - centers[i])),
            lambda i, y: y - centers[i],
            lipschitz=np.ones(m),
            mu=1.0,
            **kwargs,
        )

    def test_aggregates_are_component_means(self):
        fs = self._sum()
        y = np.array([1.0, -2.0, 0.5])
        expected_value = np.mean([fs.component_value(i, y) for i in range(fs.m)])
        expected_grad = np.mean([fs.component_gradient(i, y) for i in range(fs.m)], axis=0)
        assert_allclose(fs.value(y), expected_value, rtol=1e-14)
        assert_allclose(fs.gradient(y), expected_grad, rtol=1e-14)

    def test_batch_path_agrees_with_loop(self):
        loop, batch = self._sum(), self._sum(with_batch=True)
        y = np.array([0.2, 0.4, -0.9])
        assert_allclose(batch.value(y), loop.value(y), rtol=1e-13)
        assert_allclose(batch.gradient(y), loop.gradient(y), rtol=1e-13)

    def test_l_is_mean_of_component_constants(self):
        fs = FiniteSum(1, lambda i, y: 0.0, lambda i, y: y, lipschitz=[1.0, 3.0, 8.0])
        assert fs.m == 3
        assert fs.L == 4.0

    def test_validation(self):
        grad = lambda i, y: y
        with pytest.raises(ValueError):
            FiniteSum(1, lambda i, y: 0.0, grad, lipschitz=[])
        with pytest.raises(ValueError):
            FiniteSum(1, lambda i, y: 0.0, grad, lipschitz=[1.0, -1.0])
        with pytest.raises(ValueError):
            FiniteSum(1, lambda i, y: 0.0, grad, lipschitz=[1.0], mu=-0.1)


class TestRunHistory:
    def _ledger_at(self, gx, gy, inv):
        return LedgerSnapshot(gx, gy, inv)

    def test_csv_golden(self):
        history = RunHistory(clock=None)
        history.append(0, 1.5, self._ledger_at(0, 0, 0), note="initial")
        history.append(1, 0.25, self._ledger_at(2, 10, 1))
        history.append(5, 1e-07, self._ledger_at(4, 30, 3))
        buffer = io.StringIO()
        history.write_csv(buffer)
        assert buffer.getvalue() == (
            "step,objective,grad_x_calls,grad_y_calls,inversions,time_s\n"
            "0,1.5,0,0,0,0.0\n"
            "1,0.25,2,10,1,0.0\n"
            "5,1e-07,4,30,3,0.0\n"
        )

    def test_csv_file_roundtrip(self, tmp_path):
        history = RunHistory(clock=None)
        history.append(0, 0.1, self._ledger_at(0, 0, 0))
        path = tmp_path / "history.csv"
        history.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF only, also on Windows-style writers
        assert raw.decode("utf-8").splitlines()[0] == (
            "step,objective,grad_x_calls,grad_y_calls,inversions,time_s"
        )

    def test_steps_must_increase(self):
        history = RunHistory(clock=None)
        history.append(3, 0.0, self._ledger_at(0, 0, 0))
        with pytest.raises(ValueError):
            history.append(3, 0.0, self._ledger_at(0, 1, 0))

    def test_ledger_snapshots_must_be_monotone(self):
        history = RunHistory(clock=None)
        history.append(0, 0.0, self._ledger_at(0, 5, 0))
        with pytest.raises(ValueError):
            history.append(1, 0.0, self._ledger_at(0, 4, 0))

    def test_accepts_live_ledger(self):
        ledger = OracleLedger()
        history = RunHistory(clock=None)
        ledger.add_grad_y(4)
        record = history.append(0, 0.0, ledger)
        assert record.ledger == LedgerSnapshot(0, 4, 0)
        assert record.time_s == 0.0

    def test_wall_clock_is_nondecreasing(self):
        history = RunHistory()  # real clock
        r0 = history.append(0, 0.0, self._ledger_at(0, 0, 0))
        r1 = history.append(1, 0.0, self._ledger_at(0, 0, 0))
        assert 0.0 <= r0.time_s <= r1.time_s


def test_numeric_failure_carries_step():
    err = NumericFailureError("gradient is not finite", step=17)
    assert err.step == 17
    assert "step 17" in str(err)
