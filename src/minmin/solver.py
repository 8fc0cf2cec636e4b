"""Two-level min-min driver.

Solves min_{x in Q_x} min_{y in Q_y} F(x, y) where F(x, .) is mu-strongly
convex and L-smooth (high-dimensional y) and F(., y) is merely convex
(low-dimensional x).  The outer loop is Vaidya's cutting-plane method driven by
delta-subgradients: if y~ solves the inner problem to accuracy eps, then
grad_x F(x, y~) is a delta-subgradient of f(x) = min_y F(x, y) with

    delta = (L*D + G) * sqrt(2*eps/mu),

where D = diam(Q_y) and G bounds ||grad_y F(x, y(x))||.  Inner solves use the
restarted fast gradient method or Varag and are warm-started along the outer
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import FiniteSum, OracleLedger, RunHistory
from .fgm import RestartConfig, fgm_run
from .vaidya import VaidyaConfig, VaidyaResult, vaidya_minimize
from .varag import build_schedule, varag_run

__all__ = [
    "InnerStagnationError",
    "MinMinComponents",
    "MinMinConfig",
    "MinMinProblem",
    "MinMinResult",
    "delta_from_eps",
    "delta_subgradient",
    "inner_solve",
    "solve_minmin",
    "strong_convexity_gap_bound",
]

INNER_SELECTORS = ("restarted-fgm", "varag")


class InnerStagnationError(RuntimeError):
    """An inner solve exhausted its iteration cap without certifying accuracy."""


@dataclass(frozen=True)
class MinMinComponents:
    """Finite-sum decomposition F = (1/m) * sum_i F_i with y-smoothness bounds."""

    m: int
    lipschitz: np.ndarray
    value: Callable[[int, np.ndarray, np.ndarray], float]
    grad_y: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    subgrad_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        lip = np.asarray(self.lipschitz, dtype=float)
        object.__setattr__(self, "lipschitz", lip)
        if lip.shape != (self.m,) or np.any(lip <= 0):
            raise ValueError("lipschitz must be m positive constants")


@dataclass
class MinMinProblem:
    """Joint objective with oracle access split by block.

    ``L``/``mu`` are the smoothness / strong-convexity constants of F(x, .)
    on Q_y; ``grad_norm_bound`` (G) bounds ||grad_y F(x, y(x))|| over Q_x, with
    y(x) the inner minimizer.  When a finite-sum decomposition is present,
    ``L`` must equal the mean of the component constants.
    """

    x_dim: int
    y_dim: int
    set_x: object
    set_y: object
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    subgrad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L: float
    mu: float
    grad_norm_bound: float = 0.0
    components: MinMinComponents | None = None

    def __post_init__(self):
        if self.set_x.dim != self.x_dim or self.set_y.dim != self.y_dim:
            raise ValueError("set dimensions must match x_dim / y_dim")
        if not 0 < self.mu <= self.L:
            raise ValueError("need 0 < mu <= L")
        if self.grad_norm_bound < 0:
            raise ValueError("grad_norm_bound must be nonnegative")
        if self.components is not None:
            mean_l = float(np.mean(self.components.lipschitz))
            if not math.isclose(self.L, mean_l, rel_tol=1e-8, abs_tol=1e-12):
                raise ValueError("L must equal the mean component Lipschitz constant")

    @property
    def diameter_y(self) -> float:
        return self.set_y.diameter()


def strong_convexity_gap_bound(region, mu: float, y, gradient) -> float:
    """Certified optimality gap for a mu-strongly convex objective on ``region``.

    Strong convexity gives f(z) >= f(y) + <g, z - y> + mu/2*||z - y||^2, hence
    f(y) - f* <= max_{z in region} [<g, y - z> - mu/2*||y - z||^2].  Writing
    w = y - z, the maximum sits at the projection of g/mu onto {y - z}, which
    is closed-form for any projectable region.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    y = np.asarray(y, dtype=float)
    g = np.asarray(gradient, dtype=float)
    w = y - region.project(y - g / mu)
    return float(g @ w - 0.5 * mu * (w @ w))


class _FixedXGradient:
    """``gradient(y) = grad_y F(x, y)`` for a frozen x, counting evaluations.

    Callers pass float vectors and convert the result themselves (``fgm_run``
    and ``strong_convexity_gap_bound`` both do), so nothing is converted here.
    """

    __slots__ = ("_grad_y", "_x", "evaluated")

    def __init__(self, problem: MinMinProblem, x: np.ndarray):
        self._grad_y = problem.grad_y
        self._x = x
        self.evaluated = 0

    def gradient(self, y):
        self.evaluated += 1
        return self._grad_y(self._x, y)


def _fixed_x_finite_sum(problem: MinMinProblem, x: np.ndarray) -> FiniteSum:
    comps = problem.components
    return FiniteSum(
        problem.y_dim,
        lambda i, y: comps.value(i, x, y),
        lambda i, y: comps.grad_y(i, x, y),
        comps.lipschitz,
        mu=problem.mu,
        batch_value=lambda y: problem.value(x, y),
        batch_gradient=lambda y: problem.grad_y(x, y),
    )


def _varag_epoch_cap(schedule, eps_inner: float, diameter: float) -> int:
    """Generous upper bound on epochs needed to certify ``eps_inner``."""
    gap0 = 1.0 + 0.5 * schedule.L * diameter * diameter
    log_term = max(1.0, math.log(gap0 / eps_inner))
    rate = 4.0 + 4.0 * math.sqrt(3.0 * schedule.L / (schedule.m * schedule.mu))
    return schedule.s0 + 8 + math.ceil(rate * log_term)


def inner_solve(
    problem: MinMinProblem,
    x,
    eps_inner: float,
    selector: str = "restarted-fgm",
    seed: int = 0,
    ledger: OracleLedger | None = None,
    y_start=None,
    max_grad_y: int | None = None,
) -> tuple[np.ndarray, float]:
    """Solve min_y F(x, y) to accuracy ``eps_inner``; returns (y~, F(x, y~)).

    Work stops as soon as the strong-convexity certificate drops below
    ``eps_inner``, which makes warm starts pay off; the FGM path pays one
    gradient per check while the Varag path reuses each epoch's anchor
    gradient so checks are free.  The FGM path additionally caps at the
    restart-count guarantee with R = D/sqrt(2); the Varag path raises
    InnerStagnationError if a generous epoch cap passes uncertified.
    ``max_grad_y`` bounds the gradient budget (used for end-of-run
    truncation; the accuracy contract is then waived); without a ``ledger``
    the spend is counted on a private one, so the budget holds either way.
    The FGM path charges the ledger once per restart block, with exactly the
    gradients evaluated, also when the block raises.
    """
    if eps_inner <= 0:
        raise ValueError("eps_inner must be positive")
    if selector not in INNER_SELECTORS:
        raise ValueError(f"selector must be one of {INNER_SELECTORS}")
    x = np.asarray(x, dtype=float)
    if not problem.set_x.contains(x, tol=1e-9):
        raise ValueError("x lies outside Q_x")
    region = problem.set_y
    y = np.asarray(y_start, dtype=float).copy() if y_start is not None else region.center.copy()
    mu, L = problem.mu, problem.L
    ledger = ledger if ledger is not None else OracleLedger()
    start_calls = ledger.grad_y_calls

    def spent() -> int:
        return ledger.grad_y_calls - start_calls

    if selector == "restarted-fgm":
        cost = problem.components.m if problem.components is not None else 1
        oracle = _FixedXGradient(problem, x)

        def charge() -> None:
            """Charge the gradients evaluated since the last charge."""
            ledger.add_grad_y(cost * oracle.evaluated)
            oracle.evaluated = 0

        def certificate(point: np.ndarray) -> float:
            return strong_convexity_gap_bound(region, mu, point, oracle.gradient(point))

        config = RestartConfig(L=L, mu=mu, epsilon=eps_inner, R=problem.diameter_y / math.sqrt(2.0))
        steps = config.steps_per_restart
        # One ledger charge per restart block (its steps and its certificate);
        # the ``finally`` keeps the charge exact when a block raises.
        try:
            if certificate(y) > eps_inner:
                for _ in range(config.num_restarts):
                    charge()
                    if max_grad_y is not None and spent() + cost * steps > max_grad_y:
                        break
                    y = fgm_run(oracle, region, y, L, steps)
                    if certificate(y) <= eps_inner:
                        break
        finally:
            charge()
    else:
        if problem.components is None:
            raise ValueError("the varag selector needs a finite-sum decomposition")
        finite_sum = _fixed_x_finite_sum(problem, x)
        schedule = build_schedule(finite_sum.m, finite_sum.L, mu, finite_sum.lipschitz)
        certified = False

        def grad_stop(anchor: np.ndarray, gradient: np.ndarray) -> bool:
            nonlocal certified
            certified = strong_convexity_gap_bound(region, mu, anchor, gradient) <= eps_inner
            return certified

        # +1 epoch so the last in-cap anchor still gets a certificate check.
        cap = _varag_epoch_cap(schedule, eps_inner, problem.diameter_y) + 1
        remaining = None if max_grad_y is None else max(0, max_grad_y - spent())
        if remaining is None or remaining > 0:
            y = varag_run(
                finite_sum, region, y, cap, seed, ledger,
                max_component_gradients=remaining, grad_stop=grad_stop, schedule=schedule,
            )
        budget_hit = max_grad_y is not None and spent() >= max_grad_y
        if not certified and not budget_hit:
            raise InnerStagnationError(
                f"gap certificate stayed above {eps_inner:g} after {cap} epochs"
            )
    return y, float(problem.value(x, y))


def delta_from_eps(problem: MinMinProblem, eps_inner: float) -> float:
    """delta = (L*D + G) * sqrt(2*eps/mu) for an eps-accurate inner solution."""
    if eps_inner < 0:
        raise ValueError("eps_inner must be nonnegative")
    scale = math.sqrt(2.0 * eps_inner / problem.mu)
    return (problem.L * problem.diameter_y + problem.grad_norm_bound) * scale


def delta_subgradient(
    problem: MinMinProblem,
    x,
    y_tilde,
    ledger: OracleLedger | None = None,
) -> np.ndarray:
    """grad_x F(x, y~): a delta-subgradient of f when y~ is eps-accurate.

    For finite sums this is the average over all m component subgradients
    (charged as m calls); otherwise a single call.
    """
    x = np.asarray(x, dtype=float)
    y_tilde = np.asarray(y_tilde, dtype=float)
    g = np.asarray(problem.subgrad_x(x, y_tilde), dtype=float)
    if ledger is not None:
        ledger.add_grad_x(problem.components.m if problem.components is not None else 1)
    return g


@dataclass(frozen=True)
class MinMinConfig:
    """Outer/inner composition settings.

    ``eps0`` defaults to mu*D^2/8; the inner accuracy schedule is
    eps_k = max(eps0 * decay^k, eps_floor) where the floor makes
    delta(eps) <= target_epsilon/2.
    """

    target_epsilon: float
    inner: str = "restarted-fgm"
    eps0: float | None = None
    decay: float = 0.5
    vaidya: VaidyaConfig = field(default_factory=VaidyaConfig)
    seed: int = 0
    grad_y_budget: int | None = None

    def __post_init__(self):
        if self.target_epsilon <= 0:
            raise ValueError("target_epsilon must be positive")
        if self.inner not in INNER_SELECTORS:
            raise ValueError(f"inner must be one of {INNER_SELECTORS}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.eps0 is not None and self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if self.grad_y_budget is not None and self.grad_y_budget < 1:
            raise ValueError("grad_y_budget must be positive")


@dataclass
class MinMinResult:
    x: np.ndarray
    y: np.ndarray
    value: float
    history: RunHistory
    vaidya: VaidyaResult
    oracle_calls: int


def eps_floor(problem: MinMinProblem, target_epsilon: float) -> float:
    """Largest inner accuracy whose delta stays below target_epsilon / 2."""
    denom = 2.0 * (problem.L * problem.diameter_y + problem.grad_norm_bound)
    return 0.5 * problem.mu * (target_epsilon / denom) ** 2


def solve_minmin(
    problem: MinMinProblem,
    config: MinMinConfig,
    ledger: OracleLedger | None = None,
    history: RunHistory | None = None,
    stop_below: float | None = None,
) -> MinMinResult:
    """Outer Vaidya over x, inner solves over y, delta-subgradient cuts.

    Each outer oracle call solves the inner problem to eps_k (geometric
    schedule with a delta-based floor), warm-started from the previous inner
    solution, and reports (F(x, y~), grad_x F(x, y~)) to the cutting plane.
    History rows are appended per oracle call; the best pair by objective value
    is returned.  ``stop_below`` and ``config.grad_y_budget`` stop the outer
    loop early (history is still returned).
    """
    ledger = ledger if ledger is not None else OracleLedger()
    history = history if history is not None else RunHistory()
    eps0 = config.eps0 if config.eps0 is not None else problem.mu * problem.diameter_y**2 / 8.0
    floor = eps_floor(problem, config.target_epsilon)
    seed_root = np.random.SeedSequence(config.seed)
    start_grad_y = ledger.grad_y_calls

    state = {
        "calls": 0,
        "y_warm": problem.set_y.center.copy(),
        "best_x": None,
        "best_y": None,
        "best_value": math.inf,
    }
    x_init = problem.set_x.bounding_box().center
    history.append(0, problem.value(x_init, state["y_warm"]), ledger, note="initial")

    def oracle(x: np.ndarray) -> tuple[float, np.ndarray]:
        eps_k = max(eps0 * config.decay ** state["calls"], floor)
        remaining = None
        if config.grad_y_budget is not None:
            remaining = max(0, config.grad_y_budget - (ledger.grad_y_calls - start_grad_y))
        child_seed = int(seed_root.spawn(1)[0].generate_state(1)[0])
        try:
            y_tilde, value = inner_solve(
                problem, x, eps_k, config.inner, child_seed, ledger,
                y_start=state["y_warm"], max_grad_y=remaining,
            )
        except InnerStagnationError as exc:
            raise InnerStagnationError(
                f"outer iteration {state['calls']}: {exc}"
            ) from exc
        state["y_warm"] = y_tilde
        state["calls"] += 1
        g = delta_subgradient(problem, x, y_tilde, ledger)
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_x"] = np.asarray(x, dtype=float).copy()
            state["best_y"] = y_tilde.copy()
        history.append(state["calls"], value, ledger, note=f"eps_inner={eps_k:.3e}")
        return value, g

    def should_stop() -> bool:
        if (
            config.grad_y_budget is not None
            and ledger.grad_y_calls - start_grad_y >= config.grad_y_budget
        ):
            return True
        return stop_below is not None and state["best_value"] <= stop_below

    result = vaidya_minimize(
        oracle, problem.x_dim, problem.set_x, config.vaidya, ledger,
        stop_condition=should_stop,
    )
    if state["best_x"] is None:  # no feasible oracle call happened
        state["best_x"] = result.x
        state["best_y"] = state["y_warm"]
        state["best_value"] = result.best_value
    return MinMinResult(
        x=state["best_x"],
        y=state["best_y"],
        value=state["best_value"],
        history=history,
        vaidya=result,
        oracle_calls=state["calls"],
    )
