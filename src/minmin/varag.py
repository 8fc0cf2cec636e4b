"""Variance-reduced accelerated gradient method for finite sums (Varag-style).

Minimizes f(y) = (1/m) * sum_i f_i(y) over a projectable convex region, where
each f_i is L_i-smooth and f is mu-strongly convex (mu = 0 allowed).  Epoch s
takes a full gradient at the anchor point y~ and then T_s randomized inner
steps whose gradient estimator

    G_t = (grad f_i(y_) - grad f_i(y~)) / (q_i * m) + grad f(y~)

is unbiased under component sampling with probabilities q_i ~ L_i.  The epoch
output is the theta-weighted average of the inner ghost sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LedgerSnapshot, OracleLedger, RunHistory, seeded_rng

__all__ = ["VaragSchedule", "build_schedule", "varag_inner_prox", "varag_run"]


@dataclass(frozen=True)
class VaragSchedule:
    """Epoch lengths, step sizes and averaging weights keyed by epoch index.

    ``s0 = floor(log2 m) + 1`` splits the doubling ramp-up from the tail.
    """

    m: int
    L: float
    mu: float
    s0: int
    probabilities: np.ndarray
    lipschitz: np.ndarray

    def inner_steps(self, s: int) -> int:
        """T_s: doubling up to epoch s0, constant afterwards."""
        self._check_epoch(s)
        return 2 ** (min(s, self.s0) - 1)

    def alpha(self, s: int) -> float:
        self._check_epoch(s)
        if s <= self.s0:
            return 0.5
        tail = min(math.sqrt(self.m * self.mu / (3.0 * self.L)), 0.5)
        return max(2.0 / (s - self.s0 + 4.0), tail)

    def gamma(self, s: int) -> float:
        return 1.0 / (3.0 * self.L * self.alpha(s))

    def anchor_weight(self, s: int) -> float:
        """p_s: weight of the anchor point in the inner interpolations."""
        self._check_epoch(s)
        return 0.5

    def flat_weights(self, s: int) -> bool:
        """True when epoch ``s`` uses the constant theta profile.

        That covers the ramp-up epochs, every epoch when mu == 0, and — for
        mu > 0 with m < 3L/(4 mu) — epochs up to s0 + sqrt(12L/(m mu)) - 4.
        """
        self._check_epoch(s)
        if s <= self.s0 or self.mu == 0.0:
            return True
        if self.m < 3.0 * self.L / (4.0 * self.mu):
            return s <= self.s0 + math.sqrt(12.0 * self.L / (self.m * self.mu)) - 4.0
        return False

    def theta(self, s: int) -> np.ndarray:
        """Averaging weights theta_1..theta_T for epoch ``s``."""
        T = self.inner_steps(s)
        alpha = self.alpha(s)
        gamma = self.gamma(s)
        p = self.anchor_weight(s)
        if self.flat_weights(s):
            weights = np.full(T, (gamma / alpha) * (alpha + p))
            weights[-1] = gamma / alpha
            return weights
        growth = (1.0 + self.mu * gamma) ** np.arange(T + 1)  # Gamma_0..Gamma_T
        weights = growth[:-1] - (1.0 - alpha - p) * growth[1:]
        weights[-1] = growth[T - 1]
        return weights

    @staticmethod
    def _check_epoch(s: int) -> None:
        if s < 1:
            raise ValueError("epoch index starts at 1")


def build_schedule(m: int, L: float, mu: float, lipschitz) -> VaragSchedule:
    """Validate constants and build the epoch schedule.

    ``L`` must equal the mean of ``lipschitz`` (it is the aggregate smoothness
    constant used in every step size).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lip = np.asarray(lipschitz, dtype=float)
    if lip.shape != (m,):
        raise ValueError(f"lipschitz must have shape ({m},)")
    if np.any(lip <= 0):
        raise ValueError("component Lipschitz constants must be positive")
    if not math.isclose(L, float(np.mean(lip)), rel_tol=1e-8, abs_tol=1e-12):
        raise ValueError("L must equal the mean of the component constants")
    if L <= 0 or mu > L:
        raise ValueError("need 0 < mu <= L")
    return VaragSchedule(
        m=int(m),
        L=float(L),
        mu=float(mu),
        s0=int(m).bit_length(),  # floor(log2 m) + 1
        probabilities=lip / lip.sum(),
        lipschitz=lip,
    )


def varag_inner_prox(y_prev, y_under, grad_estimate, gamma: float, mu: float, region) -> np.ndarray:
    """Closed-form inner step: argmin over the region of
    gamma*(<G, y> + mu/2*||y_ - y||^2) + 0.5*||y_prev - y||^2,
    which is the projection of (y_prev + gamma*mu*y_ - gamma*G)/(1 + gamma*mu).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    y_prev = np.asarray(y_prev, dtype=float)
    y_under = np.asarray(y_under, dtype=float)
    grad_estimate = np.asarray(grad_estimate, dtype=float)
    target = (y_prev + gamma * mu * y_under - gamma * grad_estimate) / (1.0 + gamma * mu)
    return region.project(target)


def varag_run(
    oracle,
    region,
    y0,
    epochs: int,
    seed: int,
    ledger: OracleLedger | None = None,
    history: RunHistory | None = None,
    max_component_gradients: int | None = None,
    stop_when: Callable[[np.ndarray], bool] | None = None,
    grad_stop: Callable[[np.ndarray, np.ndarray], bool] | None = None,
    schedule: VaragSchedule | None = None,
) -> np.ndarray:
    """Run up to ``epochs`` Varag epochs from ``y0``; returns the final anchor.

    ``oracle`` is a finite-sum oracle (``m``, ``mu``, ``lipschitz``,
    ``component_gradient``, ``gradient``, ``value``).  Each full pass charges m
    component-gradient calls to the ledger and each inner step charges 2 (an
    epoch's inner steps are charged together when the epoch ends or raises).  With
    ``max_component_gradients`` set, no new work starts once the budget is
    consumed (worst-case overshoot below m + 2) and a truncated epoch is
    finalized with the partial theta-average.  ``history``, if given, must be
    empty; rows are appended at epoch boundaries with the full objective value.
    ``stop_when`` sees each epoch's anchor; ``grad_stop`` sees the anchor and
    its full gradient right after the epoch-opening pass (already charged), so
    gradient-based stopping rules cost nothing extra.  Runs with equal seeds
    and budgets are bitwise identical.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    y0 = np.asarray(y0, dtype=float).copy()
    if not region.contains(y0, tol=1e-9):
        raise ValueError("y0 must lie in the feasible region")
    schedule = schedule or build_schedule(oracle.m, oracle.L, oracle.mu, oracle.lipschitz)
    m, mu = schedule.m, schedule.mu
    q = schedule.probabilities
    # rng.choice(m, p=q) draws cdf.searchsorted(rng.random(), side="right")
    # with this same normalized CDF, so drawing an epoch's indices at once
    # from rng.random(T) gives the same indices.  A run that stops inside an
    # epoch draws past its last step, but never draws again.
    cdf = q.cumsum()
    cdf /= cdf[-1]
    scale = (q * m).tolist()  # q_i * m, the estimator's importance weights
    rng = seeded_rng(seed)

    used = 0

    def charge(count: int) -> None:
        nonlocal used
        used += count
        if ledger is not None:
            ledger.add_grad_y(count)

    def snap() -> LedgerSnapshot:
        return ledger.snapshot() if ledger is not None else LedgerSnapshot(0, 0, 0)

    def exhausted() -> bool:
        return max_component_gradients is not None and used >= max_component_gradients

    if history is not None:
        if len(history) > 0:
            raise ValueError("history must be empty at the start of a run")
        history.append(0, oracle.value(y0), snap(), note="initial")

    y_tilde = y0.copy()
    y_end = y0.copy()
    for s in range(1, epochs + 1):
        if exhausted():
            break
        g_tilde = oracle.gradient(y_tilde)
        charge(m)
        if grad_stop is not None and grad_stop(y_tilde, g_tilde):
            break
        T = schedule.inner_steps(s)
        alpha = schedule.alpha(s)
        gamma = schedule.gamma(s)
        p = schedule.anchor_weight(s)
        thetas = schedule.theta(s)
        lift = 1.0 + mu * gamma
        denom = 1.0 + mu * gamma * (1.0 - alpha)

        # Epoch constants, each computed in the operation order of the step
        # that uses it, so the iterates do not change by a bit.
        keep = 1.0 - alpha - p
        under_bar = lift * keep
        under_anchor = lift * p * y_tilde
        bar_anchor = p * y_tilde

        y_t = y_end.copy()
        y_bar = y_tilde.copy()
        accum = np.zeros_like(y0)
        weight_sum = 0.0
        steps_done = 0
        indices = cdf.searchsorted(rng.random(T), side="right").tolist()
        used_before = used
        try:
            for t, i in enumerate(indices, start=1):
                if exhausted():
                    break
                y_under = (under_bar * y_bar + alpha * y_t + under_anchor) / denom
                grad_est = (
                    oracle.component_gradient(i, y_under) - oracle.component_gradient(i, y_tilde)
                ) / scale[i] + g_tilde
                used += 2
                y_t = varag_inner_prox(y_t, y_under, grad_est, gamma, mu, region)
                y_bar = keep * y_bar + alpha * y_t + bar_anchor
                accum += thetas[t - 1] * y_bar
                weight_sum += thetas[t - 1]
                steps_done = t
        finally:
            # The epoch's inner steps reach the ledger in one charge, exact
            # also when a step raises.
            if ledger is not None:
                ledger.add_grad_y(used - used_before)
        if steps_done:
            y_end = y_t
            y_tilde = accum / weight_sum
        if history is not None:
            profile = "flat" if schedule.flat_weights(s) else "geometric"
            history.append(
                s, oracle.value(y_tilde), snap(),
                note=f"epoch={s} T={steps_done}/{T} weights={profile}",
            )
        if stop_when is not None and stop_when(y_tilde):
            break
    return y_tilde
