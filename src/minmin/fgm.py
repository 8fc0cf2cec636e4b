"""Projected fast gradient method and its strong-convexity restart wrapper.

The base method keeps the usual triple of sequences (y, z, u) with step sizes
alpha_{k+1} chosen as the largest root of L*alpha^2 = A_k + alpha, which gives
the f(y_N) - f* <= 8*L*R^2/(N+1)^2 rate with R^2 = 0.5*||y_0 - y*||^2.  For a
mu-strongly convex objective, restarting every N1 = ceil(4*sqrt(L/mu)) steps
halves the squared distance to the minimizer per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericFailureError

__all__ = ["FgmState", "RestartConfig", "fgm_restarted", "fgm_run", "next_alpha"]


@dataclass(frozen=True)
class FgmState:
    """Snapshot after step ``k``; A equals the running sum of the alphas."""

    k: int
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    alpha: float
    A: float


def next_alpha(A: float, L: float) -> float:
    """Largest root of ``L*alpha^2 - alpha - A = 0``."""
    if L <= 0:
        raise ValueError("L must be positive")
    if A < 0:
        raise ValueError("A must be nonnegative")
    return (1.0 + math.sqrt(1.0 + 4.0 * L * A)) / (2.0 * L)


def fgm_run(
    oracle,
    region,
    y0,
    L: float,
    num_steps: int,
    callback: Callable[[FgmState], None] | None = None,
) -> np.ndarray:
    """Run ``num_steps`` projected fast-gradient steps from ``y0``.

    ``oracle`` needs ``gradient``; ``region`` needs ``project``/``contains``.
    Raises NumericFailureError if a gradient comes back non-finite.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if num_steps < 1:
        raise ValueError("num_steps must be at least 1")
    y = np.asarray(y0, dtype=float).copy()
    if not region.contains(y, tol=1e-9):
        raise ValueError("y0 must lie in the feasible region")
    u = y.copy()
    A = 0.0
    gradient, project = oracle.gradient, region.project
    for k in range(num_steps):
        alpha = (1.0 + math.sqrt(1.0 + 4.0 * L * A)) / (2.0 * L)  # next_alpha(A, L)
        A_next = A + alpha
        Ay = A * y  # shared by z and the new y
        z = (alpha * u + Ay) / A_next
        g = np.asarray(gradient(z), dtype=float)
        if not np.isfinite(g).all():
            raise NumericFailureError("non-finite gradient", step=k + 1)
        u = project(u - alpha * g)
        y = (alpha * u + Ay) / A_next
        A = A_next
        if callback is not None:
            callback(FgmState(k=k + 1, y=y, z=z, u=u, alpha=alpha, A=A))
    return y


@dataclass(frozen=True)
class RestartConfig:
    """Restart schedule for a mu-strongly convex, L-smooth objective.

    ``R`` is an upper bound on the initial distance ||y0 - y*||; ``epsilon``
    is the target accuracy on function values.
    """

    L: float
    mu: float
    epsilon: float
    R: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive (use fgm_run for merely convex problems)")
        if self.L < self.mu:
            raise ValueError("L must be at least mu")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.R <= 0:
            raise ValueError("R must be positive")

    @property
    def steps_per_restart(self) -> int:
        return math.ceil(4.0 * math.sqrt(self.L / self.mu))

    @property
    def num_restarts(self) -> int:
        return max(1, math.ceil(0.5 * math.log(self.mu * self.R * self.R / self.epsilon)))


def fgm_restarted(
    oracle,
    region,
    y0,
    config: RestartConfig,
    stop_when: Callable[[np.ndarray], bool] | None = None,
) -> np.ndarray:
    """Restarted fast gradient method: ``num_restarts`` blocks of fixed length.

    Each block halves the squared distance to the minimizer, so the output
    satisfies f(y) - f* <= epsilon for the configured constants.  An optional
    ``stop_when`` predicate is checked between blocks to cut the run short
    (useful when an accuracy certificate is available).
    """
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(config.num_restarts):
        y = fgm_run(oracle, region, y, config.L, config.steps_per_restart)
        if stop_when is not None and stop_when(y):
            break
    return y
