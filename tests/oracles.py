"""Smooth test oracles built from plain callables, with optional ledger charging,
and brute-force references the library's closed forms are checked against."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from minmin import OracleLedger


@dataclass(frozen=True)
class FunctionOracle:
    """Smooth oracle assembled from plain callables."""

    dimension: int
    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, y) -> float:
        return float(self.value_fn(np.asarray(y, dtype=float)))

    def gradient(self, y) -> np.ndarray:
        return np.asarray(self.gradient_fn(np.asarray(y, dtype=float)), dtype=float)


class CountingOracle:
    """Ledger-charging view of a smooth oracle (one gradient = ``cost`` calls)."""

    def __init__(self, inner, ledger: OracleLedger, cost: int = 1):
        if cost < 1:
            raise ValueError("cost per gradient must be at least 1")
        self._inner = inner
        self._ledger = ledger
        self._cost = int(cost)
        self.dimension = inner.dimension

    def value(self, y) -> float:
        return self._inner.value(y)

    def gradient(self, y) -> np.ndarray:
        self._ledger.add_grad_y(self._cost)
        return self._inner.gradient(y)


def ball_fw_gap(ball, y, g) -> float:
    """Frank-Wolfe gap over a ball from its explicit minimizer c - R*g/||g||."""
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return 0.0
    return float(g @ (y - (ball.center - ball.radius * g / norm)))
