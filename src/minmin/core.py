"""Shared vocabulary: projectable feasible sets, counted oracles, run histories."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

import numpy as np

__all__ = [
    "Ball",
    "Box",
    "CountingOracle",
    "FiniteSum",
    "FunctionOracle",
    "HistoryRecord",
    "LedgerSnapshot",
    "NumericFailureError",
    "OracleLedger",
    "RunHistory",
    "SmoothOracle",
    "seeded_rng",
]

CSV_HEADER = "step,objective,grad_x_calls,grad_y_calls,inversions,time_s"


class NumericFailureError(RuntimeError):
    """A solver hit a non-finite quantity; ``step`` is the offending iteration."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


def _vector(x, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _point(point, shape: tuple[int]) -> np.ndarray:
    """``point`` as a float vector of the set's ``shape``; one check on the hot path."""
    p = np.asarray(point, dtype=float)
    if p.shape != shape:
        _vector(p, "point")
        raise ValueError(f"point has dimension {p.size}, set has {shape[0]}")
    return p


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{y : ||y - center||_2 <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def diameter(self) -> float:
        return 2.0 * self.radius

    # The norms below are sqrt(v @ v), which is exactly what np.linalg.norm
    # computes for a 1-d float vector, without its dispatch overhead.
    def contains(self, point, tol: float = 1e-12) -> bool:
        offset = _point(point, self.center.shape) - self.center
        return math.sqrt(offset @ offset) <= self.radius + tol * (1.0 + self.radius)

    def project(self, point) -> np.ndarray:
        p = _point(point, self.center.shape)
        offset = p - self.center
        norm = math.sqrt(offset @ offset)
        if norm <= self.radius:
            return p.copy()
        return self.center + offset * (self.radius / norm)

    def bounding_box(self) -> "Box":
        return Box(self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{y : lower <= y <= upper}`` (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _vector(self.upper, "upper"))
        if self.lower.size != self.upper.size:
            raise ValueError("lower and upper must have equal length")
        if not np.all(self.lower < self.upper):
            raise ValueError("every lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, point, tol: float = 1e-12) -> bool:
        p = _point(point, self.lower.shape)
        scale = 1.0 + float(np.max(np.abs(self.upper - self.lower)))
        return bool(np.all(p >= self.lower - tol * scale) and np.all(p <= self.upper + tol * scale))

    def project(self, point) -> np.ndarray:
        return np.clip(_point(point, self.lower.shape), self.lower, self.upper)

    def bounding_box(self) -> "Box":
        return self


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; equal seeds yield equal draw sequences."""
    return np.random.default_rng(int(seed))


class LedgerSnapshot(NamedTuple):
    grad_x_calls: int
    grad_y_calls: int
    matrix_inversions: int


class OracleLedger:
    """Monotone counters for subgradient, gradient and linear-solve work.

    ``grad_y_calls`` counts component-gradient calls for finite sums and full
    gradients otherwise.  ``matrix_inversions`` counts one Cholesky
    factorization of the barrier Hessian H per Newton iterate while
    recentering the cutting-plane polytope.  The solve with Q for each Newton
    direction and the factorizations of rejected line-search trials are not
    charged (ROADMAP item 2(a)).
    """

    def __init__(self):
        self.grad_x_calls = 0
        self.grad_y_calls = 0
        self.matrix_inversions = 0

    def add_grad_x(self, count: int = 1) -> None:
        self._bump("grad_x_calls", count)

    def add_grad_y(self, count: int = 1) -> None:
        self._bump("grad_y_calls", count)

    def add_inversion(self, count: int = 1) -> None:
        self._bump("matrix_inversions", count)

    def snapshot(self) -> LedgerSnapshot:
        return LedgerSnapshot(self.grad_x_calls, self.grad_y_calls, self.matrix_inversions)

    def _bump(self, attr: str, count: int) -> None:
        if count < 0:
            raise ValueError("ledger counters never decrease")
        setattr(self, attr, getattr(self, attr) + int(count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OracleLedger(grad_x={self.grad_x_calls}, grad_y={self.grad_y_calls}, "
            f"inversions={self.matrix_inversions})"
        )


@dataclass(frozen=True)
class HistoryRecord:
    step: int
    objective: float
    ledger: LedgerSnapshot
    time_s: float
    note: str | None = None


class RunHistory:
    """Sequence of per-step records with monotone ledger snapshots.

    ``clock`` supplies elapsed-time readings; pass ``clock=None`` for a
    deterministic zero time column (byte-reproducible CSV output).
    """

    def __init__(self, clock: Callable[[], float] | None = time.perf_counter):
        self._records: list[HistoryRecord] = []
        self._clock = clock
        self._start = clock() if clock is not None else 0.0

    def append(self, step: int, objective: float, ledger, note: str | None = None) -> HistoryRecord:
        snap = ledger.snapshot() if isinstance(ledger, OracleLedger) else LedgerSnapshot(*ledger)
        if self._records:
            last = self._records[-1]
            if step <= last.step:
                raise ValueError(f"step indices must be strictly increasing ({step} after {last.step})")
            if any(new < old for new, old in zip(snap, last.ledger)):
                raise ValueError("ledger snapshots must be monotone")
        elapsed = (self._clock() - self._start) if self._clock is not None else 0.0
        record = HistoryRecord(int(step), float(objective), snap, float(elapsed), note)
        self._records.append(record)
        return record

    @property
    def records(self) -> tuple[HistoryRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def write_csv(self, target) -> None:
        """Write ``step,objective,grad_x_calls,grad_y_calls,inversions,time_s`` rows.

        Output is UTF-8 with LF line endings and '.' decimal separators.
        """
        lines = [CSV_HEADER]
        for r in self._records:
            lines.append(
                f"{r.step},{r.objective!r},{r.ledger.grad_x_calls},"
                f"{r.ledger.grad_y_calls},{r.ledger.matrix_inversions},{r.time_s!r}"
            )
        text = "\n".join(lines) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            Path(target).write_text(text, encoding="utf-8", newline="")


class SmoothOracle(Protocol):
    """First-order oracle for a smooth objective on a fixed-dimension space."""

    dimension: int

    def value(self, y: np.ndarray) -> float: ...

    def gradient(self, y: np.ndarray) -> np.ndarray: ...


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


class FiniteSum:
    """Average of ``m`` smooth components with per-component Lipschitz bounds.

    ``value``/``gradient`` aggregate the components in fixed index order, so
    results are deterministic. Vectorized ``batch_value``/``batch_gradient``
    callables may be supplied to speed up full passes; they must agree with the
    componentwise average (call accounting is unchanged either way).
    """

    def __init__(
        self,
        dimension: int,
        component_value: Callable[[int, np.ndarray], float],
        component_gradient: Callable[[int, np.ndarray], np.ndarray],
        lipschitz,
        mu: float = 0.0,
        batch_value: Callable[[np.ndarray], float] | None = None,
        batch_gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.dimension = int(dimension)
        self.lipschitz = np.asarray(lipschitz, dtype=float)
        if self.lipschitz.ndim != 1 or self.lipschitz.size == 0:
            raise ValueError("lipschitz must be a non-empty 1-d sequence")
        if np.any(self.lipschitz <= 0):
            raise ValueError("per-component Lipschitz constants must be positive")
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.m = int(self.lipschitz.size)
        self.mu = float(mu)
        self._component_value = component_value
        self._component_gradient = component_gradient
        self._batch_value = batch_value
        self._batch_gradient = batch_gradient

    @property
    def L(self) -> float:
        """Aggregate smoothness constant, the mean of the component constants."""
        return float(np.mean(self.lipschitz))

    def component_value(self, i: int, y) -> float:
        return float(self._component_value(int(i), np.asarray(y, dtype=float)))

    def component_gradient(self, i: int, y) -> np.ndarray:
        return np.asarray(self._component_gradient(int(i), np.asarray(y, dtype=float)), dtype=float)

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        if self._batch_value is not None:
            return float(self._batch_value(y))
        return float(np.mean([self._component_value(i, y) for i in range(self.m)]))

    def gradient(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self._batch_gradient is not None:
            return np.asarray(self._batch_gradient(y), dtype=float)
        total = np.zeros(self.dimension)
        for i in range(self.m):
            total += self._component_gradient(i, y)
        return total / self.m


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
