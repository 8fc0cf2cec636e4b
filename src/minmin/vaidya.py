"""Vaidya's cutting-plane method with volumetric-barrier Newton recentering.

The localizer is a polytope P = {x : A x >= b}.  With slacks s_i = a_i.x - b_i,
the method tracks the volumetric barrier V(x) = 0.5*logdet H(x), where
H(x) = sum_i a_i a_i^T / s_i^2, and the leverage scores
sigma_i(x) = (a_i^T H(x)^{-1} a_i) / s_i^2 (they always sum to the dimension).
Each iteration either drops the row with the smallest leverage score (when it
falls below gamma) or queries the oracle at the current volumetric center and
adds the returned cut, placed so the center keeps a fixed relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dtrtrs

from .core import Box, OracleLedger, _write_lines

__all__ = [
    "BarrierState",
    "DegeneratePolytopeError",
    "InfeasiblePointError",
    "NewtonStagnationError",
    "Polytope",
    "PolytopeStructureError",
    "VaidyaConfig",
    "VaidyaIteration",
    "VaidyaResult",
    "barrier_quantities",
    "newton_recenter",
    "place_cut",
    "vaidya_minimize",
    "volumetric_value",
    "write_iterations_csv",
]


class InfeasiblePointError(ValueError):
    """Barrier quantities were requested at a point with a nonpositive slack."""


class DegeneratePolytopeError(RuntimeError):
    """The barrier Hessian H(x) is numerically singular."""


class PolytopeStructureError(RuntimeError):
    """A row operation would leave fewer than d+1 constraints."""


class NewtonStagnationError(RuntimeError):
    """No feasible decreasing Newton step found; carries the current point."""

    def __init__(self, x: np.ndarray):
        super().__init__("volumetric Newton step stagnated after 60 halvings")
        self.x = np.asarray(x, dtype=float)


class Polytope:
    """Mutable constraint system ``{x : A x >= b}`` with at least d+1 rows."""

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        if b.ndim != 1 or b.size != A.shape[0]:
            raise ValueError("b must be 1-d with one entry per row of A")
        if A.shape[0] < A.shape[1] + 1:
            raise PolytopeStructureError(
                f"need at least d+1={A.shape[1] + 1} rows, got {A.shape[0]}"
            )
        self._A = A.copy()
        self._b = b.copy()

    @classmethod
    def from_box(cls, box: Box) -> "Polytope":
        """Initial localizer: the 2d facet rows of an axis-aligned box."""
        d = box.dim
        eye = np.eye(d)
        A = np.vstack([eye, -eye])
        b = np.concatenate([box.lower, -box.upper])
        return cls(A, b)

    @property
    def A(self) -> np.ndarray:
        return self._A

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def num_rows(self) -> int:
        return self._A.shape[0]

    @property
    def dim(self) -> int:
        return self._A.shape[1]

    def slacks(self, x) -> np.ndarray:
        return self._A @ np.asarray(x, dtype=float) - self._b

    def add_row(self, a, beta: float) -> None:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.dim,):
            raise ValueError(f"row must have shape ({self.dim},)")
        self._A = np.vstack([self._A, a])
        self._b = np.append(self._b, float(beta))

    def drop_row(self, index: int) -> None:
        if self.num_rows - 1 < self.dim + 1:
            raise PolytopeStructureError(
                f"dropping row {index} would leave {self.num_rows - 1} < d+1 rows"
            )
        keep = np.arange(self.num_rows) != index
        self._A = self._A[keep]
        self._b = self._b[keep]


@dataclass
class BarrierState:
    """Volumetric-barrier quantities at an interior point.

    ``chol`` is the lower Cholesky factor of H; ``value`` is 0.5*logdet H.
    ``Q = W^T diag(sigma) W`` (rows of W are a_i / s_i) is Anstreicher's
    (1997) lower bound on the barrier Hessian; ``hessian`` is the exact
    Hessian of V, which satisfies ``Q <= hessian <= 3 Q``.  Recentering
    solves its Newton directions with ``hessian`` and measures its decrement
    in that norm.
    """

    x: np.ndarray
    slacks: np.ndarray
    H: np.ndarray
    chol: np.ndarray
    sigma: np.ndarray
    grad: np.ndarray
    Q: np.ndarray
    hessian: np.ndarray
    value: float

    @property
    def min_sigma(self) -> float:
        return float(np.min(self.sigma))

    @property
    def sigma_sum(self) -> float:
        return float(np.sum(self.sigma))

    def hinv_quad(self, c) -> float:
        """Quadratic form c^T H^{-1} c via the cached Cholesky factor."""
        w = _solve_lower(self.chol, np.asarray_chkfinite(c, dtype=float))
        return float(w @ w)


@dataclass(frozen=True)
class VaidyaConfig:
    """``newton_tolerance`` bounds the Newton decrement sqrt(g^T M^{-1} g) at
    which recentering stops, with M the barrier Hessian.  About half of the
    recenterings stop on it; the rest stop on the rounding-floor break, when
    a step's barrier decrease falls to the float64 resolution of logdet.
    """

    gamma: float = 0.006
    newton_tolerance: float = 1e-8
    max_newton_steps: int = 80
    max_iterations: int = 500

    def __post_init__(self):
        if self.gamma < 0.006:
            raise ValueError("gamma must be at least 0.006")
        if self.newton_tolerance <= 0:
            raise ValueError("newton_tolerance must be positive")
        if self.max_newton_steps < 1 or self.max_iterations < 1:
            raise ValueError("iteration limits must be positive")


# The one barrier-evaluation path has two steps.  ``_factor`` builds W, H, its
# Cholesky factor and 0.5*logdet H at a point with positive slacks; every
# line-search trial that is strictly interior runs it.  ``_complete`` turns
# factored data into a full ``BarrierState`` (leverage scores, gradient, Q,
# Hessian) without refactoring, and charges the ledger once.
#
# The Cholesky factorization of H and the Newton solve call the LAPACK gufuncs
# that ``np.linalg.cholesky`` and ``np.linalg.solve`` dispatch to, without
# those wrappers' per-call checks and ``errstate``: same routine, same input,
# same bits.  A gufunc signals a LAPACK failure by filling its output with NaN
# and setting the floating-point invalid flag, so callers run it under
# ``np.errstate(invalid="ignore")``, and a NaN leading entry re-runs the
# ``np.linalg`` call, which raises ``LinAlgError`` exactly when it would have.
_cholesky_lo = _umath_linalg.cholesky_lo
_solve1 = _umath_linalg.solve1


def _cholesky(H: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(H)``; DegeneratePolytopeError where it raises."""
    chol = _cholesky_lo(H, signature="d->d")
    if math.isnan(chol[0, 0]):  # LAPACK failed, or H holds NaN
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise DegeneratePolytopeError("barrier Hessian is singular") from exc
    return chol


def _newton_direction(M: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(M, grad)``; DegeneratePolytopeError where it raises."""
    direction = _solve1(M, grad, signature="dd->d")
    if math.isnan(direction[0]):  # LAPACK failed, or the input holds NaN
        try:
            direction = np.linalg.solve(M, grad)
        except np.linalg.LinAlgError as exc:
            raise DegeneratePolytopeError("Newton matrix is singular") from exc
    return direction


class _Factored(NamedTuple):
    x: np.ndarray
    slacks: np.ndarray
    W: np.ndarray  # rows a_i / s_i
    H: np.ndarray
    chol: np.ndarray
    value: float


def _interior_slacks(poly: Polytope, x: np.ndarray) -> np.ndarray | None:
    """Slacks A x - b, or None unless x is strictly interior."""
    s = poly._A @ x - poly._b
    return None if (s <= 0).any() else s


def _factor(poly: Polytope, x: np.ndarray, s: np.ndarray) -> _Factored:
    W = poly._A / s[:, None]
    H = W.T @ W
    chol = _cholesky(H)
    return _Factored(x, s, W, H, chol, float(np.log(chol.diagonal()).sum()))


def _trial(poly: Polytope, x: np.ndarray, s: np.ndarray) -> _Factored | None:
    """``_factor`` for a line search: None when H is singular."""
    try:
        return _factor(poly, x, s)
    except DegeneratePolytopeError:
        return None


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^{-1} rhs for a lower-triangular L, through LAPACK ``dtrtrs``.

    Makes the same ``dtrtrs`` call as ``scipy.linalg.solve_triangular(chol,
    rhs, lower=True)``, so the result is bit-identical, without that wrapper's
    per-call validation.
    """
    if chol.flags.f_contiguous:
        solution, info = dtrtrs(chol, rhs, lower=1)
    else:  # a C-ordered L is the Fortran-ordered upper factor L^T
        solution, info = dtrtrs(chol.T, rhs, lower=0, trans=1)
    if info != 0:
        raise DegeneratePolytopeError(f"triangular solve failed (LAPACK info {info})")
    return solution


def _complete(factored: _Factored, ledger: OracleLedger | None) -> BarrierState:
    x, s, W, H, chol, value = factored
    if ledger is not None:
        ledger.add_inversion()
    V = _solve_lower(chol, W.T)  # columns v_i = L^{-1} a_i / s_i
    sigma = np.einsum("ij,ij->j", V, V)
    grad = -(W.T @ sigma)
    Q = (W * sigma[:, None]).T @ W
    # The Hessian of V is W^T (3 diag(sigma) - 2 P∘P) W with P = W H^{-1} W^T.
    # P_ij = v_i.v_j, so (P∘P)_ij = vec(v_i v_i^T).vec(v_j v_j^T) and
    # W^T (P∘P) W = K^T K with K = Z W, column i of Z being vec(v_i v_i^T):
    # O(m d^3) work, without the m x m matrix P.
    d, m = V.shape
    K = (V[:, None, :] * V[None, :, :]).reshape(d * d, m) @ W
    hessian = 3.0 * Q - 2.0 * (K.T @ K)
    return BarrierState(
        x=x.copy(), slacks=s, H=H, chol=chol, sigma=sigma, grad=grad, Q=Q, hessian=hessian, value=value
    )


def barrier_quantities(poly: Polytope, x, ledger: OracleLedger | None = None) -> BarrierState:
    """Slacks, H, leverage scores, volumetric gradient, Q and the barrier
    Hessian at interior x.

    Performs one Cholesky factorization of H and charges it to the ledger as
    one ``matrix_inversions``; the leverage scores and the Hessian come from
    triangular solves against that factor.  Recentering charges one such
    factorization per Newton iterate.  The solve with the Hessian for each
    Newton direction and the factorizations of rejected line-search trials
    are not charged (ROADMAP item 2(a)).
    """
    x = np.asarray(x, dtype=float)
    s = _interior_slacks(poly, x)
    if s is None:
        raise InfeasiblePointError("point is not strictly interior to the polytope")
    with np.errstate(invalid="ignore"):
        factored = _factor(poly, x, s)
    return _complete(factored, ledger)


def volumetric_value(poly: Polytope, x) -> float:
    """0.5*logdet H(x); +inf outside the interior or where H is singular."""
    x = np.asarray(x, dtype=float)
    s = _interior_slacks(poly, x)
    if s is None:
        return math.inf
    with np.errstate(invalid="ignore"):
        factored = _trial(poly, x, s)
    return math.inf if factored is None else factored.value


def place_cut(hinv_quad: float, x, c, gamma: float) -> float:
    """Offset beta for a new cut c.x >= beta through the current center's slack.

    beta solves c^T H^{-1} c / (x.c - beta)^2 = sqrt(gamma)/5, taking the root
    that keeps x strictly feasible.  Scaling c scales the slack linearly.
    """
    if hinv_quad <= 0:
        raise ValueError("c^T H^{-1} c must be positive (zero subgradient means optimality)")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    return float(x @ c) - math.sqrt(5.0 * hinv_quad / math.sqrt(gamma))


# Below this Newton decrement the barrier decrease per step sits under the
# float64 resolution of logdet, so a failed line search means "centered".
_STAGNATION_DECREMENT = 1e-5


def _recenter(
    poly: Polytope,
    x_start,
    config: VaidyaConfig,
    ledger: OracleLedger | None,
) -> tuple[np.ndarray, BarrierState, int, int]:
    """Damped Newton descent on the volumetric barrier with its exact Hessian.

    The direction solves ``hessian @ d = grad``, and the decrement
    sqrt(grad @ d) is measured in the Hessian's norm.  The full step is
    tried first and halved until the Armijo test passes; most recenterings
    end within three iterates, about half on ``newton_tolerance`` and the rest
    on the rounding-floor break.  A Newton matrix that is not positive
    definite raises DegeneratePolytopeError.

    Returns the final point and state, the Newton iterates (one ledger charge
    each) and the Cholesky factorizations of H: the start state's and one per
    strictly interior line-search trial.
    """
    x = np.asarray(x_start, dtype=float).copy()
    state = barrier_quantities(poly, x, ledger)
    solves = factorizations = 1
    with np.errstate(invalid="ignore"):
        for _ in range(config.max_newton_steps):
            direction = _newton_direction(state.hessian, state.grad)
            squared = float(state.grad @ direction)
            if squared < 0.0:  # g^T M^{-1} g < 0: M is not positive definite
                raise DegeneratePolytopeError("Newton matrix is not positive definite")
            decrement = math.sqrt(squared)
            if decrement <= config.newton_tolerance:
                break
            t = 1.0
            accepted = None
            for _ in range(60):
                point = x - t * direction
                s = _interior_slacks(poly, point)
                if s is not None:
                    factorizations += 1
                    trial = _trial(poly, point, s)
                    if trial is not None and trial.value <= state.value - 0.25 * t * squared:
                        accepted = trial
                        break
                t *= 0.5
            if accepted is None:
                if decrement <= _STAGNATION_DECREMENT:
                    break
                raise NewtonStagnationError(x)
            x = accepted.x
            previous_value = state.value
            state = _complete(accepted, ledger)  # reuses the accepted trial's factor
            solves += 1
            # Per-step progress at the rounding floor: further steps only churn.
            if previous_value - state.value <= 1e-13 * (1.0 + abs(state.value)):
                break
    return x, state, solves, factorizations


def newton_recenter(poly: Polytope, x_start, config: VaidyaConfig, ledger: OracleLedger | None = None) -> np.ndarray:
    """Move an interior ``x_start`` to the volumetric center of ``poly``."""
    return _recenter(poly, x_start, config, ledger)[0]


@dataclass(frozen=True)
class VaidyaIteration:
    """One outer step: either a row drop or an added cut at the center."""

    k: int
    m_rows: int
    min_sigma: float
    sigma_sum: float
    action: str  # 'add' | 'drop' | 'stop'
    best_value: float
    x: np.ndarray
    min_slack: float
    barrier_solves: int  # Newton iterates of the recentering, each charged once
    factorizations: int  # Cholesky factorizations of H in the recentering
    oracle_value: float | None = None
    feasible_query: bool | None = None


@dataclass
class VaidyaResult:
    x: np.ndarray
    best_value: float
    iterations: list[VaidyaIteration] = field(default_factory=list)
    oracle_calls: int = 0
    stop_reason: str = "max_iterations"


def write_iterations_csv(iterations, target) -> None:
    """Per-iteration dump: ``k,m_rows,min_sigma,action,f_best`` rows."""
    lines = ["k,m_rows,min_sigma,action,f_best"]
    for it in iterations:
        lines.append(f"{it.k},{it.m_rows},{it.min_sigma!r},{it.action},{it.best_value!r}")
    _write_lines(lines, target)


def vaidya_minimize(
    oracle: Callable[[np.ndarray], tuple[float, np.ndarray]],
    dim: int,
    region,
    config: VaidyaConfig | None = None,
    ledger: OracleLedger | None = None,
    stop_condition: Callable[[], bool] | None = None,
) -> VaidyaResult:
    """Minimize a convex function over ``region`` using subgradient cuts.

    ``oracle(x)`` must return ``(value, g)`` with ``g`` a (delta-)subgradient at
    a feasible ``x``; the cut direction used internally is ``-g`` so that the
    sublevel set is kept.  When the center leaves ``region``, a separating
    hyperplane for the region is added instead of an oracle cut, so the oracle
    is only ever queried at feasible points.  The best feasible query point by
    reported value is returned.
    """
    config = config or VaidyaConfig()
    if region.dim != dim:
        raise ValueError(f"region dimension {region.dim} != dim {dim}")
    box = region.bounding_box()
    poly = Polytope.from_box(box)
    x = box.center
    best_x: np.ndarray | None = None
    best_value = math.inf
    oracle_calls = 0
    iterations: list[VaidyaIteration] = []
    stop_reason = "max_iterations"

    for k in range(config.max_iterations):
        if stop_condition is not None and stop_condition():
            stop_reason = "stop_condition"
            break
        x, state, solves, factorizations = _recenter(poly, x, config, ledger)
        min_index = int(np.argmin(state.sigma))  # lowest index wins ties
        record = dict(
            k=k,
            m_rows=poly.num_rows,
            min_sigma=float(state.sigma[min_index]),
            sigma_sum=state.sigma_sum,
            x=x.copy(),
            min_slack=float(np.min(state.slacks)),
            barrier_solves=solves,
            factorizations=factorizations,
        )
        if state.sigma[min_index] < config.gamma:
            poly.drop_row(min_index)
            iterations.append(VaidyaIteration(action="drop", best_value=best_value, **record))
            continue
        if region.contains(x, tol=1e-12):
            value, g = oracle(x)
            oracle_calls += 1
            g = np.asarray(g, dtype=float)
            value = float(value)
            if value < best_value:
                best_value = value
                best_x = x.copy()
            if float(np.linalg.norm(g)) == 0.0:
                iterations.append(
                    VaidyaIteration(
                        action="stop", best_value=best_value, oracle_value=value,
                        feasible_query=True, **record,
                    )
                )
                stop_reason = "zero_subgradient"
                break
            c = -g
            oracle_value: float | None = value
            feasible = True
        else:
            projected = region.project(x)
            offset = projected - x
            c = offset / float(np.linalg.norm(offset))
            oracle_value = None
            feasible = False
        beta = place_cut(state.hinv_quad(c), x, c, config.gamma)
        poly.add_row(c, beta)
        iterations.append(
            VaidyaIteration(
                action="add", best_value=best_value, oracle_value=oracle_value,
                feasible_query=feasible, **record,
            )
        )

    if best_x is None:
        best_x = x.copy()
    return VaidyaResult(
        x=best_x,
        best_value=best_value,
        iterations=iterations,
        oracle_calls=oracle_calls,
        stop_reason=stop_reason,
    )
