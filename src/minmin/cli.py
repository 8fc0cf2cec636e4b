"""Command-line experiment runner.

Two subcommands: ``run`` solves one problem with one method and writes
``history.csv`` + ``summary.txt``; ``compare`` runs two methods on the same
problem and budget and writes an aligned ``compare.csv``.

Methods: ``approach1`` (cutting plane outside, restarted fast gradient
inside), ``approach2`` (cutting plane outside, variance reduction inside) and
``varag-joint`` (variance reduction on the joint variable w = (x, y), treated
as merely convex).  Output CSVs are byte-reproducible for equal seeds: the
time column is pinned to zero by running histories without a clock.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import Ball, Box, FiniteSum, OracleLedger, RunHistory, seeded_rng
from .problems import (
    Dataset,
    load_libsvm,
    make_logreg_minmin,
    make_quadratic_minmin,
    make_synthetic_classification,
)
from .solver import MinMinConfig, MinMinProblem, solve_minmin
from .varag import varag_run

__all__ = [
    "BlockSet",
    "ExperimentConfig",
    "METHODS",
    "build_problem",
    "compare",
    "main",
    "parse_synthetic",
    "run_experiment",
]

METHODS = ("approach1", "approach2", "varag-joint")
_SYNTHETIC_KEYS = {
    "logreg": {"m", "features"},
    "quadratic": {"n", "mu", "components", "nu"},
}


@dataclass(frozen=True)
class BlockSet:
    """Cartesian product of two feasible sets, indexed as one long vector."""

    first: object
    second: object

    # Both blocks are immutable, so the split point and the shape a point
    # must have are worked out once: the projection in Varag's inner step
    # then checks its input with one conversion and one shape comparison.
    @cached_property
    def dim(self) -> int:
        return self.first.dim + self.second.dim

    @cached_property
    def _shape_and_cut(self) -> tuple[tuple[int], int]:
        return (self.dim,), self.first.dim

    @property
    def center(self) -> np.ndarray:
        return np.concatenate([self.first.center, self.second.center])

    def split(self, point) -> tuple[np.ndarray, np.ndarray]:
        point = np.asarray(point, dtype=float)
        shape, cut = self._shape_and_cut
        if point.shape != shape:
            raise ValueError(f"point has shape {point.shape}, set has dimension {self.dim}")
        return point[:cut], point[cut:]

    def diameter(self) -> float:
        return math.hypot(self.first.diameter(), self.second.diameter())

    def contains(self, point, tol: float = 1e-12) -> bool:
        a, b = self.split(point)
        return self.first.contains(a, tol) and self.second.contains(b, tol)

    def project(self, point) -> np.ndarray:
        a, b = self.split(point)
        return np.concatenate([self.first.project(a), self.second.project(b)])

    def bounding_box(self) -> Box:
        box_a = self.first.bounding_box()
        box_b = self.second.bounding_box()
        return Box(
            np.concatenate([box_a.lower, box_b.lower]),
            np.concatenate([box_a.upper, box_b.upper]),
        )


class _JointCallLedger(OracleLedger):
    """For joint-variable methods one gradient touches both blocks, so every
    grad_y charge is mirrored into grad_x (keeps cross-method budgets honest).
    """

    def add_grad_y(self, count: int = 1) -> None:
        super().add_grad_y(count)
        super().add_grad_x(count)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a problem source, a method, a budget and a target."""

    method: str
    d: int
    eps: float
    seed: int
    budget: int | None = None
    reg: float = 0.005
    data_path: str | None = None
    synthetic_spec: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if (self.data_path is None) == (self.synthetic_spec is None):
            raise ValueError("exactly one of data_path and synthetic_spec is required")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.reg <= 0:
            raise ValueError("reg must be positive")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive")


def parse_synthetic(spec: str) -> tuple[str, dict[str, float]]:
    """Parse ``kind:key=value,key=value`` (e.g. ``logreg:m=200,features=55``)."""
    kind, _, tail = spec.partition(":")
    kind = kind.strip()
    if kind not in _SYNTHETIC_KEYS:
        raise ValueError(f"unknown synthetic kind {kind!r}; choose from {sorted(_SYNTHETIC_KEYS)}")
    params: dict[str, float] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _SYNTHETIC_KEYS[kind]:
                raise ValueError(f"bad synthetic parameter {item!r} for kind {kind!r}")
            try:
                params[key] = float(value)
            except ValueError as exc:
                raise ValueError(f"bad synthetic value {item!r}") from exc
    return kind, params


class BuiltProblem:
    """A problem plus everything the runner needs that the problem omits:
    a stop target when the optimum is known, and joint per-component
    smoothness bounds for the joint-variable method.
    """

    def __init__(self, problem: MinMinProblem, target: float | None, joint_lipschitz):
        self.problem = problem
        self.target = target
        self.joint_lipschitz = joint_lipschitz


def _logreg_problem(dataset: Dataset, cfg: ExperimentConfig) -> BuiltProblem:
    problem = make_logreg_minmin(dataset, cfg.d, cfg.reg)
    row_sq = np.einsum("ij,ij->i", dataset.features, dataset.features)
    return BuiltProblem(problem, None, 0.25 * row_sq + 2.0 * cfg.reg)


def build_problem(cfg: ExperimentConfig) -> BuiltProblem:
    if cfg.data_path is not None:
        return _logreg_problem(load_libsvm(cfg.data_path), cfg)
    kind, params = parse_synthetic(cfg.synthetic_spec)
    if kind == "logreg":
        dataset = make_synthetic_classification(
            int(params.get("m", 200)), int(params.get("features", 55)), seed=cfg.seed
        )
        return _logreg_problem(dataset, cfg)
    y_dim = int(params.get("n", 50))
    mu = float(params.get("mu", 0.1))
    nu = float(params.get("nu", 0.1))
    components = int(params["components"]) if "components" in params else None
    rng = seeded_rng(cfg.seed)
    coupling = rng.normal(size=(y_dim, cfg.d)) / math.sqrt(y_dim)
    problem, solution = make_quadratic_minmin(
        cfg.d, y_dim, mu, seed=cfg.seed, coupling=coupling, nu=nu, num_components=components
    )
    joint_lipschitz = None
    if components is not None:
        b_norm = float(np.linalg.norm(coupling, 2))
        joint_lipschitz = np.full(components, components * (1.0 + b_norm) ** 2 + mu + nu)
    return BuiltProblem(problem, solution.value + cfg.eps, joint_lipschitz)


def _joint_finite_sum(built: BuiltProblem) -> tuple[FiniteSum, BlockSet, np.ndarray]:
    problem = built.problem
    comps = problem.components
    if comps is None:
        raise ValueError("varag-joint needs a finite-sum decomposition of the objective")
    if built.joint_lipschitz is None:
        raise ValueError("no joint smoothness bounds available for this problem")
    d = problem.x_dim

    def component_value(i, w):
        return comps.value(i, w[:d], w[d:])

    def component_gradient(i, w):
        x, y = w[:d], w[d:]
        return np.concatenate([comps.subgrad_x(i, x, y), comps.grad_y(i, x, y)])

    def batch_value(w):
        return problem.value(w[:d], w[d:])

    def batch_gradient(w):
        x, y = w[:d], w[d:]
        return np.concatenate([problem.subgrad_x(x, y), problem.grad_y(x, y)])

    oracle = FiniteSum(
        problem.x_dim + problem.y_dim,
        component_value,
        component_gradient,
        lipschitz=np.asarray(built.joint_lipschitz, dtype=float),
        mu=0.0,
        batch_value=batch_value,
        batch_gradient=batch_gradient,
    )
    region = BlockSet(problem.set_x, problem.set_y)
    return oracle, region, region.center


def _run_joint(built: BuiltProblem, cfg: ExperimentConfig, ledger, history) -> dict:
    oracle, region, w0 = _joint_finite_sum(built)
    d = built.problem.x_dim
    target = built.target
    stop_when = None
    if target is not None:
        stop_when = lambda w: built.problem.value(w[:d], w[d:]) <= target
    if cfg.budget is not None:
        epochs = cfg.budget // (oracle.m + 2) + 2
    else:
        epochs = 30
    start = ledger.grad_y_calls
    varag_run(
        oracle, region, w0, epochs, cfg.seed, ledger, history,
        max_component_gradients=cfg.budget, stop_when=stop_when,
    )
    best = min(record.objective for record in history)
    if target is not None and best <= target:
        reason = "target"
    elif cfg.budget is not None and ledger.grad_y_calls - start >= cfg.budget:
        reason = "budget"
    else:
        reason = "iterations"
    return {"best_value": best, "outer_iters": history.records[-1].step, "stop_reason": reason}


def _run_nested(built: BuiltProblem, cfg: ExperimentConfig, ledger, history) -> dict:
    inner = "restarted-fgm" if cfg.method == "approach1" else "varag"
    mm_cfg = MinMinConfig(
        target_epsilon=cfg.eps, inner=inner, seed=cfg.seed, grad_y_budget=cfg.budget
    )
    result = solve_minmin(built.problem, mm_cfg, ledger, history, stop_below=built.target)
    return {
        "best_value": result.value,
        "outer_iters": result.oracle_calls,
        "stop_reason": result.vaidya.stop_reason,
    }


def run_experiment(cfg: ExperimentConfig, out_dir) -> tuple[dict, RunHistory]:
    """Run one configured experiment; returns the summary and the history.

    ``history.csv`` is written even when the run raises, so partial progress
    is never lost; ``summary.txt`` is written only on success.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    built = build_problem(cfg)
    history = RunHistory(clock=None)
    ledger = _JointCallLedger() if cfg.method == "varag-joint" else OracleLedger()
    try:
        if cfg.method == "varag-joint":
            outcome = _run_joint(built, cfg, ledger, history)
        else:
            outcome = _run_nested(built, cfg, ledger, history)
    finally:
        history.write_csv(out / "history.csv")
    summary = {
        "method": cfg.method,
        "target_eps": cfg.eps,
        "outer_iters": outcome["outer_iters"],
        "grad_x_calls": ledger.grad_x_calls,
        "grad_y_calls": ledger.grad_y_calls,
        "inversions": ledger.matrix_inversions,
        "best_value": outcome["best_value"],
        "stop_reason": outcome["stop_reason"],
    }
    (out / "summary.txt").write_text(_format_summary(summary), encoding="utf-8", newline="")
    return summary, history


def _format_summary(summary: dict) -> str:
    lines = []
    for key, value in summary.items():
        text = repr(float(value)) if isinstance(value, float) else str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def _running_best(history: RunHistory) -> list[tuple[int, float]]:
    """(grad_y, best objective so far); one point per distinct budget level."""
    curve: dict[int, float] = {}
    best = math.inf
    for record in history:
        best = min(best, record.objective)
        curve[record.ledger.grad_y_calls] = best
    return sorted(curve.items())


def compare(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig, out_dir) -> dict:
    """Run two methods on the same problem and align their progress curves.

    Both runs must share every setting except the method.  ``compare.csv``
    holds the running-best objective of each method on the union grid of
    gradient budgets (last-known value carried forward); the summary names
    the method with the lower final objective.
    """
    if replace(cfg_a, method=cfg_b.method) != cfg_b:
        raise ValueError("compared runs must differ only in the method")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_a, history_a = run_experiment(cfg_a, out / "a")
    summary_b, history_b = run_experiment(cfg_b, out / "b")

    curve_a = _running_best(history_a)
    curve_b = _running_best(history_b)
    grid = sorted({g for g, _ in curve_a} | {g for g, _ in curve_b})
    lines = ["grad_y,obj_a,obj_b"]
    idx_a = idx_b = 0
    val_a = val_b = math.inf
    for g in grid:
        while idx_a < len(curve_a) and curve_a[idx_a][0] <= g:
            val_a = curve_a[idx_a][1]
            idx_a += 1
        while idx_b < len(curve_b) and curve_b[idx_b][0] <= g:
            val_b = curve_b[idx_b][1]
            idx_b += 1
        lines.append(f"{g},{val_a!r},{val_b!r}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")

    final_a = summary_a["best_value"]
    final_b = summary_b["best_value"]
    if final_a < final_b:
        winner = cfg_a.method
    elif final_b < final_a:
        winner = cfg_b.method
    else:
        winner = "tie"
    verdict = {
        "method_a": cfg_a.method,
        "final_a": final_a,
        "method_b": cfg_b.method,
        "final_b": final_b,
        "winner": winner,
    }
    (out / "summary.txt").write_text(_format_summary(verdict), encoding="utf-8", newline="")
    return verdict


def _add_problem_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="path to a LIBSVM-format file")
    source.add_argument(
        "--synthetic",
        help="synthetic problem spec, e.g. 'logreg:m=200,features=55' "
        "or 'quadratic:n=50,mu=0.1,components=50'",
    )
    parser.add_argument("--d", type=int, default=5, help="dimension of the outer block x")
    parser.add_argument("--reg", type=float, default=0.005, help="inverse variance of the y prior")
    parser.add_argument("--budget", type=int, default=None, help="gradient-call budget for y")
    parser.add_argument("--eps", type=float, default=1e-6, help="target accuracy")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", required=True, help="output directory")


def _config_from(args: argparse.Namespace, method: str) -> ExperimentConfig:
    return ExperimentConfig(
        method=method,
        d=args.d,
        eps=args.eps,
        seed=args.seed,
        budget=args.budget,
        reg=args.reg,
        data_path=args.data,
        synthetic_spec=args.synthetic,
    )


def main(argv=None) -> int:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MINMIN_LOG", "").lower()
    )
    if level is not None:
        logging.basicConfig(level=level)
    parser = argparse.ArgumentParser(prog="minmin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="solve one problem with one method")
    _add_problem_arguments(run_parser)
    run_parser.add_argument("--method", choices=METHODS, default="approach2")

    cmp_parser = sub.add_parser("compare", help="run two methods on the same problem")
    _add_problem_arguments(cmp_parser)
    cmp_parser.add_argument("--method-a", choices=METHODS, required=True)
    cmp_parser.add_argument("--method-b", choices=METHODS, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary, _ = run_experiment(_config_from(args, args.method), args.out)
            sys.stdout.write(_format_summary(summary))
        else:
            verdict = compare(
                _config_from(args, args.method_a), _config_from(args, args.method_b), args.out
            )
            sys.stdout.write(_format_summary(verdict))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
