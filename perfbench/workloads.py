"""The three benchmark workloads: inputs drawn from a seed, timed calls, checks.

Each workload has two halves.  ``setup(seed, workdir)`` builds the inputs
(problems, data files) and is timed as set-up.  ``run_set(inputs, workdir,
tracer)`` makes the workload's fixed set of solves through the public
``minmin`` API, times each call into the library, checks each answer and
returns a ``SetResult``.  Only the library calls are inside the timed region;
checks and artifact hashing are not.

quad-fgm and box-cutplane solve fixed instance classes, each to its gap or to
the iteration cap.  How many cutting-plane iterations reach the gap varies a
lot between random draws (box d=2: about 80 to 430), so a few random draws per
run would make the cross-seed spread of time and counts a spread of draws.  A
class is therefore one fixed draw, and the seed draws its orientation: a
signed permutation of the x coordinates (and sign flips of the y coordinates
for quad-fgm).  Box, ball and objective are symmetric under it, so the solver
sees different numbers for every seed but does the same work.  The box
classes include the d=8 draw that stops at the 3000-iteration cap above the
gap, so that gap miss shows on every seed.

A solve that stops at the cap above the gap is a gap miss: it counts in
``fail_rate`` but is no failed operation, because the library returned its
best point with the stop reason it states.  A solve that raises, stops for
another reason above the gap or breaks a ledger identity is a failure.

With a ``tracer`` the set runs under the traced entry points of ``tracing.py``;
the problem oracles the benchmark builds itself (the block quadratic and the
box objective) are wrapped as the ``problems`` layer, like those built by
``minmin.problems``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from minmin import cli as mm_cli
from minmin import core as mm_core
from minmin import problems as mm_problems
from minmin import solver as mm_solver
from minmin import vaidya as mm_vaidya

from hostgauge import GAUGE

# quad-fgm: the acceptance suite's coupled block quadratic, normalized to L = 1.
KAPPAS = (10.0, 1000.0)  # one fixed draw each
QUAD_MAX_ITERATIONS = 1500
QUAD_GAP = 1e-6  # stop_below; f* = 0, so this is the stated gap

# logreg-cli: the CLI's default synthetic spec and the heavy-tailed variant.
LOGREG_SPEC = "logreg:m=200,features=55"
LOGREG_ROWS = 200
LOGREG_BUDGET = 40000
DATASETS = ("synthetic", "heavy")
LOGREG_LABELS = tuple(f"{method}.{dataset}" for method in mm_cli.METHODS for dataset in DATASETS)

# box-cutplane: f(x) = ||x - x*||^2 over [-1, 1]^d.
DIMENSIONS = (2, 3, 5, 8)  # one fixed draw each, and BOX_CAP_MISS
BOX_CAP_MISS = (8, 8, 3)  # (draw seed, d, j): a d=8 draw that stops at the cap
BOX_MAX_ITERATIONS = 3000
BOX_GAP = 1e-6

CLASS_SEED = 0  # the fixed draws are those of this seed


@dataclass
class SetResult:
    """Outcome of one pass over a workload's fixed set of solves."""

    solve_wall_s: list[float] = field(default_factory=list)  # per solve, in order
    solve_cpu_s: list[float] = field(default_factory=list)
    # per solve, wall and CPU time less the gauge's readings, in readings
    # (hostgauge.py); None where the gauge was not running
    solve_wall_norm: list[float | None] = field(default_factory=list)
    solve_cpu_norm: list[float | None] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    gap_misses: list[str] = field(default_factory=list)
    oracle_calls: int = 0
    grad_y_calls: int = 0
    objectives: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.solve_wall_s)

    def counts(self) -> dict:
        """Deterministic outputs of the set: equal on every pass of one seed."""
        return {
            "oracle_calls": self.oracle_calls,
            "grad_y_calls": self.grad_y_calls,
            "gap_misses": len(self.gap_misses),
            "objectives": self.objectives,
            "artifacts": self.artifacts,
        }


def _solve(result: SetResult, label: str, call, check):
    """Time ``call()`` (wall and process CPU), then run ``check(value)``; a
    raise or a failed check counts the solve as failed with a one-line
    reason."""
    result.attempted += 1
    mark = GAUGE.mark()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        value = call()
    except Exception as exc:  # a failing solve is counted, not fatal
        value, problem = None, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    gauge_wall, gauge_cpu, speed = GAUGE.span(mark)
    result.solve_wall_s.append(wall - gauge_wall)
    result.solve_cpu_s.append(cpu - gauge_cpu)
    result.solve_wall_norm.append(None if speed is None else (wall - gauge_wall) * speed)
    result.solve_cpu_norm.append(None if speed is None else (cpu - gauge_cpu) * speed)
    if value is not None:
        try:
            problem = check(value)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        result.failed += 1
        result.failures.append(f"{label}: {problem}")


def _instance_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _gap_problem(result: SetResult, label: str, best: float, gap: float,
                 stop_reason: str) -> str | None:
    """None if ``best`` reached ``gap``; a solve that stopped at its iteration
    cap above the gap is recorded as a gap miss; any other stop above the gap
    is a failure."""
    if best <= gap:
        return None
    if stop_reason == "max_iterations":
        result.gap_misses.append(f"{label}: best value {best:.3e} above gap {gap:g} at the cap")
        return None
    return f"best value {best:.3e} above gap {gap:g} ({stop_reason})"


# ----------------------------------------------------------------------------
# quad-fgm
# ----------------------------------------------------------------------------


def _block_quadratic(B: np.ndarray, x0: np.ndarray, kappa: float) -> mm_solver.MinMinProblem:
    """F(x, y) = 0.5*(y - Bx)' D (y - Bx) + 0.05*||x - x0||^2, f* = 0.

    D spans [1/kappa, 1] geometrically, so L = 1 and mu = 1/kappa.
    """
    y_dim, x_dim = B.shape
    nu = 0.1
    D = np.geomspace(1.0, kappa, y_dim) / kappa
    radius_x = 1.0 + float(np.linalg.norm(x0))
    radius_y = 1.0 + float(np.linalg.norm(B, 2)) * radius_x

    def value(x, y):
        r = y - B @ x
        return float(0.5 * r @ (D * r) + 0.5 * nu * (x - x0) @ (x - x0))

    return mm_solver.MinMinProblem(
        x_dim=x_dim, y_dim=y_dim,
        set_x=mm_core.Ball(np.zeros(x_dim), radius_x),
        set_y=mm_core.Ball(np.zeros(y_dim), radius_y),
        value=value,
        grad_y=lambda x, y: D * (y - B @ x),
        subgrad_x=lambda x, y: -B.T @ (D * (y - B @ x)) + nu * (x - x0),
        L=1.0, mu=1.0 / kappa, grad_norm_bound=0.0,
    )


def _signed_permutation(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.permutation(d), rng.choice([-1.0, 1.0], size=d)


def quad_setup(seed: int, workdir: Path) -> list:
    """Each class's fixed (B, x0), turned by a seed-drawn signed permutation
    of x and sign flips of y: F, both balls and the cutting plane's start
    are symmetric under it."""
    problems = []
    for i, kappa in enumerate(KAPPAS):
        draw = _instance_rng(CLASS_SEED, i, 0)
        B = draw.normal(size=(50, 5)) / math.sqrt(50)
        x0 = 0.5 * draw.normal(size=5)
        turn = _instance_rng(seed, i, 0)
        perm, signs = _signed_permutation(turn, 5)
        flips = turn.choice([-1.0, 1.0], size=50)
        B = flips[:, None] * B[:, perm] * signs
        problems.append((f"kappa={kappa:g}", _block_quadratic(B, x0[perm] * signs, kappa)))
    return problems


def quad_run(problems: list, workdir: Path, tracer=None) -> SetResult:
    result = SetResult()
    config = mm_solver.MinMinConfig(
        target_epsilon=1e-7, inner="restarted-fgm",
        vaidya=mm_vaidya.VaidyaConfig(max_iterations=QUAD_MAX_ITERATIONS),
    )
    for label, problem in problems:
        if tracer is not None:
            problem = tracer.wrap_problem(problem)
        ledger = mm_core.OracleLedger()

        def call(problem=problem, ledger=ledger):
            return mm_solver.solve_minmin(
                problem, config, ledger=ledger, history=mm_core.RunHistory(clock=None),
                stop_below=QUAD_GAP,
            )

        def check(res, label=label, ledger=ledger):
            result.oracle_calls += res.oracle_calls
            result.grad_y_calls += ledger.grad_y_calls
            result.objectives[label] = res.value
            if ledger.grad_x_calls != res.oracle_calls:
                return f"grad_x_calls {ledger.grad_x_calls} != oracle calls {res.oracle_calls}"
            solves = sum(it.barrier_solves for it in res.vaidya.iterations)
            if ledger.matrix_inversions != solves:
                return f"inversions {ledger.matrix_inversions} != barrier solves {solves}"
            return _gap_problem(result, f"quad {label}", res.value, QUAD_GAP,
                                res.vaidya.stop_reason)

        _solve(result, f"quad {label}", call, check)
    return result


# ----------------------------------------------------------------------------
# logreg-cli
# ----------------------------------------------------------------------------


def heavy_tailed_dataset(seed: int) -> mm_problems.Dataset:
    """The acceptance suite's heavy-tailed classification data: 200 x 55
    standardized features, 10 rows of which have their first 5 (x-block)
    columns scaled by 400."""
    m, total, d = LOGREG_ROWS, 55, 5
    rng = mm_core.seeded_rng(seed)
    features = rng.normal(size=(m, total))
    direction = rng.normal(size=total) / math.sqrt(total)
    margins = features @ direction + 0.3 * rng.normal(size=m)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    flip = rng.random(m) < 0.05
    labels[flip] *= -1.0
    hot = rng.choice(m, size=10, replace=False)
    features[hot, :d] *= 400.0
    return mm_problems.Dataset(features, labels)


def logreg_setup(seed: int, workdir: Path) -> list:
    data_path = workdir / "heavy.libsvm"
    mm_problems.save_libsvm(heavy_tailed_dataset(seed), data_path)
    configs = []
    for dataset in DATASETS:
        source = (
            {"synthetic_spec": LOGREG_SPEC} if dataset == "synthetic"
            else {"data_path": str(data_path)}
        )
        for method in mm_cli.METHODS:
            configs.append((dataset, mm_cli.ExperimentConfig(
                method=method, d=5, eps=1e-6, seed=seed, budget=LOGREG_BUDGET,
                reg=0.005, **source,
            )))
    return configs


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("history.csv", "summary.txt"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def logreg_run(configs: list, workdir: Path, tracer=None) -> SetResult:
    result = SetResult()
    for k, (dataset, cfg) in enumerate(configs):
        out_dir = workdir / f"run-{k}"
        label = f"{cfg.method}.{dataset}"

        def call(cfg=cfg, out_dir=out_dir):
            return mm_cli.run_experiment(cfg, out_dir)

        def check(outcome, label=label, out_dir=out_dir, joint=cfg.method == "varag-joint"):
            summary, history = outcome
            result.oracle_calls += 0 if joint else summary["outer_iters"]
            result.grad_y_calls += summary["grad_y_calls"]
            result.objectives[label] = summary["best_value"]
            result.artifacts[label] = _digest(out_dir)
            limit = LOGREG_BUDGET + LOGREG_ROWS + (1 if joint else 0)
            if summary["grad_y_calls"] > limit:
                return f"grad_y_calls {summary['grad_y_calls']} over budget contract {limit}"
            expected_x = summary["grad_y_calls"] if joint else summary["outer_iters"] * LOGREG_ROWS
            if summary["grad_x_calls"] != expected_x:
                return f"grad_x_calls {summary['grad_x_calls']} != {expected_x}"
            start = history.records[0].objective
            if not math.isfinite(summary["best_value"]) or summary["best_value"] > start:
                return f"best value {summary['best_value']!r} above the start {start!r}"
            return None

        _solve(result, f"logreg {label}", call, check)
    return result


# ----------------------------------------------------------------------------
# box-cutplane
# ----------------------------------------------------------------------------


def box_setup(seed: int, workdir: Path) -> list:
    """Each class's fixed target x*, turned by a seed-drawn signed
    permutation: the box is symmetric under it."""
    draws = [(CLASS_SEED, d, 0) for d in DIMENSIONS] + [BOX_CAP_MISS]
    targets = []
    for k, (draw_seed, d, j) in enumerate(draws):
        target = _instance_rng(draw_seed, d, j).uniform(-0.5, 0.5, size=d)
        perm, signs = _signed_permutation(_instance_rng(seed, d, k), d)
        label = f"d={d}" + (" cap-miss draw" if (draw_seed, d, j) == BOX_CAP_MISS else "")
        targets.append((label, d, target[perm] * signs))
    return targets


def box_run(targets: list, workdir: Path, tracer=None) -> SetResult:
    result = SetResult()
    for label, d, target in targets:
        state = {"best": math.inf, "calls": 0}

        def objective(x, target=target, state=state):
            state["calls"] += 1
            value = float((x - target) @ (x - target))
            state["best"] = min(state["best"], value)
            return value, 2.0 * (x - target)

        oracle = tracer.wrap_oracle(objective) if tracer is not None else objective
        ledger = mm_core.OracleLedger()
        box = mm_core.Box(-np.ones(d), np.ones(d))

        def call(oracle=oracle, d=d, box=box, ledger=ledger, state=state):
            return mm_vaidya.vaidya_minimize(
                oracle, d, box, mm_vaidya.VaidyaConfig(max_iterations=BOX_MAX_ITERATIONS),
                ledger, stop_condition=lambda: state["best"] <= BOX_GAP,
            )

        def check(res, label=label, ledger=ledger, state=state):
            result.oracle_calls += res.oracle_calls
            result.objectives[label] = res.best_value
            if res.oracle_calls != state["calls"]:
                return f"oracle_calls {res.oracle_calls} != {state['calls']} queries seen"
            solves = sum(it.barrier_solves for it in res.iterations)
            if ledger.matrix_inversions != solves:
                return f"inversions {ledger.matrix_inversions} != barrier solves {solves}"
            return _gap_problem(result, f"box {label}", res.best_value, BOX_GAP, res.stop_reason)

        _solve(result, f"box {label}", call, check)
    return result


@dataclass(frozen=True)
class Workload:
    setup: object
    run_set: object


WORKLOADS = {
    "quad-fgm": Workload(quad_setup, quad_run),
    "logreg-cli": Workload(logreg_setup, logreg_run),
    "box-cutplane": Workload(box_setup, box_run),
}
