"""Per-layer tracing of ``minmin`` from outside the package.

``Tracer.patched()`` swaps the public entry points of each module for timed
wrappers, and restores them on exit; nothing under ``src/`` changes.  A span
is one call of a wrapped function.  Spans nest on a stack: a span's self time
is its duration minus the time of the spans it called.  The self time of the
outermost spans, the entry points the benchmark calls, is also summed on its
own: code the tracer does not wrap (``RunHistory``, ``CountingOracle``, the
ledger, the benchmark's closures) lands there.  Spans are aggregated
in memory by name and by (caller, callee) edge, because a traced set makes
millions of them.

Layers are the ``minmin`` modules, and a span's layer is the prefix of its
name.  The wrapped entry points are:

  cli       run_experiment, build_problem, RunHistory.write_csv (artifacts)
  solver    solve_minmin, the outer oracle it hands to the cutting plane,
            inner_solve, delta_subgradient
  vaidya    vaidya_minimize, barrier_quantities, volumetric_value
  fgm       fgm_run
  varag     varag_run (inner steps counted through varag_inner_prox)
  problems  the problem oracles (value, grad_y, subgrad_x and per-component
            versions), load_libsvm, make_synthetic_classification
  core      Ball.project

Time is read from ``HostGauge.clock``, so that the gauge's readings, which
run from a signal handler inside whatever span is open, count in none.

Factorizations inside ``minmin.vaidya`` (``np.linalg.cholesky`` and
``np.linalg.solve``) are counted through a numpy stand-in bound to that
module's ``np`` name while tracing.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict

import numpy as np

from hostgauge import GAUGE
from minmin import cli as mm_cli
from minmin import core as mm_core
from minmin import fgm as mm_fgm
from minmin import solver as mm_solver
from minmin import vaidya as mm_vaidya
from minmin import varag as mm_varag

LAYERS = ("vaidya", "solver", "fgm", "varag", "problems", "cli", "core")


class _CountingLinalg:
    """``numpy.linalg`` with counted factorizations."""

    def __init__(self, counts: dict):
        self._counts = counts

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def cholesky(self, a, *args, **kwargs):
        self._counts["factorizations"] += 1
        return np.linalg.cholesky(a, *args, **kwargs)

    def solve(self, a, b, *args, **kwargs):
        self._counts["factorizations"] += 1
        return np.linalg.solve(a, b, *args, **kwargs)


class _NumpyWithCountingLinalg:
    def __init__(self, counts: dict):
        self.linalg = _CountingLinalg(counts)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> exclusive seconds
        self.calls = defaultdict(int)  # span name -> number of spans
        self.edges = defaultdict(float)  # (caller, callee) -> callee seconds
        self.counts = defaultdict(int)  # work counted at the span boundaries
        self.entry_self = [0.0]  # self seconds of the outermost spans
        self._stack: list[list] = []  # [name, seconds spent in callees]

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one ``name`` span per call."""
        stack = self._stack
        clock = GAUGE.clock  # the gauge's readings count in no span
        total, self_time, calls, edges = self.total, self.self_time, self.calls, self.edges
        entry_self = self.entry_self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                    edges[(stack[-1][0], name)] += elapsed
                else:
                    entry_self[0] += elapsed - frame[1]

        return traced

    def wrap_oracle(self, fn):
        """A user objective passed straight to the library: the problems layer."""
        return self.wrap("problems.oracle", fn)

    def wrap_problem(self, problem: mm_solver.MinMinProblem) -> mm_solver.MinMinProblem:
        """Copy of ``problem`` whose oracles record problems-layer spans."""
        oracle = self.wrap_oracle
        comps = problem.components
        if comps is not None:
            comps = dataclasses.replace(
                comps, value=oracle(comps.value), grad_y=oracle(comps.grad_y),
                subgrad_x=oracle(comps.subgrad_x),
            )
        return dataclasses.replace(
            problem, value=oracle(problem.value), grad_y=oracle(problem.grad_y),
            subgrad_x=oracle(problem.subgrad_x), components=comps,
        )

    # ------------------------------------------------------------------
    # Entry points that also count work.  The counting runs outside the
    # span, after the wrapped call has returned.

    def _vaidya_minimize(self, fn):
        counts, stack = self.counts, self._stack
        timed = self.wrap("vaidya.minimize", fn)

        def vaidya_minimize(oracle, dim, region, config=None, ledger=None, **kwargs):
            start = ledger.matrix_inversions if ledger is not None else 0
            if stack and stack[-1][0] == "solver.solve":
                oracle = self.wrap("solver.oracle", oracle)
            result = timed(oracle, dim, region, config, ledger, **kwargs)
            its = result.iterations
            counts["vaidya.iterations"] += len(its)
            counts["vaidya.drops"] += sum(it.action == "drop" for it in its)
            counts["vaidya.newton_steps"] += sum(it.barrier_solves for it in its)
            if ledger is not None:
                counts["vaidya.ledger_inversions"] += ledger.matrix_inversions - start
            return result

        return vaidya_minimize

    def _inner_solve(self, fn):
        counts = self.counts
        timed = self.wrap("solver.inner", fn)

        def inner_solve(problem, x, eps_inner, selector="restarted-fgm", seed=0, ledger=None,
                        **kwargs):
            start = ledger.grad_y_calls if ledger is not None else 0
            value = timed(problem, x, eps_inner, selector, seed, ledger, **kwargs)
            # Certified at entry: the only work was the one full gradient
            # of the entry certificate.
            one_gradient = problem.components.m if problem.components is not None else 1
            if ledger is not None and ledger.grad_y_calls - start == one_gradient:
                counts["solver.warm_hits"] += 1
            return value

        return inner_solve

    def _fgm_run(self, fn):
        counts = self.counts
        timed = self.wrap("fgm.run", fn)

        def fgm_run(oracle, region, y0, L, num_steps, **kwargs):
            value = timed(oracle, region, y0, L, num_steps, **kwargs)
            counts["fgm.steps"] += num_steps
            return value

        return fgm_run

    def _varag_run(self, fn):
        counts = self.counts
        timed = self.wrap("varag.run", fn)

        def varag_run(oracle, region, y0, epochs, seed, ledger=None, *args, **kwargs):
            start = ledger.grad_y_calls if ledger is not None else 0
            value = timed(oracle, region, y0, epochs, seed, ledger, *args, **kwargs)
            if ledger is not None:
                counts["varag.component_grads"] += ledger.grad_y_calls - start
            return value

        return varag_run

    def _count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Install the traced entry points for the duration of the block."""
        make_logreg = mm_cli.make_logreg_minmin
        patches = [
            (mm_cli, "run_experiment", self.wrap("cli.run", mm_cli.run_experiment)),
            (mm_cli, "build_problem", self.wrap("cli.build", mm_cli.build_problem)),
            (mm_core.RunHistory, "write_csv", self.wrap("cli.write", mm_core.RunHistory.write_csv)),
            (mm_cli, "load_libsvm", self.wrap("problems.load", mm_cli.load_libsvm)),
            (mm_cli, "make_synthetic_classification",
             self.wrap("problems.make", mm_cli.make_synthetic_classification)),
            (mm_cli, "make_logreg_minmin",
             lambda *a, **k: self.wrap_problem(make_logreg(*a, **k))),
            (mm_cli, "varag_run", self._varag_run(mm_cli.varag_run)),
            (mm_solver, "solve_minmin", self.wrap("solver.solve", mm_solver.solve_minmin)),
            (mm_cli, "solve_minmin", self.wrap("solver.solve", mm_cli.solve_minmin)),
            (mm_solver, "inner_solve", self._inner_solve(mm_solver.inner_solve)),
            (mm_solver, "delta_subgradient",
             self.wrap("solver.subgrad", mm_solver.delta_subgradient)),
            (mm_solver, "fgm_run", self._fgm_run(mm_fgm.fgm_run)),
            (mm_solver, "varag_run", self._varag_run(mm_varag.varag_run)),
            (mm_solver, "vaidya_minimize", self._vaidya_minimize(mm_vaidya.vaidya_minimize)),
            (mm_vaidya, "vaidya_minimize", self._vaidya_minimize(mm_vaidya.vaidya_minimize)),
            (mm_vaidya, "barrier_quantities",
             self.wrap("vaidya.barrier", mm_vaidya.barrier_quantities)),
            (mm_vaidya, "volumetric_value",
             self.wrap("vaidya.linesearch", mm_vaidya.volumetric_value)),
            (mm_vaidya, "np", _NumpyWithCountingLinalg(self.counts)),
            (mm_varag, "varag_inner_prox",
             self._count_calls("varag.steps", mm_varag.varag_inner_prox)),
            (mm_core.Ball, "project", self.wrap("core.project", mm_core.Ball.project)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, replacement in patches:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_self(self) -> dict[str, float]:
        split = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            split[name.split(".", 1)[0]] += seconds
        return split

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (seconds, counts)."""
        t, c, n = self.total, self.counts, self.calls
        layer_self = self.layer_self()
        iterations = c["vaidya.iterations"]
        fgm_s = t["fgm.run"]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "vaidya.barrier_s": t["vaidya.barrier"],
            "vaidya.barrier_calls": n["vaidya.barrier"],
            "vaidya.linesearch_s": t["vaidya.linesearch"],
            "vaidya.linesearch_calls": n["vaidya.linesearch"],
            "vaidya.factorizations": c["factorizations"],
            "vaidya.factorizations_per_iter": c["factorizations"] / iterations if iterations else 0.0,
            "vaidya.newton_steps": c["vaidya.newton_steps"],
            "vaidya.iterations": iterations,
            "vaidya.drop_ratio": c["vaidya.drops"] / iterations if iterations else 0.0,
            "vaidya.ledger_inversions": c["vaidya.ledger_inversions"],
            "solver.inner_s": t["solver.inner"],
            "solver.inner_self_s": self.self_time["solver.inner"],
            "solver.inner_calls": n["solver.inner"],
            "solver.warm_hit_ratio": (
                c["solver.warm_hits"] / n["solver.inner"] if n["solver.inner"] else 0.0
            ),
            "solver.subgrad_s": t["solver.subgrad"],
            "fgm.run_s": fgm_s,
            "fgm.runs": n["fgm.run"],
            "fgm.steps": c["fgm.steps"],
            "fgm.step_us": 1e6 * fgm_s / c["fgm.steps"] if c["fgm.steps"] else 0.0,
            "fgm.oracle_share": self.edges[("fgm.run", "problems.oracle")] / fgm_s if fgm_s else 0.0,
            "varag.run_s": t["varag.run"],
            "varag.runs": n["varag.run"],
            "varag.steps": c["varag.steps"],
            "varag.component_grads": c["varag.component_grads"],
            "varag.step_us": 1e6 * t["varag.run"] / c["varag.steps"] if c["varag.steps"] else 0.0,
            "problems.oracle_s": t["problems.oracle"],
            "problems.oracle_calls": n["problems.oracle"],
            "cli.build_s": t["cli.build"],
            "cli.write_s": t["cli.write"],
            "core.project_s": t["core.project"],
            "core.project_calls": n["core.project"],
        })
        return out
