"""The benchmark's hold on the package: the names ``perfbench/`` imports,
patches and calls.

The benchmark lives outside ``src/`` and is not run by the test suite, so a
rename or deletion in the package would otherwise surface only when a
benchmark run fails.  These tests import it, enter and leave its tracer, and
build each workload's inputs once; they change nothing under ``perfbench/``.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from minmin import cli, core, fgm, solver, vaidya, varag

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, core, fgm, solver, vaidya, varag, core.Ball, core.RunHistory)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def _attributes() -> dict:
    return {
        (owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()
    }


def test_tracer_patches_existing_names_and_restores_them(perfbench):
    tracing, _ = perfbench
    before = _attributes()
    with tracing.Tracer().patched():
        during = _attributes()
    after = _attributes()
    changed = {key for key, value in during.items() if before.get(key) is not value}
    assert changed <= before.keys()  # every patch replaces a name the package has
    assert {
        ("minmin.cli", "run_experiment"),
        ("minmin.solver", "fgm_run"),
        ("minmin.solver", "inner_solve"),
        ("minmin.vaidya", "np"),
        ("RunHistory", "write_csv"),
        ("Ball", "project"),
    } <= changed
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_workload_sets_up(perfbench, tmp_path):
    _, workloads = perfbench
    assert set(workloads.WORKLOADS) == {"quad-fgm", "logreg-cli", "box-cutplane"}
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        assert workload.setup(3, workdir), name


def _small_block_quadratic() -> solver.MinMinProblem:
    """F(x, y) = 0.5*(y - Bx)' D (y - Bx) + 0.05*||x - x0||^2 with L/mu = 30."""
    rng = core.seeded_rng(5)
    B = rng.normal(size=(20, 3)) / math.sqrt(20.0)
    x0 = 0.5 * rng.normal(size=3)
    D = np.geomspace(1.0, 30.0, 20) / 30.0
    radius_x = 1.0 + float(np.linalg.norm(x0))
    return solver.MinMinProblem(
        x_dim=3, y_dim=20,
        set_x=core.Ball(np.zeros(3), radius_x),
        set_y=core.Ball(np.zeros(20), 1.0 + float(np.linalg.norm(B, 2)) * radius_x),
        value=lambda x, y: float(0.5 * (y - B @ x) @ (D * (y - B @ x))
                                 + 0.05 * (x - x0) @ (x - x0)),
        grad_y=lambda x, y: D * (y - B @ x),
        subgrad_x=lambda x, y: -B.T @ (D * (y - B @ x)) + 0.1 * (x - x0),
        L=1.0, mu=1.0 / 30.0,
    )


def _solve_counts() -> tuple[int, int, str]:
    ledger = core.OracleLedger()
    result = solver.solve_minmin(
        _small_block_quadratic(),
        solver.MinMinConfig(target_epsilon=1e-7, vaidya=vaidya.VaidyaConfig(max_iterations=120)),
        ledger=ledger, stop_below=1e-6,
    )
    return ledger.grad_y_calls, result.oracle_calls, repr(result.value)


def test_traced_solve_matches_untraced(perfbench, monkeypatch):
    # The tracer's wrappers must pass every argument through: a keyword that
    # one of them dropped (solve_minmin hands inner_solve its measured-gap
    # stop by keyword) would change the traced run's counts.
    tracing, _ = perfbench
    untraced = _solve_counts()
    with tracing.Tracer().patched():
        traced = _solve_counts()
    assert traced == untraced

    # The run is one where that keyword matters: without it, the inner
    # solves spend more gradients.
    full = solver.inner_solve
    monkeypatch.setattr(
        solver, "inner_solve",
        lambda *args, delta_target=None, **kwargs: full(*args, **kwargs),
    )
    assert _solve_counts()[0] > untraced[0]
