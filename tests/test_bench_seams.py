"""The benchmark's hold on the package: the names ``perfbench/`` imports,
patches and calls.

The benchmark lives outside ``src/`` and is not run by the test suite, so a
rename or deletion in the package would otherwise surface only when a
benchmark run fails.  These tests import it, enter and leave its tracer, and
build each workload's inputs once; they change nothing under ``perfbench/``.
"""

from pathlib import Path

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
