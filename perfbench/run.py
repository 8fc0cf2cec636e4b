"""Benchmark of the minmin toolkit: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload quad-fgm --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one process, a fixed set of solves per seed):

  quad-fgm      solve_minmin with restarted-FGM inner solves on the coupled
                block quadratic (d=5, n=50, L/mu in {10, 1000}), to gap 1e-6
  logreg-cli    cli.run_experiment for approach1, approach2 and varag-joint
                at budget 40000, on the default synthetic logistic data and on
                a heavy-tailed LIBSVM file written at set-up
  box-cutplane  vaidya_minimize on ||x - x*||^2 over [-1, 1]^d, d in
                {2, 3, 5, 8}, to gap 1e-6

quad-fgm and box-cutplane solve fixed instance classes turned by a
seed-drawn symmetry, each to its gap or to the iteration cap; a stop at the
cap above the gap is a gap miss and counts in ``fail_rate`` (see
workloads.py).

Set-up (input generation, the LIBSVM file) runs several times before every
pass and reports its median.  The set of solves runs at least twice and
again while another pass fits in ``--seconds``, with the host gauge of
hostgauge.py reading the host's speed every 20 ms.  ``wall_norm`` and
``cpu_norm`` are each solve's wall and CPU time in gauge readings, its
fastest pass, summed over the set: the host's speed on this kind of machine
swings by up to 2x for seconds to minutes at a time, and a figure in seconds
would follow it.  The gauge corrects a slow spell less than fully, so the
fastest pass is the one nearest the truth.  ``wall_s`` and ``cpu_s`` are the
same in seconds, with the gauge's readings taken out.  CPU time is reported
but not bounded: it counts the time OpenBLAS's second thread spins waiting
for work, which follows the scheduler more than the program.  Every pass
must give the same counts, objectives and CLI artifact hashes.

With ``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer split of ``tracing.py``, measured on one
traced pass between the untraced passes and one last untraced pass.  The lines
before it report every metric by name and unit and record the machine.  The
program is imported from ``src/`` next to this directory; without it the run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostgauge import GAUGE

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5  # per pass
MIN_PASSES = 2  # to compare counts and artifacts across passes
WORKDIR_NAME = ".perfbench_work"


def _import_program():
    """Import ``minmin`` from the checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    if not (src / "minmin" / "__init__.py").is_file():
        sys.exit(f"error: no minmin package under {src}")
    sys.path.insert(0, str(src))
    import minmin

    if Path(minmin.__file__).resolve().parent != (src / "minmin").resolve():
        sys.exit(f"error: imported minmin from {minmin.__file__}, not from {src}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _openblas_threads() -> str:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _calibration_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed drift."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "calibration_loop_s": _calibration_loop_s(),
        "platform": platform.platform(),
    }


def _timed_setup(workload, seed: int, workdir: Path, times: list):
    """Set up ``SETUP_REPEATS`` times, appending each set-up's seconds."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return inputs


def _passes(workload, seed: int, workdir: Path, seconds: float, setup_times: list):
    """Untraced passes over the set while another one fits in ``seconds``,
    and the inputs of the last.

    Set-up runs again before each pass, so that its median is taken over the
    whole run, not over one moment of it."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        inputs = _timed_setup(workload, seed, workdir, setup_times)
        with GAUGE.running():
            passes.append(workload.run_set(inputs, workdir))
        last = time.perf_counter() - pass_start
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            return passes, inputs


def _fastest_per_solve(times) -> float:
    """Sum over the solves of a set of each solve's least time over passes."""
    return sum(min(per_pass) for per_pass in zip(*times))


def _answers(objectives: dict, labels) -> dict:
    """Mean best objective over the set, and each logreg method and dataset's."""
    out = {"final_objective": statistics.fmean(objectives.values())}
    for label in labels:
        out[f"final_objective.{label}"] = objectives.get(label, 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    workdir = ROOT / WORKDIR_NAME / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        info = machine()
        setup_times = []
        passes, inputs = _passes(workload, args.seed, workdir, args.seconds, setup_times)
        if args.trace:
            from tracing import LAYERS, Tracer

            tracer = Tracer()
            with GAUGE.running():
                with tracer.patched():
                    traced = workload.run_set(inputs, workdir, tracer)
                # One more untraced pass after the traced one, so that a
                # change of host speed during the traced pass shows on both
                # sides.
                passes += [traced, workload.run_set(inputs, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORKDIR_NAME).rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    consistent = all(p.counts() == passes[0].counts() for p in passes[1:])
    if not consistent:
        failures.append("passes over the same inputs gave different counts or artifacts")

    untraced = [p for p in passes if p is not traced] if args.trace else passes
    wall_s = _fastest_per_solve(p.solve_wall_s for p in untraced)
    wall_norm = _fastest_per_solve(p.solve_wall_norm for p in untraced)
    gap_misses = sum(len(p.gap_misses) for p in passes)
    report = {
        "wall_norm": (wall_norm, "readings"),
        "cpu_norm": (_fastest_per_solve(p.solve_cpu_norm for p in untraced), "readings"),
        "setup_s": (statistics.median(setup_times), "s"),
        "oracle_calls": (passes[0].oracle_calls, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (_fastest_per_solve(p.solve_cpu_s for p in untraced), "s"),
        "gauge_ms": (1e3 * statistics.median(GAUGE.readings), "ms"),
        "grad_y_calls": (passes[0].grad_y_calls, "count"),
        "gap_misses": (len(passes[0].gap_misses), "count"),
        "fail_rate": ((failed + gap_misses) / attempted, "ratio"),
    }
    answers = _answers(passes[0].objectives, workloads.LOGREG_LABELS)
    report.update({name: (value, "objective") for name, value in answers.items()})
    if args.trace:
        layers = tracer.metrics()
        covered = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        # The layers' seconds in gauge readings at the traced pass's host
        # speed, as a share of the untraced passes' wall_norm.
        traced_norm = sum(traced.solve_wall_norm)
        layers.update({
            "trace.untraced_wall_s": wall_s,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - wall_s,
            "trace.overhead_ratio": traced_norm / wall_norm - 1.0,
            "trace.coverage": covered * (traced_norm / traced.wall_s) / wall_norm,
            "trace.entry_self_s": tracer.entry_self[0],
            "trace.entry_self_share": tracer.entry_self[0] / traced.wall_s,
        })
        report.update({name: (value, _unit(name)) for name, value in layers.items()})

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    for metric in declared:
        if report[metric["name"]][1] != metric["unit"]:
            sys.exit(f"error: {metric['name']} is in {report[metric['name']][1]}, "
                     f"BENCHMARK.json says {metric['unit']}")
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} solves attempted, "
          f"{failed} failed, {gap_misses} gap misses; untraced pass wall times "
          + ", ".join(f"{p.wall_s:.3f}" for p in untraced) + " s")
    for failure in failures:
        print(f"FAILED {failure}")
    for miss in passes[0].gap_misses:
        print(f"GAP MISS {miss}")
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.9g} {unit}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_share", "_per_iter", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
