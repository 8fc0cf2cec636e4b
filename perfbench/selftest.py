"""Self-test of the benchmark: two traced runs of one seed agree on every count.

    python3 perfbench/selftest.py [--seed 3] [workload ...]

For each workload (all by default) this makes two ``run.py --trace 1`` runs
with the same seed and checks that:

* both report ``correct``;
* every metric in unit ``count`` that a run prints, end-to-end and per-layer
  (gradient and oracle calls, gap misses, factorizations, Newton steps, ...),
  is identical in the two runs;
* the per-layer self times of the traced pass add up to at least 95% of the
  untraced wall time, both counted in host-gauge readings (hostgauge.py) so
  that a change of host speed between the passes does not count.

It also prints the tracing overhead and the self time of the outermost entry
spans, where code the tracer does not wrap lands.  Exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("quad-fgm", "logreg-cli", "box-cutplane")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """The result line of one traced run, and every count metric it printed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=HERE.parent,
    )
    lines = out.stdout.strip().splitlines()
    counts = {}
    for line in lines[:-1]:
        name, eq, value, *unit = line.split()
        if eq == "=" and unit == ["count"]:
            counts[name] = float(value)
    return json.loads(lines[-1]), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        (first, a_counts), (second, b_counts) = (traced_run(workload, args.seed),
                                                 traced_run(workload, args.seed))
        a, b = first["metrics"], second["metrics"]
        counts = sorted(a_counts)
        differ = [name for name in counts if a_counts[name] != b_counts.get(name)]
        coverage = min(a["trace.coverage"]["value"], b["trace.coverage"]["value"])
        passed = first["correct"] and second["correct"] and not differ and coverage >= 0.95
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {workload} seed {args.seed}: "
              f"{len(counts) - len(differ)}/{len(counts)} counts identical"
              f"{' (differ: ' + ', '.join(differ) + ')' if differ else ''}; "
              f"correct {first['correct']}/{second['correct']}; "
              f"layer coverage {coverage:.4f}; tracing overhead "
              f"{a['trace.overhead_ratio']['value']:.1%} in gauge readings "
              f"({a['trace.overhead_s']['value']:.2f} s on "
              f"{a['trace.untraced_wall_s']['value']:.2f} s raw); entry self time "
              f"{a['trace.entry_self_s']['value']:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
