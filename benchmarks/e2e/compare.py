"""Repeatability check: do two sets of runs of one checkout agree?

    python3 benchmarks/e2e/compare.py --sets 2 --runs 3

Runs ``run.py`` ``runs`` times per set and workload at the benchmark's
``run_seconds``, alternating which set goes first in each round so drift
on the machine lands on both sets.  Run ``i`` of every set uses seed
``default + i``.  For each (workload, metric) it prints every set's median
and inter-quartile range.  For the end-to-end metrics it also prints
whether each set's median is within the metric's bound in BENCHMARK.json
of the first set's; the per-operation detail has no bound.  The exit code
is 1 when any pair disagrees.
"""

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def measure(workload, seed):
    """``name -> value`` for every numeric metric one run prints."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(run.RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if process.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{process.stderr}")
    values = {}
    for line in process.stdout.splitlines()[:-1]:
        name, value, _unit = line.split(" ")
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


def spread(values):
    """Median and inter-quartile range."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give a spread")
    bounds = {m["name"]: m["bound"] for m in run.BENCHMARK["end_to_end"]}
    agree = True
    for workload in run.WORKLOADS:
        seed0 = run.DEFAULT_SEEDS[run.WORKLOADS[workload][0]]
        samples = [[] for _ in range(args.sets)]
        for index in range(args.runs):
            order = range(args.sets) if index % 2 == 0 else reversed(range(args.sets))
            for which in order:
                samples[which].append(measure(workload, seed0 + index))
        print(f"{workload}")
        for name in samples[0][0]:
            if name not in bounds and name not in run.DETAIL_METRICS:
                continue
            stats = [spread([s[name] for s in runs]) for runs in samples]
            base = stats[0][0]
            worst = max(abs(median - base) / base for median, _ in stats[1:])
            cells = "  ".join(f"{m:.6g} (IQR {q:.3g})" for m, q in stats)
            if name in bounds:
                ok = worst <= bounds[name]
                agree = agree and ok
                verdict = f"bound {bounds[name]} {'agree' if ok else 'DISAGREE'}"
            else:
                verdict = "detail"
            print(f"  {name:20s} {cells}  diff {worst:.3f} {verdict}")
        sys.stdout.flush()
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
