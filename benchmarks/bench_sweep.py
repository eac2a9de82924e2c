"""Amortized threshold-sweep benchmark: one sweep vs per-τ runs.

Times ``sweep_mups`` over an 8-threshold τ range, with the MUP set it
answers at every queried τ, against eight independent ``find_mups`` runs
on the same dataset, then cross-checks that every τ's MUP set is
**bit-identical** between the two strategies.  Both sides return the
eight decoded MUP tuples, so both are timed for the same answers.  The
pin: **the amortized sweep is at least 3× faster than the independent
runs** — the sweep pays one counting pass (each pattern evaluated once,
classified for every τ by its coverage interval) where the independent
runs re-count the lattice per threshold.

Emits the canonical ``BENCH_sweep.json`` via the shared writer.  Also
runnable standalone (the CI sweep smoke job):

    python benchmarks/bench_sweep.py --smoke
"""

import argparse
import statistics
import sys
import time

import _config as config
from _harness import MIN_MEASURE_SECONDS, emit_bench, timed

from repro.analysis.sweep import sweep_mups
from repro.core.mups import find_mups
from repro.data.scenarios import scenario_dataset

#: The pin: independent runs must cost at least this factor over one sweep.
MIN_SPEEDUP = 3.0

#: Eight thresholds — the ISSUE's canonical sweep width.
N_THRESHOLDS = 8

REPS = 5


def workloads(full=False):
    """(name, dataset, thresholds) triples spanning the scenario families."""
    pick = (lambda smoke, big: big if full else smoke)
    n = pick(8_000, 120_000)
    return [
        (
            "zipf-4d",
            scenario_dataset("zipf", n, (6, 5, 4, 3), seed=7, skew=1.2),
            tuple(range(4, 4 + 4 * N_THRESHOLDS, 4)),
        ),
        (
            "correlated-3d",
            scenario_dataset(
                "correlated", n, (5, 5, 4), seed=11, correlation=0.7
            ),
            tuple(range(2, 2 + 3 * N_THRESHOLDS, 3)),
        ),
    ]


def run_sweep(dataset, thresholds):
    sweep = sweep_mups(dataset, thresholds)
    return sweep, {tau: sweep.mups_at(tau).mups for tau in thresholds}


def run_independent(dataset, thresholds):
    return {
        tau: find_mups(dataset, threshold=tau).mups for tau in thresholds
    }


def measure(fns, dataset, thresholds, reps=REPS):
    """Median per-run seconds of each of ``fns``, calibrated like the
    engine benches.

    The functions take turns, one rep each, so a change in host speed
    during the measurement reaches every side alike instead of deciding
    their ratio.
    """
    inners = []
    for fn in fns:
        _, calibration = timed(fn, dataset, thresholds)
        inners.append(max(1, int(MIN_MEASURE_SECONDS / max(calibration, 1e-9)) + 1))
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, inner, times in zip(fns, inners, samples):
            start = time.perf_counter()
            for _ in range(inner):
                fn(dataset, thresholds)
            times.append((time.perf_counter() - start) / inner)
    return [statistics.median(times) for times in samples]


def run(full=False):
    rows = []
    payload = {"min_speedup": MIN_SPEEDUP, "workloads": {}}
    for name, dataset, thresholds in workloads(full):
        sweep, answers = run_sweep(dataset, thresholds)
        independent = run_independent(dataset, thresholds)
        # Bit-identical answers at every τ, or the speedup is meaningless.
        assert answers == independent, name
        sweep_seconds, independent_seconds = measure(
            (run_sweep, run_independent), dataset, thresholds
        )
        speedup = independent_seconds / sweep_seconds
        payload["workloads"][name] = {
            "n": dataset.n,
            "d": dataset.d,
            "thresholds": list(thresholds),
            "sweep_seconds": sweep_seconds,
            "independent_seconds": independent_seconds,
            "speedup": speedup,
            "sweep_evaluations": sweep.stats.coverage_evaluations,
            "mups_per_tau": {
                str(tau): len(independent[tau]) for tau in thresholds
            },
        }
        rows.append(
            (
                name,
                dataset.n,
                f"{thresholds[0]}..{thresholds[-1]}",
                f"{sweep_seconds:.4f}",
                f"{independent_seconds:.4f}",
                f"{speedup:.1f}x",
            )
        )
    emit_bench(
        "sweep",
        f"amortized sweep vs {N_THRESHOLDS} independent runs",
        ["workload", "n", "tau range", "sweep s", "independent s", "speedup"],
        rows,
        payload,
    )
    # The pin: amortization must actually pay for itself.
    for name, entry in payload["workloads"].items():
        assert entry["speedup"] >= MIN_SPEEDUP, (name, entry["speedup"])
    return payload


def test_bench_sweep():
    run(full=config.FULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true", help="smoke sizes (the default)"
    )
    mode.add_argument("--full", action="store_true", help="paper-sized runs")
    args = parser.parse_args(argv)
    run(full=args.full or config.FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
