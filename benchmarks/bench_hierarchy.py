"""Hierarchy benchmarks: drill-down MUP search and the bucket-width sweep.

Two pins, both over high-cardinality scenarios where the hierarchy
machinery is supposed to earn its keep:

* **Drill-down search**: ``find_mups_hierarchical`` (PATTERN-BREAKER's
  level walk over every stack level's rolled-up dataset) must be at
  least 4x faster than a flat ``find_mups`` on the base dataset, after
  cross-checking that the base-level MUP set is **bit-identical**.
* **Bucket-width sweep**: ``bucketize_sweep`` over nested bucket counts
  of a numeric column (each count rolled up from the finest) must be at
  least 6x faster than independent ``bucketized_dataset`` + ``find_mups``
  runs per count, again after checking every count's MUP set is
  bit-identical.

The pins were set when the flat baselines (DEEPDIVER) were several times
slower than now: six smoke runs then read 5.2-5.8x and 10.1-10.4x.  Now
every level, every count and both baselines walk coverage cubes, and the
drill-down answers every level of the stack where its baseline answers
the base alone, so neither pin holds.  On a 2-vCPU x86 host five smoke runs read 0.52-0.67x
and 1.11-1.49x, and five full-size runs 0.35-0.41x and 1.64-1.91x.

Emits the canonical ``BENCH_hierarchy.json`` via the shared writer.
Also runnable standalone (the CI hierarchy smoke job):

    python benchmarks/bench_hierarchy.py --smoke
"""

import argparse
import statistics
import sys
import time

import numpy as np

import _config as config
from _harness import MIN_MEASURE_SECONDS, emit_bench, timed

from repro.analysis.hierarchy import (
    HierarchyStack,
    bucketize_sweep,
    bucketized_dataset,
    find_mups_hierarchical,
)
from repro.core.mups import find_mups
from repro.data.hierarchy import AttributeHierarchy
from repro.data.scenarios import scenario_dataset

#: Pin A: flat search must cost at least this factor over drill-down.
MIN_HIERARCHY_SPEEDUP = 4.0

#: Pin B: independent per-width runs must cost this factor over one sweep.
MIN_SWEEP_SPEEDUP = 6.0

#: Nested bucket counts for the width sweep (each divides the largest).
BUCKET_COUNTS = (2, 3, 4, 6, 8, 12, 24)

REPS = 5


def _blocks(cardinality, size):
    return [code // size for code in range(cardinality)]


def _stack(dataset):
    """Blocks-of-4 chains, with a second c/4-group level when c >= 32."""
    chains = {}
    for name, cardinality in zip(
        dataset.schema.names, dataset.cardinalities
    ):
        levels = [AttributeHierarchy.of(name, _blocks(cardinality, 4))]
        if cardinality >= 32:
            levels.append(
                AttributeHierarchy.of(
                    name, _blocks(cardinality, cardinality // 4)
                )
            )
        chains[name] = levels
    return HierarchyStack.of(dataset, chains)


def hierarchy_workloads(full=False):
    """(name, dataset, stack, tau) for the drill-down pin."""
    pick = (lambda smoke, big: big if full else smoke)
    dataset = scenario_dataset(
        "zipf",
        pick(8_000, 60_000),
        pick((96, 48, 16), (64, 32, 16)),
        seed=7,
        skew=pick(1.8, 2.0),
    )
    return [("zipf-hicard", dataset, _stack(dataset), pick(20, 60))]


def sweep_workloads(full=False):
    """(name, dataset, values, tau) for the bucket-width pin."""
    pick = (lambda smoke, big: big if full else smoke)
    n = pick(8_000, 60_000)
    dataset = scenario_dataset("zipf", n, (6, 5, 4), seed=11, skew=1.4)
    values = np.random.default_rng(19).lognormal(0.0, 1.0, size=n)
    return [("zipf-lognormal", dataset, values, pick(8, 40))]


def run_hierarchical(dataset, stack, tau):
    return find_mups_hierarchical(
        dataset, stack, threshold=tau, remedies=False
    )


def run_flat(dataset, tau):
    return find_mups(dataset, threshold=tau)


def run_bucket_sweep(dataset, values, tau):
    return bucketize_sweep(dataset, values, BUCKET_COUNTS, threshold=tau)


def run_bucket_independent(dataset, values, tau):
    return {
        count: find_mups(
            bucketized_dataset(dataset, values, count), threshold=tau
        ).mups
        for count in BUCKET_COUNTS
    }


def measure(fn, *args, reps=REPS):
    """Median per-run seconds, calibrated like the engine benches."""
    _, calibration = timed(fn, *args)
    inner = max(1, int(MIN_MEASURE_SECONDS / max(calibration, 1e-9)) + 1)
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def run(full=False):
    rows = []
    payload = {
        "min_hierarchy_speedup": MIN_HIERARCHY_SPEEDUP,
        "min_sweep_speedup": MIN_SWEEP_SPEEDUP,
        "hierarchy": {},
        "bucket_sweep": {},
    }

    for name, dataset, stack, tau in hierarchy_workloads(full):
        hierarchical = run_hierarchical(dataset, stack, tau)
        flat = run_flat(dataset, tau)
        # Bit-identical base-level answers, or the speedup is meaningless.
        assert hierarchical.at_level(0).mups == flat.mups, name
        hier_seconds = measure(run_hierarchical, dataset, stack, tau)
        flat_seconds = measure(run_flat, dataset, tau)
        speedup = flat_seconds / hier_seconds
        payload["hierarchy"][name] = {
            "n": dataset.n,
            "cardinalities": list(dataset.cardinalities),
            "depth": stack.depth,
            "threshold": tau,
            "hierarchical_seconds": hier_seconds,
            "flat_seconds": flat_seconds,
            "speedup": speedup,
            "mups": len(flat.mups),
            "evaluations": hierarchical.stats.coverage_evaluations,
        }
        rows.append(
            (
                f"drill-down/{name}",
                dataset.n,
                tau,
                f"{hier_seconds:.4f}",
                f"{flat_seconds:.4f}",
                f"{speedup:.1f}x",
            )
        )

    for name, dataset, values, tau in sweep_workloads(full):
        sweep = run_bucket_sweep(dataset, values, tau)
        independent = run_bucket_independent(dataset, values, tau)
        # Bit-identical answers at every bucket count.
        for count in BUCKET_COUNTS:
            assert sweep.point_for(count).result.mups == independent[count], (
                name,
                count,
            )
        sweep_seconds = measure(run_bucket_sweep, dataset, values, tau)
        independent_seconds = measure(
            run_bucket_independent, dataset, values, tau
        )
        speedup = independent_seconds / sweep_seconds
        payload["bucket_sweep"][name] = {
            "n": dataset.n,
            "bucket_counts": list(BUCKET_COUNTS),
            "threshold": tau,
            "sweep_seconds": sweep_seconds,
            "independent_seconds": independent_seconds,
            "speedup": speedup,
            "mups_per_count": {
                str(count): len(independent[count])
                for count in BUCKET_COUNTS
            },
        }
        rows.append(
            (
                f"bucket-sweep/{name}",
                dataset.n,
                tau,
                f"{sweep_seconds:.4f}",
                f"{independent_seconds:.4f}",
                f"{speedup:.1f}x",
            )
        )

    emit_bench(
        "hierarchy",
        "drill-down search vs flat; bucket sweep vs independent runs",
        ["workload", "n", "tau", "fast s", "baseline s", "speedup"],
        rows,
        payload,
    )
    # The pins: the hierarchy machinery must actually pay for itself.
    for name, entry in payload["hierarchy"].items():
        assert entry["speedup"] >= MIN_HIERARCHY_SPEEDUP, (
            name,
            entry["speedup"],
        )
    for name, entry in payload["bucket_sweep"].items():
        assert entry["speedup"] >= MIN_SWEEP_SPEEDUP, (name, entry["speedup"])
    return payload


def test_bench_hierarchy():
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
