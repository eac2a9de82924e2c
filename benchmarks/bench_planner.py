"""Auto-planner benchmark: ``auto`` vs every hand-tuned backend.

Runs the smoke matrix — one workload per planner zone (dense / packed /
out-of-core-under-budget) — and times the same batched coverage workload
(match masks + ``count_many``) on every hand-tuned backend plus the
engine the ``auto`` planner picks.  The pin: **auto stays within 1.25× of
the best hand-tuned backend on every workload** (the planner may only pay
planning arithmetic, never a wrong-backend penalty).  Budgeted workloads
compare against budget-respecting hand-tuned configurations only — an
in-memory engine that ignores the budget is not a legal competitor.

Emits the canonical ``BENCH_planner.json`` via the shared writer.  Also
runnable standalone (the CI planner smoke job):

    python benchmarks/bench_planner.py --smoke
"""

import argparse
import sys
import tempfile

import _config as config
from _harness import emit_bench, measure_engines, random_patterns, timed

from repro.core.engine import AUTO, EngineConfig, plan_engine, resolve_engine
from repro.data.synthetic import random_categorical_dataset

#: The pin: auto may cost at most this factor over the best hand-tuned.
MAX_AUTO_RATIO = 1.25

N_MASKS = config.pick(256, 1024)


def smoke_matrix(spill_root, full=False):
    """The workloads, one per planner zone.

    Each entry: (name, dataset, requested EngineConfig, hand-tuned
    candidate configs).  Budgeted entries only admit budget-respecting
    competitors.
    """
    pick = (lambda smoke, big: big if full else smoke)
    tiny = random_categorical_dataset(
        pick(3_000, 30_000), (2, 3, 2), seed=7, skew=1.0
    )
    medium = random_categorical_dataset(
        pick(200_000, 1_000_000), (40, 30, 20, 12), seed=11, skew=0.3
    )
    # Roughly half the medium index: firmly out-of-core (steady eviction
    # traffic) without degenerating into per-query mmap churn, whose I/O
    # jitter would drown the backend comparison this bench pins.
    budget = 256 << 10
    unbudgeted = [
        EngineConfig(backend="dense", mask_cache_size=0),
        EngineConfig(backend="packed", mask_cache_size=0),
        EngineConfig(
            backend="sharded", shards=4, spill_dir=spill_root, mask_cache_size=0
        ),
    ]
    budgeted = [
        EngineConfig(
            backend="sharded",
            shards=shards,
            spill_dir=spill_root,
            max_resident_bytes=budget,
            mask_cache_size=0,
        )
        for shards in (4, 8)
    ]
    return [
        ("tiny-categorical", tiny, EngineConfig(backend=AUTO, mask_cache_size=0), unbudgeted),
        ("medium-skewed", medium, EngineConfig(backend=AUTO, mask_cache_size=0), unbudgeted),
        (
            "medium-budgeted",
            medium,
            EngineConfig(
                backend=AUTO,
                spill_dir=spill_root,
                max_resident_bytes=budget,
                mask_cache_size=0,
            ),
            budgeted,
        ),
    ]


def run(spill_root, full=False):
    rows = []
    payload = {"max_auto_ratio": MAX_AUTO_RATIO, "workloads": {}}
    for name, dataset, requested, candidates in smoke_matrix(spill_root, full):
        patterns = random_patterns(dataset, N_MASKS, seed=5)
        plan, plan_seconds = timed(plan_engine, dataset, requested)
        engines = [
            (candidate.describe(), resolve_engine(candidate, dataset))
            for candidate in candidates
        ]
        engines.append(("auto", resolve_engine(plan.config, dataset)))
        try:
            seconds, counts = measure_engines(engines, patterns)
        finally:
            for _, engine in engines:
                engine.close()
        expected = counts[engines[0][0]]
        for label, engine_counts in counts.items():
            assert engine_counts == expected, (name, label)
        auto_seconds = seconds.pop("auto")
        candidate_seconds = seconds
        best_label = min(candidate_seconds, key=candidate_seconds.get)
        best_seconds = candidate_seconds[best_label]
        ratio = auto_seconds / best_seconds
        payload["workloads"][name] = {
            "n": dataset.n,
            "d": dataset.d,
            "plan": plan.config.to_dict(),
            "rationale": list(plan.rationale),
            "plan_seconds": plan_seconds,
            "auto_seconds": auto_seconds,
            "candidates": candidate_seconds,
            "best_candidate": best_label,
            "best_seconds": best_seconds,
            "auto_over_best_ratio": ratio,
        }
        rows.append(
            (
                name,
                plan.config.backend,
                f"{auto_seconds:.4f}",
                best_label.split(" ")[0],
                f"{best_seconds:.4f}",
                f"{ratio:.2f}x",
            )
        )
    emit_bench(
        "planner",
        f"auto planner vs hand-tuned backends ({N_MASKS} batched masks)",
        ["workload", "auto backend", "auto s", "best hand-tuned", "best s", "ratio"],
        rows,
        payload,
    )
    # The pin: a wrong plan would show up as a large ratio on its zone.
    for name, entry in payload["workloads"].items():
        assert entry["auto_over_best_ratio"] <= MAX_AUTO_RATIO, (
            name,
            entry["auto_over_best_ratio"],
        )
    return payload


def test_bench_planner(tmp_path):
    run(str(tmp_path), full=config.FULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true", help="smoke sizes (the default)"
    )
    mode.add_argument("--full", action="store_true", help="paper-sized runs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-bench-planner-") as root:
        run(root, full=args.full or config.FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
