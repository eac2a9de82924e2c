"""Out-of-core sharded engine: resident-budget sweep.

Streams a non-uniform synthetic workload (large distinct-combination
space, so the multiplicity-weighted counting kernel dominates) through the
mmap shard store: the same batched workload under an unlimited, a
half-index, and a quarter-index ``max_resident_bytes`` budget, reporting
wall clock and the loader's load/eviction/hit instrumentation.  Every
budget must return byte-identical answers to the unsharded packed engine
and keep peak residency within its budget.  (Shard fan-out is pinned by
``bench_distributed.py``.)

Emits the canonical ``BENCH_outofcore.json`` via the shared writer.  Also
runnable standalone:

    python benchmarks/bench_outofcore.py --smoke
"""

import argparse
import sys
import tempfile

import numpy as np

import _config as config
from _harness import emit_bench, timed

from repro.core.engine import PackedBitsetEngine, ShardedEngine
from repro.core.pattern import Pattern, X
from repro.data.synthetic import random_categorical_dataset

#: Smoke sizes keep the whole bench under ~15 s on a laptop core.
N = config.pick(300_000, 2_000_000)
CARDINALITIES = config.pick((16, 12, 10, 10, 8), (24, 18, 12, 10, 10, 8))
N_MASKS = config.pick(512, 1024)
SHARDS = 4
REPS = 2


def _patterns(dataset, k):
    rng = np.random.default_rng(5)
    patterns = []
    for _ in range(k):
        values = [
            X if rng.random() < 0.6 else int(rng.integers(c))
            for c in dataset.cardinalities
        ]
        patterns.append(Pattern(values))
    return patterns


def _best_of(fn, reps=REPS):
    """Best-of-``reps`` wall clock."""
    best, result = None, None
    for _ in range(reps):
        result, seconds = timed(fn)
        best = seconds if best is None else min(best, seconds)
    return result, best


def run(root):
    dataset = random_categorical_dataset(
        N, CARDINALITIES, seed=23, skew=0.25
    )
    patterns = _patterns(dataset, N_MASKS)
    packed = PackedBitsetEngine(dataset, mask_cache_size=0)
    expected = list(packed.count_many([packed.match_mask(p) for p in patterns]))

    writer = ShardedEngine(dataset, shards=SHARDS, spill_dir=root, mask_cache_size=0)
    # Budgets derive from the full resident footprint (words + counts),
    # which is what the loader actually charges per shard.
    spilled_nbytes = writer.store.data_nbytes
    spill_path = writer.spill_path
    payload = {
        "n": dataset.n,
        "d": dataset.d,
        "unique": writer.unique_count,
        "masks": N_MASKS,
        "shards": SHARDS,
        "index_nbytes": writer.index_nbytes,
        "spilled_nbytes": spilled_nbytes,
        "budgets": {},
    }
    rows = []

    # Floor each budget at the largest single shard so the
    # peak_resident_bytes assertion can't trip on the loader's documented
    # over-budget tolerance when shard spans round unevenly.
    max_shard = max(
        writer.store.shard_nbytes(shard_id) for shard_id in range(SHARDS)
    )
    budgets = [
        ("unlimited", None),
        ("half", max(spilled_nbytes // 2, max_shard)),
        ("quarter", max(spilled_nbytes // 4, max_shard)),
    ]
    for label, budget in budgets:
        engine = ShardedEngine.attach(
            dataset, spill_path, max_resident_bytes=budget, mask_cache_size=0
        )
        masks = [engine.match_mask(p) for p in patterns]

        def workload(engine=engine, masks=masks, patterns=patterns):
            counts = engine.count_many(masks)
            # A small match pass keeps the word blocks (not just the
            # multiplicities) in the streaming loop.
            for pattern in patterns[:32]:
                engine.match_mask(pattern)
            return counts

        counts, seconds = _best_of(workload)
        assert list(counts) == expected
        stats = engine.store.stats()
        if budget is not None:
            assert stats["peak_resident_bytes"] <= budget
            assert stats["evictions"] > 0
        payload["budgets"][label] = {
            "max_resident_bytes": budget,
            "seconds": seconds,
            "stats": stats,
        }
        hit_rate = stats["hits"] / max(1, stats["hits"] + stats["loads"])
        rows.append(
            (
                f"budget={label}",
                f"{seconds:.3f}",
                budget if budget is not None else "-",
                stats["loads"],
                stats["evictions"],
                f"{hit_rate:.2%}",
            )
        )
        engine.close()

    writer.close()

    emit_bench(
        "outofcore",
        f"out-of-core sharded engine, resident-budget sweep "
        f"({N_MASKS} batched masks, n={dataset.n} unique={payload['unique']})",
        ["configuration", "seconds", "budget bytes", "loads", "evictions", "hit rate"],
        rows,
        payload,
    )
    return payload


def test_bench_outofcore(benchmark, tmp_path):
    benchmark.pedantic(run, args=(str(tmp_path),), rounds=1, iterations=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="smoke sizes (the default)"
    )
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as root:
        run(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
