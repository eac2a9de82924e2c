"""Ablation — Appendix A's inverted-index coverage oracle vs a literal scan.

The oracle aggregates to unique value combinations and answers ``cov(P)``
with vectorized index ANDs; the ablation compares it against the literal
one-pass-per-query scan of Definition 2, and compares PATTERN-BREAKER's
level counts grouped over the unique rows with per-pattern oracle counts
over the same level walk.
"""

import _config as config
from _harness import emit, emit_bench, timed

from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import ShardedEngine
from repro.core.lattice import GroupCounter, PatternLattice, walk_levels
from repro.core.mups import pattern_breaker
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.airbnb import load_airbnb

N_QUERIES = 300

#: Shard count for the sharded-engine comparison (smoke-sized split).
SHARDS = 2


def _query_patterns(space):
    import numpy as np

    rng = np.random.default_rng(17)
    return [space.random_pattern(rng) for _ in range(N_QUERIES)]


def test_ablation_oracle_vs_scan(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    oracle = CoverageOracle(dataset)

    indexed, indexed_seconds = benchmark.pedantic(
        timed,
        args=(lambda: [oracle.coverage(p) for p in patterns],),
        rounds=1,
        iterations=1,
    )
    scanned, scanned_seconds = timed(
        lambda: [coverage_scan(dataset, p) for p in patterns]
    )
    assert indexed == scanned
    emit(
        f"Ablation.A coverage oracle ({N_QUERIES} queries, n={dataset.n} "
        f"d={dataset.d})",
        ["method", "seconds"],
        [
            ("inverted index (Appendix A)", f"{indexed_seconds:.3f}"),
            ("literal scan (Definition 2)", f"{scanned_seconds:.3f}"),
        ],
    )
    # The index aggregates duplicates away, so it must win clearly on a
    # dataset with n >> distinct combinations.
    assert indexed_seconds < scanned_seconds


def test_ablation_level_counting(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(1e-3)
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))

    def per_pattern(digits):
        return oracle.coverage_many(
            [Pattern(values) for values in (digits - 1).tolist()]
        )

    grouped, grouped_seconds = benchmark.pedantic(
        timed,
        args=(walk_levels, lattice, GroupCounter(lattice, *dataset.unique_rows()), tau),
        rounds=1,
        iterations=1,
    )
    single, single_seconds = timed(walk_levels, lattice, per_pattern, tau)
    assert grouped.mups() == single.mups()
    assert grouped.stats.coverage_evaluations == single.stats.coverage_evaluations
    emit(
        "Ablation.A2 level counting in PATTERN-BREAKER's walk",
        ["variant", "seconds"],
        [
            ("grouped unique rows", f"{grouped_seconds:.2f}"),
            ("per-pattern oracle", f"{single_seconds:.2f}"),
        ],
    )


def test_ablation_oracle_benchmark(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    oracle = CoverageOracle(dataset)
    benchmark(lambda: [oracle.coverage(p) for p in patterns])


def _engine_workload(oracle, patterns, tau):
    """The mixed workload both backends are timed on: point queries, one
    batched frontier pass, and a full PATTERN-BREAKER traversal (which
    counts from the unique rows, so it costs every backend the same)."""
    point = [oracle.coverage(p) for p in patterns]
    batched = list(oracle.coverage_many(patterns))
    assert point == batched
    result = pattern_breaker(oracle.dataset, tau, oracle=oracle)
    return point, result.as_set()


def test_ablation_engine_comparison(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    dense = CoverageOracle(dataset, engine="dense")
    packed = CoverageOracle(dataset, engine="packed")
    tau = dense.threshold_from_rate(1e-3)

    (dense_answers, dense_seconds) = benchmark.pedantic(
        timed,
        args=(_engine_workload, dense, patterns, tau),
        rounds=1,
        iterations=1,
    )
    packed_answers, packed_seconds = timed(_engine_workload, packed, patterns, tau)
    assert dense_answers == packed_answers

    rows = [
        (
            "dense (bool ndarray)",
            f"{dense_seconds:.3f}",
            dense.engine.index_nbytes,
        ),
        (
            "packed (uint64 bitset)",
            f"{packed_seconds:.3f}",
            packed.engine.index_nbytes,
        ),
    ]
    emit_bench(
        "engine",
        f"dense vs packed coverage engines ({N_QUERIES} queries "
        f"+ PATTERN-BREAKER, whose leg counts unique rows and reads no "
        f"engine, n={dataset.n} d={dataset.d})",
        ["engine", "seconds", "index bytes"],
        rows,
        {
            "n": dataset.n,
            "d": dataset.d,
            "unique": dense.unique_count,
            "queries": N_QUERIES,
            "tau": tau,
            "dense": {
                "seconds": dense_seconds,
                "index_nbytes": dense.engine.index_nbytes,
            },
            "packed": {
                "seconds": packed_seconds,
                "index_nbytes": packed.engine.index_nbytes,
            },
            "packed_over_dense_time_ratio": packed_seconds / dense_seconds,
        },
    )
    # The memory claim is deterministic; the time ratio is recorded in the
    # JSON (single-round wall clock is too noisy for a tight assertion — a
    # 2x bound only catches gross regressions).
    assert packed.engine.index_nbytes < dense.engine.index_nbytes
    assert packed_seconds <= dense_seconds * 2.0


def _hot_workload(oracle, patterns, tau):
    """The workload the three-engine comparison is timed on.

    Point queries run twice (the second pass exercises the hot-mask cache,
    which is what the re-visit-heavy production traffic looks like), then a
    batched frontier pass and a full PATTERN-BREAKER traversal.
    """
    point = [oracle.coverage(p) for p in patterns]
    repeat = [oracle.coverage(p) for p in patterns]
    batched = list(oracle.coverage_many(patterns))
    assert point == repeat == batched
    result = pattern_breaker(oracle.dataset, tau, oracle=oracle)
    return point, result.as_set()


def test_ablation_sharded_engine_comparison(benchmark, tmp_path):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    oracles = {
        "dense": CoverageOracle(dataset, engine="dense"),
        "packed": CoverageOracle(dataset, engine="packed"),
        "sharded": CoverageOracle(
            dataset,
            engine=ShardedEngine(dataset, shards=SHARDS, spill_dir=str(tmp_path)),
        ),
    }
    tau = oracles["dense"].threshold_from_rate(1e-3)

    # Every engine runs the workload twice under the same protocol and is
    # scored best-of-two: the 1.2x sharded/packed bound below is much
    # tighter than the 2x dense bound, so a single noisy measurement must
    # not fail it — and the emitted per-engine numbers stay comparable.
    answers = {}
    seconds = {}
    (answers["dense"], seconds["dense"]) = benchmark.pedantic(
        timed,
        args=(_hot_workload, oracles["dense"], patterns, tau),
        rounds=1,
        iterations=1,
    )
    _, dense_second = timed(_hot_workload, oracles["dense"], patterns, tau)
    seconds["dense"] = min(seconds["dense"], dense_second)
    for name in ("packed", "sharded"):
        answers[name], first = timed(_hot_workload, oracles[name], patterns, tau)
        _, second = timed(_hot_workload, oracles[name], patterns, tau)
        seconds[name] = min(first, second)
    assert answers["dense"] == answers["packed"] == answers["sharded"]

    rows = []
    payload = {
        "n": dataset.n,
        "d": dataset.d,
        "unique": oracles["dense"].unique_count,
        "queries": N_QUERIES,
        "tau": tau,
        "shards": oracles["sharded"].engine.shard_count,
        "engines": {},
    }
    for name, oracle in oracles.items():
        cache = oracle.engine.cache_info()
        rows.append(
            (
                name,
                f"{seconds[name]:.3f}",
                oracle.engine.index_nbytes,
                f"{cache['hit_rate']:.2%}",
            )
        )
        payload["engines"][name] = {
            "seconds": seconds[name],
            "index_nbytes": oracle.engine.index_nbytes,
            "cache": cache,
        }
    payload["sharded_over_packed_time_ratio"] = (
        seconds["sharded"] / seconds["packed"]
    )
    emit_bench(
        "sharded",
        f"dense vs packed vs sharded({SHARDS}) engines "
        f"({N_QUERIES} queries x2 + batched + PATTERN-BREAKER, whose leg "
        f"counts unique rows and reads no engine, n={dataset.n} "
        f"d={dataset.d})",
        ["engine", "seconds", "index bytes", "cache hit rate"],
        rows,
        payload,
    )
    # Repeated point queries must actually hit the hot-mask cache.
    for oracle in oracles.values():
        assert oracle.engine.cache_info()["hits"] >= N_QUERIES
    oracles["sharded"].engine.close()
    # Sharding adds per-shard dispatch and mmap streaming overhead; on the
    # smoke workload it must stay within 1.2x of the unsharded packed
    # engine.
    assert seconds["sharded"] <= seconds["packed"] * 1.2
