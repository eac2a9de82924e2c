"""The workload-aware auto planner: escalation ladder and constraints.

Plans are deterministic functions of ``(WorkloadStats, requested
EngineConfig)``; these tests pin the escalation boundaries — dense →
packed → sharded (+socket workers) — and that explicitly requested
knobs act as constraints, including the acceptance pin that a projected
packed index above the memory budget selects the out-of-core mode.
"""

import os

import pytest

from repro.core.engine import (
    AUTO,
    DenseBoolEngine,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    WorkloadStats,
    available_memory_bytes,
    invalidate_stats_cache,
    plan_engine,
    resolve_engine,
    set_available_memory_bytes,
    stats_cache_info,
)
from repro.core.engine.planner import (
    DENSE_MAX_INDEX_BYTES,
    HIERARCHY_DENSE_MULTIPLE,
    SHARD_TARGET_BYTES,
)
from repro.core.mups.base import find_mups
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


def stats_for(
    packed_bytes,
    dense_bytes=None,
    unique=1 << 20,
    budget=1 << 30,
    cpus=1,
    rows=1 << 20,
):
    """A hand-rolled stats snapshot with the projections under test."""
    return WorkloadStats(
        rows=rows,
        d=3,
        cardinalities=(4, 4, 4),
        projected_unique=unique,
        projected_packed_bytes=packed_bytes,
        projected_dense_bytes=(
            dense_bytes if dense_bytes is not None else packed_bytes * 8
        ),
        memory_budget_bytes=budget,
        cpu_count=cpus,
    )


class TestEscalation:
    def test_tiny_index_plans_dense(self):
        plan = plan_engine(stats_for(64, dense_bytes=512))
        assert plan.config == EngineConfig(backend="dense")
        assert any("dense" in line for line in plan.rationale)

    def test_mid_size_index_plans_packed(self):
        plan = plan_engine(
            stats_for(1 << 20, dense_bytes=DENSE_MAX_INDEX_BYTES + 1)
        )
        assert plan.config == EngineConfig(backend="packed")

    def test_large_index_within_budget_plans_packed(self):
        plan = plan_engine(stats_for(64 << 20))
        assert plan.config == EngineConfig(backend="packed")

    def test_hierarchy_raises_the_dense_ceiling(self):
        """The identify-bluenile input (n=116,300, seven attributes): its
        4,032,000-byte dense index is over the flat dense ceiling but
        within HIERARCHY_DENSE_MULTIPLE times it."""
        stats = WorkloadStats(
            rows=116_300,
            d=7,
            cardinalities=(10, 4, 7, 8, 3, 3, 5),
            projected_unique=100_800,
            projected_packed_bytes=504_000,
            projected_dense_bytes=4_032_000,
            memory_budget_bytes=1 << 30,
            cpu_count=1,
        )
        assert plan_engine(stats).config == EngineConfig(backend="packed")
        plan = plan_engine(stats, hierarchy=True)
        assert plan.config == EngineConfig(backend="dense")
        assert any("hierarchy" in line for line in plan.rationale)
        ceiling = DENSE_MAX_INDEX_BYTES * HIERARCHY_DENSE_MULTIPLE
        at_ceiling = stats_for(1 << 20, dense_bytes=ceiling)
        assert plan_engine(at_ceiling, hierarchy=True).config.backend == "dense"
        over = stats_for(1 << 20, dense_bytes=ceiling + 1)
        assert plan_engine(over, hierarchy=True).config.backend == "packed"

    def test_index_over_budget_plans_out_of_core(self):
        """Acceptance pin: projected packed bytes > memory budget selects
        the out-of-core mode with the budget as the resident ceiling."""
        budget = 16 << 20
        plan = plan_engine(stats_for(1 << 30, budget=budget))
        config = plan.config
        assert config.backend == "sharded"
        assert config.spill_dir is not None
        assert config.max_resident_bytes == budget
        assert any("out-of-core" in line for line in plan.rationale)
        # Shards sized near the per-shard target.
        assert config.shards >= (1 << 30) // SHARD_TARGET_BYTES

    def test_requested_budget_overrides_probed_memory(self):
        requested = EngineConfig(backend=AUTO, max_resident_bytes=128)
        plan = plan_engine(stats_for(1 << 20, budget=1 << 40), requested)
        assert plan.stats.memory_budget_bytes == 128
        assert plan.config.max_resident_bytes == 128
        assert plan.config.spill_dir is not None

    def test_workers_planned_on_multicore_large_indices(self):
        # Socket workers only once the index dwarfs the budget.
        plan = plan_engine(stats_for(1 << 33, budget=1 << 30, cpus=8))
        assert plan.config.backend == "sharded"
        assert plan.config.workers is not None and plan.config.workers >= 2
        assert any("socket workers" in line for line in plan.rationale)
        plan = plan_engine(stats_for(1 << 31, budget=1 << 30, cpus=8))
        assert plan.config.workers is None

    def test_serial_on_single_core(self):
        plan = plan_engine(stats_for(1 << 33, budget=1 << 30, cpus=1))
        assert plan.config.workers is None


class TestConstraints:
    def test_explicit_shards_force_sharded(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64), EngineConfig(backend=AUTO, shards=3)
        )
        assert plan.config.backend == "sharded"
        assert plan.config.shards == 3
        assert plan.config.spill_dir is not None

    def test_explicit_workers_force_sharded(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64), EngineConfig(backend=AUTO, workers=2)
        )
        assert plan.config.backend == "sharded"
        assert plan.config.workers == 2
        assert plan.config.spill_dir is not None

    def test_explicit_endpoints_force_sharded(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64),
            EngineConfig(backend=AUTO, worker_endpoints=["h1:7000"]),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.worker_endpoints == ("h1:7000",)
        assert any("standing worker" in line for line in plan.rationale)

    def test_explicit_spill_dir_forces_out_of_core(self, tmp_path):
        plan = plan_engine(
            stats_for(64, dense_bytes=64),
            EngineConfig(backend=AUTO, spill_dir=str(tmp_path)),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.spill_dir == str(tmp_path)
        # Budget stays unlimited: the index fits, spill was a choice.
        assert plan.config.max_resident_bytes is None

    def test_explicit_delta_spill_forces_sharded(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64),
            EngineConfig(backend=AUTO, delta_spill=True),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.delta_spill is True
        assert plan.config.spill_dir is not None
        assert plan.config.max_resident_bytes is None

    def test_mask_cache_size_passes_through(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64),
            EngineConfig(backend=AUTO, mask_cache_size=0),
        )
        assert plan.config.mask_cache_size == 0

    def test_hand_picked_backend_short_circuits(self):
        plan = plan_engine(stats_for(1 << 40), EngineConfig(backend="dense"))
        assert plan.config == EngineConfig(backend="dense")
        assert "hand-picked" in plan.rationale[0]


class TestHierarchyShape:
    """``hierarchy=True`` raises the dense ceiling and changes nothing
    else: budgets, constraints and hand-picked backends still win."""

    def test_tiny_index_stays_dense_with_the_hierarchy_rationale(self):
        stats = stats_for(64, dense_bytes=512)
        flat = plan_engine(stats)
        plan = plan_engine(stats, hierarchy=True)
        assert flat.config == plan.config == EngineConfig(backend="dense")
        assert any("hierarchy shape" in line for line in plan.rationale)
        assert not any("hierarchy" in line for line in flat.rationale)

    def test_memory_budget_still_wins_over_the_raised_ceiling(self):
        budget = 1 << 20
        stats = stats_for(
            budget + 1, dense_bytes=DENSE_MAX_INDEX_BYTES, budget=budget
        )
        plan = plan_engine(stats, hierarchy=True)
        assert plan.config.backend == "sharded"
        assert plan.config.spill_dir is not None
        assert plan.config.max_resident_bytes == budget

    def test_sharded_constraints_still_force_sharded(self):
        requested = EngineConfig(backend=AUTO, shards=2)
        plan = plan_engine(
            stats_for(64, dense_bytes=512), requested, hierarchy=True
        )
        assert plan.config.backend == "sharded"
        assert plan.config.shards == 2

    def test_hand_picked_backend_is_not_replanned(self):
        stats = stats_for(1 << 20, dense_bytes=DENSE_MAX_INDEX_BYTES + 1)
        plan = plan_engine(stats, "packed", hierarchy=True)
        assert plan.config == EngineConfig(backend="packed")
        assert any("hand-picked" in line for line in plan.rationale)

    def test_hierarchical_search_plans_with_the_raised_ceiling(self):
        from repro.analysis.hierarchy import _plan_hierarchy_engine

        # 10,000 projected combinations x 40 values: a 400,000-byte dense
        # index, over the flat ceiling and within the hierarchy one.
        dataset = random_categorical_dataset(
            12_000, (10, 10, 10, 10), seed=3, skew=0.0
        )
        assert plan_engine(dataset).config.backend == "packed"
        for spec in (None, AUTO, EngineConfig(backend=AUTO)):
            assert _plan_hierarchy_engine(dataset, spec) == EngineConfig(
                backend="dense"
            )
        assert _plan_hierarchy_engine(dataset, "packed") == "packed"


class TestSparseDomains:
    """Sparse domains plan like any other: packed within the budget,
    out-of-core sharded over it."""

    def test_sparse_domain_plans_packed_within_budget(self):
        sparse = random_categorical_dataset(
            20_000, (96, 80, 64), seed=5, skew=0.4
        )
        plan = plan_engine(sparse)
        assert plan.config == EngineConfig(backend="packed")
        assert isinstance(plan.build(sparse), PackedBitsetEngine)

    def test_over_budget_sparse_domain_goes_out_of_core(self):
        unique = 200_000
        cardinalities = (96, 80, 64)
        words = (unique + 63) // 64
        budget = 2 << 20
        stats = WorkloadStats(
            rows=unique,
            d=3,
            cardinalities=cardinalities,
            projected_unique=unique,
            projected_packed_bytes=sum(cardinalities) * words * 8,
            projected_dense_bytes=sum(cardinalities) * unique,
            memory_budget_bytes=budget,
            cpu_count=2,
        )
        assert stats.projected_packed_bytes > budget
        plan = plan_engine(stats)
        assert plan.config.backend == "sharded"
        assert plan.config.spill_dir is not None
        assert plan.config.max_resident_bytes == budget

    def test_describe_is_the_header_plus_the_rationale(self):
        sparse = random_categorical_dataset(
            20_000, (96, 80, 64), seed=5, skew=0.4
        )
        plan = plan_engine(sparse)
        lines = plan.describe().splitlines()
        assert lines[0] == "engine plan: backend=packed"
        assert lines[1].startswith("  workload: rows=20000 d=3")
        assert lines[2].startswith("  projections: packed index ~")
        assert lines[3:] == [f"  - {line}" for line in plan.rationale]

    def test_auto_mups_on_a_sparse_domain_match_dense(self):
        sparse = random_categorical_dataset(2_000, (64, 48), seed=7, skew=0.5)
        auto = find_mups(sparse, threshold=4, engine=AUTO)
        dense = find_mups(sparse, threshold=4, engine="dense")
        assert auto.as_set() == dense.as_set()


class TestStatsCollection:
    def test_projected_unique_capped_by_rows_and_combinations(self):
        small_space = random_categorical_dataset(500, (2, 2), seed=1, skew=1.0)
        stats = WorkloadStats.of(small_space)
        assert stats.projected_unique == 4  # Π c_i < n
        sparse = random_categorical_dataset(10, (9, 9, 9), seed=1, skew=1.0)
        stats = WorkloadStats.of(sparse)
        assert stats.projected_unique == 10  # n < Π c_i

    def test_projections_follow_the_packed_layout(self):
        dataset = random_categorical_dataset(200, (3, 3, 2), seed=2, skew=1.0)
        stats = WorkloadStats.of(dataset)
        words = (stats.projected_unique + 63) // 64
        assert stats.projected_packed_bytes == sum((3, 3, 2)) * words * 8
        assert stats.projected_dense_bytes == sum((3, 3, 2)) * stats.projected_unique

    def test_default_budget_comes_from_available_memory(self):
        dataset = random_categorical_dataset(20, (2, 2), seed=2, skew=1.0)
        stats = WorkloadStats.of(dataset)
        assert 0 < stats.memory_budget_bytes <= available_memory_bytes()

    def test_memory_probe_never_raises(self):
        assert available_memory_bytes() >= 1

    def test_memory_probe_fallbacks(self, monkeypatch):
        import builtins

        import repro.core.engine.planner as planner

        real_open = builtins.open

        def no_meminfo(path, *args, **kwargs):
            if path == "/proc/meminfo":
                raise OSError("no procfs")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_meminfo)
        # sysconf path (total physical memory) still answers...
        assert planner._probe_available_memory() >= 1
        # ...and with sysconf gone too, the constant fallback holds.
        monkeypatch.setattr(
            planner.os, "sysconf", lambda name: (_ for _ in ()).throw(ValueError())
        )
        assert planner._probe_available_memory() == planner.FALLBACK_MEMORY_BYTES

    def test_memory_probe_cached_per_process(self, monkeypatch):
        import repro.core.engine.planner as planner

        first = available_memory_bytes()
        # With the probe gone entirely, the cached value still answers —
        # the probe ran at most once per process.
        monkeypatch.setattr(
            planner,
            "_probe_available_memory",
            lambda: (_ for _ in ()).throw(AssertionError("re-probed")),
        )
        assert available_memory_bytes() == first

    def test_memory_override_hook(self):
        try:
            set_available_memory_bytes(1 << 20)
            assert available_memory_bytes() == 1 << 20
            with pytest.raises(EngineError, match="override"):
                set_available_memory_bytes(0)
        finally:
            set_available_memory_bytes(None)
        assert available_memory_bytes() >= 1

    def test_memory_override_reaches_the_budget(self):
        dataset = random_categorical_dataset(20, (2, 2), seed=3, skew=1.0)
        try:
            set_available_memory_bytes(1 << 20)
            stats = WorkloadStats.of(dataset)
            assert stats.memory_budget_bytes <= 1 << 20
        finally:
            set_available_memory_bytes(None)

    def test_bad_stats_rejected(self):
        with pytest.raises(EngineError, match="rows"):
            stats_for(64, rows=-1)
        with pytest.raises(EngineError, match="memory budget"):
            stats_for(64, budget=0)


class TestStatsMemoization:
    def test_stats_of_memoizes_per_fingerprint(self):
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        invalidate_stats_cache(dataset.content_fingerprint())
        before = stats_cache_info()
        first = WorkloadStats.of(dataset)
        second = WorkloadStats.of(dataset)
        after = stats_cache_info()
        assert first is second
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1
        assert after["entries"] >= 1

    def test_distinct_budgets_are_distinct_entries(self):
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        a = WorkloadStats.of(dataset, memory_budget=1 << 20)
        b = WorkloadStats.of(dataset, memory_budget=1 << 21)
        assert a is not b
        assert a.memory_budget_bytes != b.memory_budget_bytes

    def test_invalidate_by_fingerprint_is_selective(self):
        import repro.core.engine.planner as planner

        one = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        other = random_categorical_dataset(60, (2, 2, 2), seed=6, skew=1.0)
        WorkloadStats.of(one)
        WorkloadStats.of(other)
        invalidate_stats_cache(one.content_fingerprint())
        remaining = {key[0] for key in planner._STATS_CACHE}
        assert one.content_fingerprint() not in remaining
        assert other.content_fingerprint() in remaining

    def test_incremental_delivery_invalidates(self):
        import repro.core.engine.planner as planner
        from repro.core.incremental import IncrementalMupIndex

        dataset = random_categorical_dataset(30, (2, 2), seed=9, skew=1.0)
        fingerprint = dataset.content_fingerprint()
        index = IncrementalMupIndex(dataset, threshold=2, engine=AUTO)
        assert any(key[0] == fingerprint for key in planner._STATS_CACHE)
        index.add_rows([[0, 1]])
        # The pre-delivery snapshot is stale the moment rows land.
        assert all(key[0] != fingerprint for key in planner._STATS_CACHE)


class TestEndToEnd:
    def test_auto_resolves_and_matches_packed(self):
        dataset = random_categorical_dataset(80, (3, 3, 2), seed=7, skew=0.8)
        auto = find_mups(dataset, threshold=4, engine=AUTO)
        packed = find_mups(dataset, threshold=4, engine="packed")
        assert auto.as_set() == packed.as_set()

    def test_auto_under_budget_builds_out_of_core_engine(self, tmp_path):
        dataset = random_categorical_dataset(80, (3, 3, 2), seed=7, skew=0.8)
        config = EngineConfig(
            backend=AUTO, spill_dir=str(tmp_path), max_resident_bytes=16
        )
        engine = resolve_engine(config, dataset)
        try:
            assert isinstance(engine, ShardedEngine)
            assert os.path.dirname(engine.spill_path) == str(tmp_path)
            assert engine.max_resident_bytes == 16
            reference = PackedBitsetEngine(dataset)
            from repro.core.pattern import Pattern

            root = Pattern.root(dataset.d)
            assert engine.coverage(root) == reference.coverage(root)
        finally:
            engine.close()

    def test_plan_build_helper(self):
        dataset = random_categorical_dataset(30, (2, 2, 2), seed=7, skew=1.0)
        plan = plan_engine(dataset)
        engine = plan.build(dataset)
        assert isinstance(engine, DenseBoolEngine)

    def test_describe_renders_stats_and_rationale(self):
        plan = plan_engine(stats_for(1 << 30, budget=16 << 20))
        text = plan.describe()
        assert "engine plan: backend=sharded" in text
        assert "memory budget" in text
        assert "out-of-core" in text


class TestStatsCacheBound:
    """Regression: the stats memo is LRU-bounded and thread-consistent.

    The memo used to be an unlocked, unbounded module dict: a long-lived
    server planning for many datasets grew it without limit, and
    concurrent ``WorkloadStats.of`` calls raced on insert, so callers
    could end up holding different snapshot instances for one dataset.
    """

    @staticmethod
    def _dataset(seed, n):
        from repro.data.synthetic import random_categorical_dataset

        # Distinct row counts guarantee distinct content fingerprints.
        return random_categorical_dataset(n, (2, 2), seed=seed, skew=1.0)

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        from repro.core.engine import planner

        invalidate_stats_cache()
        monkeypatch.setattr(planner, "STATS_CACHE_MAX_ENTRIES", 3)
        before = stats_cache_info()
        datasets = [self._dataset(seed, n=10 + seed) for seed in range(6)]
        snapshots = [WorkloadStats.of(ds) for ds in datasets]
        info = stats_cache_info()
        assert info["entries"] <= 3
        assert info["max_entries"] == 3
        assert info["misses"] - before["misses"] == 6
        assert info["evictions"] - before["evictions"] >= 3
        # The newest entries survived: re-requesting is a hit that returns
        # the memoized instance, not a rebuild.
        assert WorkloadStats.of(datasets[-1]) is snapshots[-1]
        after = stats_cache_info()
        assert after["hits"] == info["hits"] + 1
        # The oldest was evicted: re-requesting is a fresh miss.
        WorkloadStats.of(datasets[0])
        assert stats_cache_info()["misses"] == after["misses"] + 1

    def test_threaded_of_shares_one_snapshot(self):
        import threading

        invalidate_stats_cache()
        dataset = self._dataset(seed=99, n=40)
        before = stats_cache_info()
        n_threads, iterations = 8, 25
        barrier = threading.Barrier(n_threads)
        results = []

        def worker():
            barrier.wait()
            for _ in range(iterations):
                results.append(WorkloadStats.of(dataset))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Memoization promise: every caller shares the first-inserted
        # instance, even the threads that lost the insert race.
        assert len(results) == n_threads * iterations
        assert all(snapshot is results[0] for snapshot in results)
        info = stats_cache_info()
        # Counter accuracy under contention: each call is exactly one hit
        # or one miss, never both, never neither.
        assert (info["hits"] - before["hits"]) + (
            info["misses"] - before["misses"]
        ) == n_threads * iterations
        assert info["misses"] - before["misses"] >= 1
