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
    numba_available,
    plan_engine,
    resolve_engine,
    set_available_memory_bytes,
    stats_cache_info,
)
from repro.core.engine.kernels import REPRO_KERNELS_ENV
from repro.core.engine.planner import (
    BATCH_LATENCY_TARGET_SECONDS,
    DENSE_MAX_INDEX_BYTES,
    JIT_SCAN_SPEEDUP,
    PACKED_MAX_INDEX_BYTES,
    SHARD_TARGET_BYTES,
    _single_index_ceiling,
)
from repro.core.mups.base import find_mups
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


@pytest.fixture(autouse=True)
def _pin_python_kernels(monkeypatch):
    """Deterministic boundaries whether or not numba is installed.

    The escalation pins in this module assume the point/python corner of
    the cost model (where the ceiling equals ``PACKED_MAX_INDEX_BYTES``);
    tier-specific tests override the environment themselves.
    """
    monkeypatch.setenv(REPRO_KERNELS_ENV, "python")
    invalidate_stats_cache()
    yield
    invalidate_stats_cache()


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
        plan = plan_engine(stats_for(PACKED_MAX_INDEX_BYTES + 1))
        assert plan.config == EngineConfig(backend="packed")

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


class TestCostModel:
    def test_point_python_corner_preserves_legacy_boundary(self):
        assert _single_index_ceiling("point", "python") == PACKED_MAX_INDEX_BYTES

    def test_batch_and_jit_each_raise_the_ceiling(self):
        point_py = _single_index_ceiling("point", "python")
        assert _single_index_ceiling("batch", "python") > point_py
        assert _single_index_ceiling("point", "jit") > point_py
        assert _single_index_ceiling("batch", "jit") > max(
            _single_index_ceiling("batch", "python"),
            _single_index_ceiling("point", "jit"),
        )
        assert JIT_SCAN_SPEEDUP > 1.0
        assert BATCH_LATENCY_TARGET_SECONDS > 0

    def test_shapes_plan_differently_on_the_same_stats(self):
        """Acceptance pin: the same sparse workload, queried point-wise vs
        in level sweeps, crosses the packed->compressed boundary
        differently (the compressed scan must fit the shape's ceiling)."""
        stats = WorkloadStats(
            rows=1 << 24,
            d=3,
            cardinalities=(64, 64, 64),
            projected_unique=1 << 24,
            projected_packed_bytes=1 << 30,
            projected_dense_bytes=1 << 33,
            memory_budget_bytes=1 << 31,
            cpu_count=1,
            projected_compressed_bytes=PACKED_MAX_INDEX_BYTES,
        )
        point = plan_engine(stats, query_shape="point")
        batch = plan_engine(stats, query_shape="batch")
        assert point.config.backend == "packed"
        assert batch.config.backend == "compressed"
        assert any("point-heavy" in line for line in point.rationale)
        assert any("batch-heavy" in line for line in batch.rationale)

    def test_algorithm_shapes_reach_describe(self):
        """deepdiver (point) and apriori (batch) rationales differ on the
        same dataset."""
        from repro.core.mups.base import algorithm_query_shape

        assert algorithm_query_shape("deepdiver") == "point"
        assert algorithm_query_shape("apriori") == "batch"
        dataset = random_categorical_dataset(80, (3, 3, 2), seed=7, skew=0.8)
        point = plan_engine(
            dataset, query_shape=algorithm_query_shape("deepdiver")
        )
        batch = plan_engine(
            dataset, query_shape=algorithm_query_shape("apriori")
        )
        assert "query shape 'point'" in point.describe()
        assert "query shape 'batch'" in batch.describe()
        assert point.describe() != batch.describe()

    def test_describe_renders_the_cost_model(self):
        text = plan_engine(stats_for(1 << 20)).describe()
        assert "cost model:" in text
        assert "single-index ceiling" in text

    def test_invalid_shape_rejected(self):
        with pytest.raises(EngineError, match="query_shape"):
            plan_engine(stats_for(64), query_shape="diagonal")

    def test_jit_request_without_numba_is_refused(self):
        if numba_available():
            pytest.skip("numba installed; forced-jit refusal unreachable")
        with pytest.raises(EngineError, match="jit"):
            plan_engine(
                stats_for(64), EngineConfig(backend=AUTO, kernel_tier="jit")
            )

    def test_plan_never_assumes_an_unavailable_tier(self):
        plan = plan_engine(stats_for(1 << 20))
        assert plan.stats.kernel_tier in ("jit", "python")
        if not numba_available():
            assert plan.stats.kernel_tier == "python"

    def test_planned_config_carries_requested_tier_verbatim(self):
        plan = plan_engine(
            stats_for(64, dense_bytes=64),
            EngineConfig(backend=AUTO, kernel_tier="python"),
        )
        assert plan.config.backend == "dense"
        assert plan.config.kernel_tier == "python"
        # ...and an unset tier stays unset, so planned configs stay
        # portable across machines with different tiers available.
        assert plan_engine(stats_for(64, dense_bytes=64)).config.kernel_tier is None


class TestStatsMemoization:
    def test_stats_of_memoizes_per_fingerprint(self):
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
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
