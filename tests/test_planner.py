"""The workload-aware auto planner: escalation ladder and constraints.

Plans are deterministic functions of ``(WorkloadStats, requested
EngineConfig)``; these tests pin the escalation boundary — packed →
sharded (+socket workers) — and that explicitly requested
knobs act as constraints, including the acceptance pin that a projected
packed index above the memory budget selects the out-of-core mode.
"""

import os

import pytest

from repro.core.engine import (
    AUTO,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    WorkloadStats,
    available_memory_bytes,
    plan_engine,
    resolve_engine,
    set_available_memory_bytes,
)
from repro.core.engine.planner import SHARD_TARGET_BYTES
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups.base import find_mups
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


def stats_for(
    packed_bytes,
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
        memory_budget_bytes=budget,
        cpu_count=cpus,
    )


class TestEscalation:
    def test_tiny_index_plans_packed(self):
        plan = plan_engine(stats_for(64))
        assert plan.config == EngineConfig(backend="packed")
        assert any("-> packed" in line for line in plan.rationale)

    def test_bench_planner_tiny_categorical_plans_packed(self):
        # bench_planner's tiny-categorical workload, once the dense zone.
        tiny = random_categorical_dataset(3_000, (2, 3, 2), seed=7, skew=1.0)
        plan = plan_engine(tiny, EngineConfig(backend=AUTO, mask_cache_size=0))
        assert plan.config == EngineConfig(backend="packed", mask_cache_size=0)

    def test_mid_size_index_plans_packed(self):
        plan = plan_engine(stats_for(1 << 20))
        assert plan.config == EngineConfig(backend="packed")

    def test_large_index_within_budget_plans_packed(self):
        plan = plan_engine(stats_for(64 << 20))
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
            stats_for(64), EngineConfig(backend=AUTO, shards=3)
        )
        assert plan.config.backend == "sharded"
        assert plan.config.shards == 3
        assert plan.config.spill_dir is not None

    def test_explicit_workers_force_sharded(self):
        plan = plan_engine(
            stats_for(64), EngineConfig(backend=AUTO, workers=2)
        )
        assert plan.config.backend == "sharded"
        assert plan.config.workers == 2
        assert plan.config.spill_dir is not None

    def test_explicit_endpoints_force_sharded(self):
        plan = plan_engine(
            stats_for(64),
            EngineConfig(backend=AUTO, worker_endpoints=["h1:7000"]),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.worker_endpoints == ("h1:7000",)
        assert any("standing worker" in line for line in plan.rationale)

    def test_explicit_spill_dir_forces_out_of_core(self, tmp_path):
        plan = plan_engine(
            stats_for(64),
            EngineConfig(backend=AUTO, spill_dir=str(tmp_path)),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.spill_dir == str(tmp_path)
        # Budget stays unlimited: the index fits, spill was a choice.
        assert plan.config.max_resident_bytes is None

    def test_explicit_delta_spill_forces_sharded(self):
        plan = plan_engine(
            stats_for(64),
            EngineConfig(backend=AUTO, delta_spill=True),
        )
        assert plan.config.backend == "sharded"
        assert plan.config.delta_spill is True
        assert plan.config.spill_dir is not None
        assert plan.config.max_resident_bytes is None

    def test_mask_cache_size_passes_through(self):
        plan = plan_engine(
            stats_for(64),
            EngineConfig(backend=AUTO, mask_cache_size=0),
        )
        assert plan.config.mask_cache_size == 0

    def test_hand_picked_backend_short_circuits(self):
        plan = plan_engine(stats_for(1 << 40), EngineConfig(backend="packed"))
        assert plan.config == EngineConfig(backend="packed")
        assert "hand-picked" in plan.rationale[0]


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

    def test_auto_mups_on_a_sparse_domain_match_pattern_breaker(self):
        # APRIORI counts through the planned engine; PATTERN-BREAKER
        # counts the unique rows.
        sparse = random_categorical_dataset(2_000, (64, 48), seed=7, skew=0.5)
        auto = find_mups(sparse, threshold=4, algorithm="apriori", engine=AUTO)
        reference = find_mups(sparse, threshold=4, algorithm="pattern_breaker")
        assert auto.as_set() == reference.as_set()


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


class TestStatsAreRecomputed:
    def test_stats_of_never_fingerprints(self, monkeypatch):
        """Stats are O(d) arithmetic: planning (and re-planning after a
        delivery) never hashes the rows."""

        def refuse(self):
            raise AssertionError("content_fingerprint called")

        monkeypatch.setattr(Dataset, "content_fingerprint", refuse)
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        assert WorkloadStats.of(dataset).rows == 50
        assert plan_engine(dataset).config.backend == "packed"
        index = IncrementalMupIndex(dataset, threshold=2, engine=AUTO)
        index.add_rows([[0, 1]])
        assert index.dataset.n == 51

    def test_distinct_budgets_give_distinct_stats(self):
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        a = WorkloadStats.of(dataset, memory_budget=1 << 20)
        b = WorkloadStats.of(dataset, memory_budget=1 << 21)
        assert a.memory_budget_bytes == 1 << 20
        assert b.memory_budget_bytes == 1 << 21


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
        assert isinstance(engine, PackedBitsetEngine)

    def test_describe_renders_stats_and_rationale(self):
        plan = plan_engine(stats_for(1 << 30, budget=16 << 20))
        text = plan.describe()
        assert "engine plan: backend=sharded" in text
        assert "memory budget" in text
        assert "out-of-core" in text
