"""The auto planner: it plans ``packed`` and reports its projections.

Plans are deterministic functions of ``(WorkloadStats, requested
EngineConfig)``; these tests pin that ``"auto"`` plans ``packed`` on
every input, within the memory budget or over it, that the requested
cache capacity passes through, and that the projections ``--explain-plan``
and serve admission read are computed from the schema alone.
"""

import pytest

from repro.core.engine import (
    AUTO,
    EngineConfig,
    PackedBitsetEngine,
    WorkloadStats,
    available_memory_bytes,
    plan_engine,
    set_available_memory_bytes,
)
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups.base import find_mups
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


def stats_for(packed_bytes, unique=1 << 20, budget=1 << 30, rows=1 << 20):
    """A hand-rolled stats snapshot with the projections under test."""
    return WorkloadStats(
        rows=rows,
        d=3,
        cardinalities=(4, 4, 4),
        projected_unique=unique,
        projected_packed_bytes=packed_bytes,
        memory_budget_bytes=budget,
    )


class TestPackedEverywhere:
    def test_tiny_index_plans_packed(self):
        plan = plan_engine(stats_for(64))
        assert plan.config == EngineConfig(backend="packed")
        assert any("-> packed" in line for line in plan.rationale)

    def test_tiny_categorical_plans_packed(self):
        tiny = random_categorical_dataset(3_000, (2, 3, 2), seed=7, skew=1.0)
        plan = plan_engine(tiny, EngineConfig(backend=AUTO, mask_cache_size=0))
        assert plan.config == EngineConfig(backend="packed", mask_cache_size=0)

    def test_mid_size_index_plans_packed(self):
        plan = plan_engine(stats_for(1 << 20))
        assert plan.config == EngineConfig(backend="packed")

    def test_large_index_within_budget_plans_packed(self):
        plan = plan_engine(stats_for(64 << 20))
        assert plan.config == EngineConfig(backend="packed")

    def test_index_over_budget_still_plans_packed(self):
        """``packed`` is the only backend; serve admission, not the
        planner, refuses an index over its budget."""
        plan = plan_engine(stats_for(1 << 30, budget=16 << 20))
        assert plan.config == EngineConfig(backend="packed")
        assert any("exceeds the memory budget" in line for line in plan.rationale)

    def test_one_byte_of_memory_still_plans_packed(self):
        dataset = random_categorical_dataset(50, (3, 2), seed=5, skew=1.0)
        try:
            set_available_memory_bytes(1)
            plan = plan_engine(dataset, "auto")
        finally:
            set_available_memory_bytes(None)
        assert plan.stats.memory_budget_bytes == 1
        assert plan.config == EngineConfig(backend="packed")
        assert isinstance(plan.build(dataset), PackedBitsetEngine)


class TestConstraints:
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
    """Sparse domains plan like any other: packed."""

    def test_sparse_domain_plans_packed_within_budget(self):
        sparse = random_categorical_dataset(
            20_000, (96, 80, 64), seed=5, skew=0.4
        )
        plan = plan_engine(sparse)
        assert plan.config == EngineConfig(backend="packed")
        assert isinstance(plan.build(sparse), PackedBitsetEngine)

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

class TestEndToEnd:
    def test_auto_resolves_and_matches_packed(self):
        dataset = random_categorical_dataset(80, (3, 3, 2), seed=7, skew=0.8)
        auto = find_mups(dataset, threshold=4, engine=AUTO)
        packed = find_mups(dataset, threshold=4, engine="packed")
        assert auto.as_set() == packed.as_set()

    def test_plan_build_helper(self):
        dataset = random_categorical_dataset(30, (2, 2, 2), seed=7, skew=1.0)
        plan = plan_engine(dataset)
        engine = plan.build(dataset)
        assert isinstance(engine, PackedBitsetEngine)

    def test_describe_renders_stats_and_rationale(self):
        plan = plan_engine(stats_for(1 << 30, budget=16 << 20))
        text = plan.describe()
        assert "engine plan: backend=packed" in text
        assert "memory budget 16.0 MiB" in text
        assert "exceeds" in text
