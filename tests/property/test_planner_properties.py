"""Planner properties: determinism and validity over arbitrary stats.

The planner must be a pure function — for a fixed :class:`WorkloadStats`
snapshot and requested config, repeated planning yields the identical
:class:`EnginePlan` — and every emitted plan must be concrete (never
``auto``) and pass :meth:`EngineConfig.validate` so it can always build.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.engine import AUTO, EngineConfig, WorkloadStats, plan_engine

_WORD_BITS = 64


@st.composite
def workload_stats(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    cardinalities = tuple(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=64), min_size=d, max_size=d
            )
        )
    )
    rows = draw(st.integers(min_value=0, max_value=1 << 40))
    combinations = 1
    for cardinality in cardinalities:
        combinations *= cardinality
    unique = min(rows, combinations)
    words = (unique + _WORD_BITS - 1) // _WORD_BITS
    row_total = sum(cardinalities)
    return WorkloadStats(
        rows=rows,
        d=d,
        cardinalities=cardinalities,
        projected_unique=unique,
        projected_packed_bytes=row_total * words * 8,
        projected_dense_bytes=row_total * unique,
        memory_budget_bytes=draw(st.integers(min_value=1, max_value=1 << 42)),
        cpu_count=draw(st.integers(min_value=1, max_value=64)),
    )


@st.composite
def auto_requests(draw):
    shards = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=64)))
    workers = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=8)))
    return EngineConfig(
        backend=AUTO,
        shards=shards,
        workers=workers,
        max_resident_bytes=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 40))
        ),
        mask_cache_size=draw(st.sampled_from([None, 0, 16])),
    )


@given(workload_stats(), auto_requests(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_plans_are_deterministic_for_a_fixed_stats_snapshot(
    stats, requested, hierarchy
):
    first = plan_engine(stats, requested, hierarchy=hierarchy)
    second = plan_engine(stats, requested, hierarchy=hierarchy)
    assert first == second
    assert first.rationale == second.rationale


@given(workload_stats(), auto_requests(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_emitted_plan_is_concrete_and_valid(stats, requested, hierarchy):
    plan = plan_engine(stats, requested, hierarchy=hierarchy)
    config = plan.config
    assert config.backend != AUTO
    config.validate()  # must never raise
    # Requested constraints survive into the plan.
    if requested.shards is not None:
        assert config.shards == requested.shards
    if requested.workers is not None:
        assert config.workers == requested.workers
    if requested.mask_cache_size is not None:
        assert config.mask_cache_size == requested.mask_cache_size
    # The acceptance invariant: over-budget projections go out-of-core.
    budget = (
        requested.max_resident_bytes
        if requested.max_resident_bytes is not None
        else stats.memory_budget_bytes
    )
    if stats.projected_packed_bytes > budget:
        assert config.backend == "sharded"
        assert config.spill_dir is not None
        assert config.max_resident_bytes == budget
