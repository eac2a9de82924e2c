"""Planner properties: determinism and validity over arbitrary stats.

The planner must be a pure function — for a fixed :class:`WorkloadStats`
snapshot and requested config, repeated planning yields the identical
:class:`EnginePlan` — and every emitted plan must be ``packed`` with the
requested cache capacity and pass :meth:`EngineConfig.validate`, so it
can always build.
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
        memory_budget_bytes=draw(st.integers(min_value=1, max_value=1 << 42)),
    )


@st.composite
def auto_requests(draw):
    return EngineConfig(
        backend=AUTO, mask_cache_size=draw(st.sampled_from([None, 0, 16]))
    )


@given(workload_stats(), auto_requests())
@settings(max_examples=200, deadline=None)
def test_plans_are_deterministic_for_a_fixed_stats_snapshot(stats, requested):
    first = plan_engine(stats, requested)
    second = plan_engine(stats, requested)
    assert first == second
    assert first.rationale == second.rationale


@given(workload_stats(), auto_requests())
@settings(max_examples=200, deadline=None)
def test_every_emitted_plan_is_concrete_and_valid(stats, requested):
    plan = plan_engine(stats, requested)
    config = plan.config
    config.validate()  # must never raise
    # Within the budget or over it, packed, with the requested capacity.
    assert config == EngineConfig(
        backend="packed", mask_cache_size=requested.mask_cache_size
    )
