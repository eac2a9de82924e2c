"""Property-based cross-checks of the MUP identification algorithms."""

import importlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from deepdiver_reference import deepdiver_reference
from repro.core.coverage import CoverageOracle
from repro.core.mups import (
    apriori_mups,
    deepdiver,
    naive_mups,
    pattern_breaker,
    pattern_combiner,
)
from repro.data.dataset import Dataset, Schema
from walk_paths import on_both_walks

combiner_module = importlib.import_module("repro.core.mups.combiner")


@st.composite
def dataset_and_threshold(draw, max_d=4, max_cardinality=3, max_n=30):
    d = draw(st.integers(min_value=1, max_value=max_d))
    cardinalities = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_cardinality),
            min_size=d,
            max_size=d,
        )
    )
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [
        [draw(st.integers(min_value=0, max_value=c - 1)) for c in cardinalities]
        for _ in range(n)
    ]
    tau = draw(st.integers(min_value=1, max_value=6))
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    array = np.asarray(rows, dtype=np.int32).reshape(n, d)
    return Dataset(schema, array), tau


@given(dataset_and_threshold())
@settings(max_examples=60, deadline=None)
def test_all_algorithms_agree(case):
    dataset, tau = case
    reference = naive_mups(dataset, tau).as_set()
    assert pattern_breaker(dataset, tau).as_set() == reference
    assert pattern_combiner(dataset, tau).as_set() == reference
    assert deepdiver(dataset, tau).as_set() == reference
    assert apriori_mups(dataset, tau).as_set() == reference


@given(dataset_and_threshold(max_d=5, max_cardinality=4, max_n=48))
@settings(max_examples=80, deadline=None)
def test_combiner_lookup_paths_agree(case):
    """PATTERN-COMBINER's count table and, with the table's cap at 0, its
    binary search in sorted levels both return Definition 4's MUPs and
    generate, count and prune the same nodes."""
    dataset, tau = case
    runs = []
    for cap in (combiner_module._TABLE_BYTES, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(combiner_module, "_TABLE_BYTES", cap)
            runs.append(pattern_combiner(dataset, tau))
    table, searched = runs
    assert table.as_set() == naive_mups(dataset, tau).as_set()
    assert searched.mups == table.mups
    counters = [
        (s.nodes_generated, s.coverage_evaluations, s.pruned)
        for s in (table.stats, searched.stats)
    ]
    assert counters[0] == counters[1]


@given(dataset_and_threshold())
@settings(max_examples=40, deadline=None)
def test_mup_definition(case):
    dataset, tau = case
    oracle = CoverageOracle(dataset)
    for mup in deepdiver(dataset, tau):
        assert oracle.coverage(mup) < tau
        for parent in mup.parents():
            assert oracle.coverage(parent) >= tau


@given(dataset_and_threshold())
@settings(max_examples=40, deadline=None)
def test_mups_are_an_antichain(case):
    dataset, tau = case
    mups = list(deepdiver(dataset, tau))
    for i, a in enumerate(mups):
        for b in mups[i + 1 :]:
            assert not a.dominates(b) and not b.dominates(a)


@given(dataset_and_threshold())
@settings(max_examples=30, deadline=None)
def test_every_uncovered_pattern_is_dominated_by_a_mup(case):
    from repro.core.pattern_graph import PatternSpace

    dataset, tau = case
    oracle = CoverageOracle(dataset)
    space = PatternSpace.for_dataset(dataset)
    mups = set(deepdiver(dataset, tau))
    for pattern in space.all_patterns():
        if oracle.coverage(pattern) < tau:
            assert any(m == pattern or m.dominates(pattern) for m in mups)
        else:
            assert not any(m == pattern or m.dominates(pattern) for m in mups)


@given(
    dataset_and_threshold(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
@settings(max_examples=80, deadline=None)
def test_deepdiver_counters_follow_the_pop_order(case, max_level):
    """DEEPDIVER's MUPs and counters are those of Algorithm 3 run one node
    at a time in the Rule-1 DFS order (``deepdiver_reference``), and obey
    the DFS's two identities.

    The Rule-1 DFS pushes a node's children in ascending attribute order
    and pops the last one first.  Let ``Q`` be a proper ancestor of a
    popped node ``P``.  Either ``Q`` is on ``P``'s Rule-1 path from the
    root, or the two paths share a prefix and then ``Q``'s turns to an
    attribute right of ``P``'s next one; either way ``Q`` comes first in
    the pop order, if it is pushed at all.  Every node on ``Q``'s path is
    an ancestor of ``P`` too, at a level below ``P``'s (so ``max_level``
    does not stop it), and is expanded unless a MUP dominates it or it
    is uncovered — and then a MUP dominates ``P``, which is pruned.  So
    an unpruned ``P`` is popped after every one of its ancestors, and by
    induction on the pop order:

    * every parent of an uncovered unpruned node was popped and found
      covered, so the climb never moves and reads only cached counts;
    * each MUP is thus a popped node, found after all its ancestors were
      popped, so no later pop dominates a known MUP.

    Every unpruned pop is then counted once (``coverage_evaluations ==
    nodes_generated - pruned``), and only the first dominance check ever
    prunes (``dominance_checks == 2 * nodes_generated - pruned``).  Both
    of the level walk's paths, the coverage cube and the group-by count,
    are checked.
    """
    dataset, tau = case
    result = on_both_walks(deepdiver, dataset, tau, max_level=max_level)
    stats = result.stats
    assert (
        result.as_set(),
        (
            stats.nodes_generated,
            stats.coverage_evaluations,
            stats.dominance_checks,
            stats.pruned,
        ),
    ) == deepdiver_reference(dataset, tau, max_level)
    assert result.as_set() == naive_mups(dataset, tau, max_level=max_level).as_set()
    assert stats.coverage_evaluations == stats.nodes_generated - stats.pruned
    assert stats.dominance_checks == 2 * stats.nodes_generated - stats.pruned
