"""Property-based tests for coverage enhancement (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import repro.core.enhancement.greedy as greedy_module
from repro.core.coverage import CoverageOracle
from repro.core.enhancement.expansion import uncovered_at_level
from repro.core.enhancement.greedy import enhance_coverage, greedy_cover
from repro.core.enhancement.hitting_set import naive_greedy_cover
from repro.core.enhancement.oracle import ValidationOracle, ValidationRule
from repro.core.enhancement.value_count import targets_by_value_count
from repro.core.lattice import PatternCodes, PatternLattice
from repro.core.mups import deepdiver
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.exceptions import EnhancementError


@st.composite
def space_and_targets(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    cardinalities = draw(
        st.lists(st.integers(min_value=2, max_value=3), min_size=d, max_size=d)
    )
    space = PatternSpace(cardinalities)
    count = draw(st.integers(min_value=1, max_value=6))
    targets = set()
    for _ in range(count):
        values = []
        for c in cardinalities:
            values.append(draw(st.sampled_from([X] + list(range(c)))))
        pattern = Pattern(values)
        if pattern.level > 0:
            targets.add(pattern)
    return space, sorted(targets)


@given(space_and_targets())
@settings(max_examples=50, deadline=None)
def test_greedy_hits_every_target(case):
    space, targets = case
    plan = greedy_cover(targets, space)
    assert not plan.unhittable
    remaining = set(targets)
    for combo in plan.combinations:
        remaining -= {t for t in remaining if t.matches(combo)}
    assert not remaining


@given(space_and_targets())
@settings(max_examples=30, deadline=None)
def test_greedy_and_naive_both_within_greedy_guarantee(case):
    # Both implementations are greedy, but tie-breaking among equally good
    # picks can legitimately change the final cover size (hypothesis found
    # the counterexample {X0, 0X, 1X, 11}: 2 vs 3 picks).  The true shared
    # invariants: both covers are complete, and both sizes respect the
    # greedy H_m approximation against the optimum, hence against each
    # other within an H_m factor.
    import math

    space, targets = case
    fast = greedy_cover(targets, space)
    slow = naive_greedy_cover(targets, space)
    for plan in (fast, slow):
        remaining = set(targets)
        for combo in plan.combinations:
            remaining -= {t for t in remaining if t.matches(combo)}
        assert not remaining
    if targets:
        harmonic = sum(1.0 / k for k in range(1, len(targets) + 1))
        larger = max(len(fast.combinations), len(slow.combinations))
        smaller = max(1, min(len(fast.combinations), len(slow.combinations)))
        assert larger <= math.ceil(harmonic * smaller)


@given(space_and_targets())
@settings(max_examples=30, deadline=None)
def test_each_pick_is_greedy_maximal(case):
    space, targets = case
    plan = greedy_cover(targets, space)
    remaining = set(targets)
    for combo in plan.combinations:
        hits = {t for t in remaining if t.matches(combo)}
        best = max(
            len({t for t in remaining if t.matches(c)})
            for c in space.all_combinations()
        )
        assert len(hits) == best
        remaining -= hits


@st.composite
def greedy_inputs(draw):
    """A space of 1–6 attributes with cardinalities 1–4, up to 40 targets
    (possibly none, possibly repeated) and 0–2 random validation rules,
    plus, sometimes, a rule that forbids every combination, which leaves
    every target unhittable."""
    d = draw(st.integers(min_value=1, max_value=6))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d)
    )
    pattern = st.tuples(
        *[st.sampled_from([X] + list(range(c))) for c in cardinalities]
    ).map(Pattern)
    targets = draw(st.lists(pattern, max_size=40))
    clause = st.integers(min_value=0, max_value=d - 1).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.sets(
                st.integers(min_value=0, max_value=cardinalities[a]), min_size=1
            ),
        )
    )
    rules = draw(
        st.lists(
            st.lists(clause, min_size=1, max_size=3, unique_by=lambda c: c[0]).map(
                ValidationRule
            ),
            max_size=2,
        )
    )
    if draw(st.booleans()):
        attribute = draw(st.integers(min_value=0, max_value=d - 1))
        rules.append(ValidationRule({attribute: range(cardinalities[attribute])}))
    return PatternSpace(cardinalities), targets, rules


def _plans_on_both_paths(case):
    space, targets, rules = case
    plans = {}
    for path in ("algorithm4", "grid"):
        with pytest.MonkeyPatch.context() as patch:
            if path == "algorithm4":
                patch.setattr(greedy_module, "_GRID_BYTES", 0)
            plans[path] = greedy_cover(targets, space, ValidationOracle(rules))
    tree, grid = plans["algorithm4"], plans["grid"]
    assert grid.nodes_visited == (space.combination_count() if targets else 0)
    assert (
        grid.combinations,
        grid.generalized,
        grid.unhittable,
        grid.iterations,
        grid.targets,
    ) == (
        tree.combinations,
        tree.generalized,
        tree.unhittable,
        tree.iterations,
        tree.targets,
    )


_NO_TARGETS = (PatternSpace((3, 2)), [], [])
_ALL_UNHITTABLE = (
    PatternSpace((2, 3)),
    [Pattern.of(0, X), Pattern.of(X, 2), Pattern.of(1, 1)],
    [ValidationRule({1: [0, 1, 2]})],
)


@given(greedy_inputs())
@example(_NO_TARGETS)
@example(_ALL_UNHITTABLE)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_grid_and_algorithm4_plan_alike(case):
    """Normal-suite profile: fixed seed, deterministic in CI."""
    _plans_on_both_paths(case)


@pytest.mark.slow
@given(greedy_inputs())
@settings(max_examples=1000, deadline=None)
def test_grid_and_algorithm4_plan_alike_deep(case):
    """Slow-job profile: a deeper randomized sweep over the same inputs."""
    _plans_on_both_paths(case)


def _plan_fields(plan):
    return (
        plan.combinations,
        plan.generalized,
        plan.unhittable,
        plan.iterations,
        plan.targets,
        plan.nodes_visited,
    )


_SOME_UNHITTABLE = (
    PatternSpace((2, 3)),
    [Pattern.of(0, X), Pattern.of(X, 2), Pattern.of(1, 1)],
    [ValidationRule({1: [2]})],
)


@given(greedy_inputs())
@example(_NO_TARGETS)
@example(_ALL_UNHITTABLE)
@example(_SOME_UNHITTABLE)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_coded_targets_plan_like_their_list(case):
    """GREEDY plans alike from the targets' codes, from their decoded list
    and from their codes over a lattice with other cardinalities (which
    take the validating path), on both search paths.  The codes of the
    space's own lattice are never decoded, except the unhittable ones."""
    space, targets, rules = case
    lattice = PatternLattice(space)
    codes = np.unique(lattice.encode(targets))
    decoded = lattice.decode(codes)
    wider = PatternLattice(PatternSpace([c + 1 for c in space.cardinalities]))
    counted = []
    decode = PatternLattice.decode

    def spy(self, codes):
        counted.append(len(codes))
        return decode(self, codes)

    for path in ("algorithm4", "grid"):
        with pytest.MonkeyPatch.context() as patch:
            if path == "algorithm4":
                patch.setattr(greedy_module, "_GRID_BYTES", 0)
            patch.setattr(PatternLattice, "decode", spy)
            counted.clear()
            coded = greedy_cover(
                PatternCodes(lattice, codes), space, ValidationOracle(rules)
            )
            assert sum(counted) == len(coded.unhittable)
            listed = greedy_cover(decoded, space, ValidationOracle(rules))
            other = greedy_cover(
                PatternCodes(wider, wider.encode(decoded)),
                space,
                ValidationOracle(rules),
            )
        assert _plan_fields(coded) == _plan_fields(listed) == _plan_fields(other)


@st.composite
def dataset_tau_level(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    cardinalities = draw(
        st.lists(st.integers(min_value=2, max_value=3), min_size=d, max_size=d)
    )
    n = draw(st.integers(min_value=1, max_value=40))
    rows = [
        [draw(st.integers(min_value=0, max_value=c - 1)) for c in cardinalities]
        for _ in range(n)
    ]
    tau = draw(st.integers(min_value=1, max_value=4))
    level = draw(st.integers(min_value=0, max_value=d))
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    return Dataset(schema, np.asarray(rows, dtype=np.int32)), tau, level


@given(dataset_tau_level())
@settings(max_examples=40, deadline=None)
def test_enhancement_reaches_requested_level(case):
    dataset, tau, level = case
    mups = deepdiver(dataset, tau).mups
    result, enhanced = enhance_coverage(dataset, mups, level=level, threshold=tau)
    assert not result.unhittable  # no validation oracle, so all hittable
    after = deepdiver(enhanced, tau)
    assert after.max_covered_level(dataset.d) >= level


@given(dataset_tau_level())
@settings(max_examples=30, deadline=None)
def test_expansion_matches_bruteforce(case):
    dataset, tau, level = case
    oracle = CoverageOracle(dataset)
    space = PatternSpace.for_dataset(dataset)
    mups = deepdiver(dataset, tau).mups
    targets = set(uncovered_at_level(mups, space, level))
    brute = {
        p
        for p in space.all_patterns()
        if p.level == level and oracle.coverage(p) < tau
    }
    assert targets == brute


@st.composite
def space_and_patterns(draw):
    """A small space and an arbitrary pattern list: duplicates, ancestors of
    drawn patterns, the root and patterns at every level."""
    d = draw(st.integers(min_value=1, max_value=4))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=d, max_size=d)
    )
    space = PatternSpace(cardinalities)
    pattern = st.tuples(
        *[st.sampled_from([X] + list(range(c))) for c in cardinalities]
    ).map(Pattern)
    patterns = draw(st.lists(pattern, max_size=6))
    for drawn in list(patterns):
        if draw(st.booleans()):
            kept = draw(st.lists(st.booleans(), min_size=d, max_size=d))
            patterns.append(Pattern([v if k else X for v, k in zip(drawn, kept)]))
    if draw(st.booleans()):
        patterns.append(space.root())
    if patterns and draw(st.booleans()):
        patterns.append(draw(st.sampled_from(patterns)))
    return space, draw(st.permutations(patterns))


@given(space_and_patterns(), st.data())
@settings(max_examples=100, deadline=None)
def test_expansion_is_the_union_of_descendants(case, data):
    space, patterns = case
    level = data.draw(st.integers(min_value=0, max_value=space.d))
    expected = {
        target
        for pattern in patterns
        if pattern.level <= level
        for target in space.descendants_at_level(pattern, level)
    }
    assert uncovered_at_level(patterns, space, level) == sorted(expected)
    # The limit raises iff the distinct targets exceed it.
    assert len(uncovered_at_level(patterns, space, level, len(expected))) == len(
        expected
    )
    if expected:
        with pytest.raises(EnhancementError):
            uncovered_at_level(patterns, space, level, len(expected) - 1)


@given(space_and_patterns(), st.integers(min_value=1, max_value=30))
@settings(max_examples=100, deadline=None)
def test_value_count_targets_match_a_scan(case, bound):
    space, patterns = case
    expected = [
        candidate
        for candidate in space.all_patterns()
        if space.value_count(candidate) >= bound
        and any(pattern.covers(candidate) for pattern in patterns)
    ]
    assert targets_by_value_count(patterns, space, bound) == expected
