"""Property suite pinning the generalization-lattice machinery.

Three families of guarantees:

* **Round trip** — ``drill_down`` inverts ``rollup`` exactly: for any
  coarse pattern, the union of its fine expansions' matching rows equals
  the coarse pattern's matching rows on the rolled dataset (and the
  expansions partition it, so the coverages sum);
* **Equivalence** — ``find_mups_hierarchical`` is bit-identical to an
  independent ``find_mups`` run on the equivalent ``rollup()`` dataset at
  every level of the stack, on every coverage-engine spec (packed /
  auto / a prebuilt engine);
* **Bucket sweep** — each ``bucketize_sweep`` point matches an
  independent ``find_mups`` over ``bucketized_dataset`` at that width.

The normal-suite legs run a fixed-seed (derandomized) profile; the
``-m slow`` job layers a deeper randomized sweep on top.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.hierarchy import (
    HierarchyStack,
    bucketize_sweep,
    bucketized_dataset,
    find_mups_hierarchical,
)
from repro.core.engine import CoverageEngine
from repro.core.mups import find_mups
from repro.core.pattern import Pattern, X
from repro.data.hierarchy import AttributeHierarchy, drill_down, rollup
from repro.data.scenarios import SCENARIO_FAMILIES, scenario_dataset

#: Engine specs the equivalence leg sweeps: both names, and (built per
#: dataset by :func:`_spec`) a prebuilt engine.
BACKENDS = (
    "packed",
    "auto",
    pytest.param(lambda dataset: CoverageEngine(dataset), id="prebuilt"),
)


def _spec(backend, dataset):
    """``backend`` as an engine spec for ``dataset``."""
    return backend(dataset) if callable(backend) else backend


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
def _block_groups(cardinality, cuts):
    """Dense group codes formed by cutting ``0..cardinality-1`` into
    contiguous blocks at the given cut points."""
    groups = []
    group = 0
    for code in range(cardinality):
        if code in cuts:
            group += 1
        groups.append(group)
    return tuple(groups)


@st.composite
def _chain(draw, name, cardinality):
    """A 1-2 level chain of block coarsenings; nested cut sets guarantee
    the refinement condition by construction."""
    fine_cuts = draw(
        st.sets(st.integers(min_value=1, max_value=cardinality - 1), max_size=4)
    )
    levels = [AttributeHierarchy.of(name, _block_groups(cardinality, fine_cuts))]
    if fine_cuts and draw(st.booleans()):
        coarse_cuts = draw(st.sets(st.sampled_from(sorted(fine_cuts))))
        levels.append(
            AttributeHierarchy.of(name, _block_groups(cardinality, coarse_cuts))
        )
    return levels


@st.composite
def hierarchy_cases(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    cardinalities = tuple(
        draw(
            st.lists(
                st.integers(min_value=2, max_value=8), min_size=d, max_size=d
            )
        )
    )
    family = draw(st.sampled_from(SCENARIO_FAMILIES))
    n = draw(st.integers(min_value=0, max_value=64))
    dataset = scenario_dataset(
        family,
        n,
        cardinalities,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        skew=draw(st.sampled_from([0.6, 1.4, 2.0])),
        correlation=draw(st.sampled_from([0.0, 0.7])),
    )
    names = dataset.schema.names
    indices = draw(
        st.sets(
            st.integers(min_value=0, max_value=d - 1), min_size=1, max_size=d
        )
    )
    chains = {
        names[i]: draw(_chain(names[i], cardinalities[i])) for i in indices
    }
    threshold = draw(st.integers(min_value=1, max_value=max(2, n + 2)))
    return dataset, chains, threshold


@st.composite
def bucket_cases(draw):
    d = draw(st.integers(min_value=1, max_value=2))
    cardinalities = tuple(
        draw(
            st.lists(
                st.integers(min_value=2, max_value=4), min_size=d, max_size=d
            )
        )
    )
    n = draw(st.integers(min_value=1, max_value=48))
    dataset = scenario_dataset(
        "uniform",
        n,
        cardinalities,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    values = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    counts = draw(st.sampled_from([(2,), (2, 4), (2, 4, 8), (3, 6)]))
    threshold = draw(st.integers(min_value=1, max_value=max(2, n)))
    return dataset, values, counts, threshold


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _matches(rows, pattern):
    if len(rows) == 0:
        return np.zeros(0, dtype=bool)
    mask = np.ones(len(rows), dtype=bool)
    for index, value in enumerate(pattern):
        if value != X:
            mask &= rows[:, index] == value
    return mask


def _coarse_patterns(cardinalities, limit=64):
    """A deterministic sample of the coarse pattern lattice."""
    patterns = [Pattern.root(len(cardinalities))]
    for index, cardinality in enumerate(cardinalities):
        fresh = []
        for pattern in patterns:
            for value in range(cardinality):
                values = list(pattern.values)
                values[index] = value
                fresh.append(Pattern(values))
        patterns.extend(fresh)
        if len(patterns) > limit:
            break
    return patterns[:limit]


def _check_round_trip(dataset, chains):
    hierarchies = [chain[-1] for chain in chains.values()]
    roll = rollup(dataset, hierarchies)
    for pattern in _coarse_patterns(roll.dataset.cardinalities):
        coarse_mask = _matches(roll.dataset.rows, pattern)
        fine = drill_down(pattern, roll)
        fine_masks = [_matches(dataset.rows, p) for p in fine]
        union = np.zeros(dataset.n, dtype=bool)
        overlap = 0
        for mask in fine_masks:
            overlap += int((union & mask).sum())
            union |= mask
        # Union of fine-pattern matches == coarse-pattern matches...
        assert np.array_equal(union, coarse_mask), pattern
        # ...and the expansions are disjoint, so coverages sum exactly.
        assert overlap == 0, pattern
        assert sum(int(m.sum()) for m in fine_masks) == int(coarse_mask.sum())


def _check_equivalence(dataset, chains, threshold, backend):
    stack = HierarchyStack.of(dataset, chains)
    result = find_mups_hierarchical(
        dataset, stack, threshold=threshold, engine=_spec(backend, dataset),
        remedies=False,
    )
    for level in range(stack.depth + 1):
        roll = stack.rollup_to(dataset, level)
        independent = find_mups(
            roll.dataset, threshold=threshold, engine=_spec(backend, roll.dataset)
        )
        assert result.at_level(level).mups == independent.mups, (backend, level)
        assert result.at_level(level).threshold == independent.threshold


def _check_bucket_sweep(dataset, values, counts, threshold):
    sweep = bucketize_sweep(dataset, values, counts, threshold=threshold)
    for point in sweep.points:
        independent = find_mups(
            bucketized_dataset(dataset, values, point.buckets),
            threshold=threshold,
        )
        assert point.result.mups == independent.mups, point.buckets


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@given(hierarchy_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_drill_down_inverts_rollup(case):
    """Union of fine-pattern matches == coarse-pattern matches."""
    dataset, chains, _threshold = case
    _check_round_trip(dataset, chains)


@pytest.mark.parametrize("backend", BACKENDS)
@given(hierarchy_cases())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_hierarchical_matches_flat_at_every_level(backend, case):
    """Bit-identical MUP sets at every stack level, on every backend."""
    dataset, chains, threshold = case
    _check_equivalence(dataset, chains, threshold, backend)


@given(bucket_cases())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_bucket_sweep_matches_independent_runs(case):
    """Each swept width matches an independent bucketize-then-search run."""
    dataset, values, counts, threshold = case
    _check_bucket_sweep(dataset, values, counts, threshold)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@given(hierarchy_cases())
@settings(max_examples=40, deadline=None)
def test_hierarchical_matches_flat_deep(backend, case):
    """Slow-job profile: a deeper randomized equivalence sweep."""
    dataset, chains, threshold = case
    _check_equivalence(dataset, chains, threshold, backend)


@pytest.mark.slow
@given(bucket_cases())
@settings(max_examples=40, deadline=None)
def test_bucket_sweep_matches_independent_runs_deep(case):
    """Slow-job profile: a deeper randomized bucket-sweep equivalence."""
    dataset, values, counts, threshold = case
    _check_bucket_sweep(dataset, values, counts, threshold)
