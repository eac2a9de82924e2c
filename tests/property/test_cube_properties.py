"""The coverage cube (``repro.core.lattice.CoverageCube``) against the row
scan.

For every pattern of the space, the cube's count must equal Definition 2's
row scan (``coverage_scan``), its floor the smallest row-scan count over
``Pattern.parents()`` (``UNBOUNDED`` for the root) and its level
``Pattern.level``.  With an attribute subset the cube is built over the
projected rows, which repeat, and each cell stands for the full-width
pattern with ``X`` off the subset.

The golden fixtures run with and without a subset.  A fixed-seed
(derandomized) hypothesis profile runs in the normal suite, and the
``-m slow`` job layers a deeper randomized one on top.

PATTERN-BREAKER's level walk (``walk_dataset``) reads the cube when the
space fits it.  On random inputs, with and without a level cap, the walk
on the cube and the walk that counts by group-by (the cube's cell cap
forced to 0) must give the same rows (code, count, smallest parent
count), MUPs and counters, under the same two profiles.
"""

import csv
import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core.coverage import coverage_scan
from repro.core.lattice import UNBOUNDED, CoverageCube, PatternLattice, walk_dataset
from repro.core.pattern import X, Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from walk_paths import by_code, counters, grouped, on_cube

FIXTURES = Path(__file__).parents[1] / "fixtures"


def load_fixture(name):
    entry = json.loads((FIXTURES / "expected_mups.json").read_text())[name]
    with open(FIXTURES / f"{name}.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(cell) for cell in row] for row in reader if row]
    return Dataset.from_rows(rows, schema=Schema.of(header, entry["cardinalities"]))


def check_cube(dataset, attributes=None):
    swept = list(range(dataset.d)) if attributes is None else list(attributes)
    space = PatternSpace([dataset.schema.cardinalities[a] for a in swept])
    lattice = PatternLattice(space)
    rows, multiplicities = dataset.unique_rows()
    cube = CoverageCube(lattice, rows[:, swept], multiplicities)
    patterns = list(space.all_patterns())
    assert cube.size == len(patterns) == space.node_count()

    def full_width(pattern):
        values = [X] * dataset.d
        for position, attribute in enumerate(swept):
            values[attribute] = pattern[position]
        return Pattern(values)

    scanned = {p: coverage_scan(dataset, full_width(p)) for p in patterns}
    levels = cube.levels()
    # Code order is pattern order, so cell `code` is patterns[code].
    for code, pattern in enumerate(patterns):
        assert cube.counts[code] == scanned[pattern], pattern
        floor = min((scanned[q] for q in pattern.parents()), default=UNBOUNDED)
        assert cube.floors[code] == floor, pattern
        assert levels[code] == pattern.level
    assert cube.counts.dtype == cube.floors.dtype == np.int64
    assert levels.dtype == np.int8


@pytest.mark.parametrize("name", ["example1", "skewed_small", "sparse_wide"])
@pytest.mark.parametrize("attributes", [None, (0, 2)], ids=["all", "subset"])
def test_golden_cubes_match_the_row_scan(name, attributes):
    check_cube(load_fixture(name), attributes)


@st.composite
def cube_cases(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    cardinalities = tuple(
        draw(st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d))
    )
    dataset = random_categorical_dataset(
        draw(st.integers(min_value=0, max_value=48)),
        cardinalities,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        skew=draw(st.sampled_from([0.0, 1.0, 2.5])),
    )
    attributes = None
    if draw(st.booleans()):
        attributes = draw(
            st.lists(
                st.integers(min_value=0, max_value=d - 1),
                min_size=1,
                max_size=d,
                unique=True,
            ).map(sorted)
        )
    return dataset, attributes


@given(cube_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cube_matches_the_row_scan(case):
    """Normal-suite profile: fixed seed, deterministic in CI."""
    check_cube(*case)


@pytest.mark.slow
@given(cube_cases())
@settings(max_examples=400, deadline=None)
def test_cube_matches_the_row_scan_deep(case):
    """Slow-job profile: a deeper randomized sweep over the same inputs."""
    check_cube(*case)


@st.composite
def walk_cases(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    cardinalities = tuple(
        draw(st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d))
    )
    n = draw(st.integers(min_value=0, max_value=48))
    dataset = random_categorical_dataset(
        n,
        cardinalities,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        skew=draw(st.sampled_from([0.0, 1.0, 2.5])),
    )
    threshold = draw(st.integers(min_value=1, max_value=n + 2))
    max_level = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=d)))
    return dataset, threshold, max_level


def check_walks(dataset, threshold, max_level):
    cube = on_cube(walk_dataset, dataset, threshold, max_level)
    walked = grouped(walk_dataset, dataset, threshold, max_level)
    assert by_code(cube) == by_code(walked)
    assert cube.mups() == walked.mups()
    assert counters(cube.stats) == counters(walked.stats)


def walk_case(n, cardinalities, threshold, max_level=None):
    dataset = random_categorical_dataset(n, cardinalities, seed=3, skew=1.0)
    return dataset, threshold, max_level


@given(walk_cases())
# The edges of the cube walk's masks: τ > n (the root is the only MUP and
# nothing else is generated), no rows, level caps of 0 and d,
# cardinality-1 attributes and a single attribute.
@example(walk_case(20, (2, 3, 2), 21))
@example(walk_case(0, (2, 3), 1))
@example(walk_case(40, (3, 2, 2), 2, 0))
@example(walk_case(40, (3, 2, 2), 2, 3))
@example(walk_case(40, (1, 3, 1, 2), 2))
@example(walk_case(30, (4,), 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_cube_walk_matches_the_group_by_walk(case):
    """Normal-suite profile: fixed seed, deterministic in CI."""
    check_walks(*case)


@pytest.mark.slow
@given(walk_cases())
@settings(max_examples=500, deadline=None)
def test_cube_walk_matches_the_group_by_walk_deep(case):
    """Slow-job profile: a deeper randomized sweep over the same inputs."""
    check_walks(*case)
