"""Golden-file regression tests: algorithm × engine must reproduce exactly.

``tests/fixtures/`` commits small datasets together with their expected MUP
sets (computed by the naive reference, cross-checked against DEEPDIVER and
the literal Definition-4 scan, ``scan_mups``, when each threshold was
added).  Every identification algorithm on every engine configuration must
reproduce each expected set exactly — an end-to-end tripwire for
regressions anywhere in the pattern/coverage/engine/algorithm stack.
"""

import csv
import inspect
import json
from pathlib import Path

import pytest

from deepdiver_reference import deepdiver_reference
from repro.core.coverage import CoverageOracle
from repro.core.engine import CoverageEngine
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from walk_paths import counters, on_both_walks

FIXTURES = Path(__file__).parent / "fixtures"

with open(FIXTURES / "expected_mups.json") as _handle:
    EXPECTED = json.load(_handle)


def reused_engine(dataset):
    """A packed engine that has already answered every pattern in the
    space, so the search runs on an engine with a history."""
    engine = CoverageEngine(dataset)
    for pattern in PatternSpace.for_dataset(dataset).all_patterns():
        engine.coverage(pattern)
    return engine


def oracle_with_engine(dataset):
    """Both arguments at once: an oracle and the engine it counts with."""
    engine = CoverageEngine(dataset)
    return {"oracle": CoverageOracle(dataset, engine=engine), "engine": engine}


#: (label, arguments factory) — factories take the dataset and return
#: the ``engine=``/``oracle=`` keyword arguments for ``find_mups``.
ENGINE_CONFIGS = [
    ("packed", lambda dataset: {"engine": "packed"}),
    ("prebuilt", lambda dataset: {"engine": CoverageEngine(dataset)}),
    ("auto", lambda dataset: {"engine": "auto"}),
    ("none", lambda dataset: {"engine": None}),
    ("reused", lambda dataset: {"engine": reused_engine(dataset)}),
    # A prebuilt oracle over the fixture itself.
    ("oracle", lambda dataset: {"oracle": CoverageOracle(dataset)}),
    # An oracle together with the engine it wraps.
    ("oracle-with-engine", oracle_with_engine),
]

#: The algorithms that take a level cap: all but PATTERN-COMBINER.
LEVEL_CAPPED = sorted(
    name
    for name, algorithm in ALGORITHMS.items()
    if "max_level" in inspect.signature(algorithm).parameters
)

CASES = [
    (fixture, int(tau))
    for fixture, entry in sorted(EXPECTED.items())
    for tau in entry["thresholds"]
]


def load_fixture(name: str) -> Dataset:
    entry = EXPECTED[name]
    with open(FIXTURES / f"{name}.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(cell) for cell in row] for row in reader if row]
    schema = Schema.of(header, entry["cardinalities"])
    return Dataset.from_rows(rows, schema=schema)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("config", ENGINE_CONFIGS, ids=[c[0] for c in ENGINE_CONFIGS])
@pytest.mark.parametrize("fixture,tau", CASES, ids=[f"{f}-tau{t}" for f, t in CASES])
def test_algorithm_engine_matrix_reproduces_golden(algorithm, config, fixture, tau):
    dataset = load_fixture(fixture)
    expected = set(EXPECTED[fixture]["thresholds"][str(tau)])
    _, make_arguments = config
    result = find_mups(
        dataset, threshold=tau, algorithm=algorithm, **make_arguments(dataset)
    )
    assert {str(p) for p in result.mups} == expected


@pytest.mark.parametrize("max_level", [0, 1, 2], ids=["cap0", "cap1", "cap2"])
@pytest.mark.parametrize("algorithm", LEVEL_CAPPED)
@pytest.mark.parametrize("fixture,tau", CASES, ids=[f"{f}-tau{t}" for f, t in CASES])
def test_level_capped_search_reproduces_golden(algorithm, fixture, tau, max_level):
    """A cap keeps exactly the golden MUPs of level ≤ the cap: a MUP's
    parents are one level more general, so the cap hides none of them."""
    dataset = load_fixture(fixture)
    expected = {
        text
        for text in EXPECTED[fixture]["thresholds"][str(tau)]
        if Pattern.from_string(text).level <= max_level
    }
    result = find_mups(
        dataset, threshold=tau, algorithm=algorithm, max_level=max_level
    )
    assert {str(p) for p in result.mups} == expected
    assert result.max_level == max_level


#: DEEPDIVER's (nodes_generated, coverage_evaluations, dominance_checks,
#: pruned) per fixture and τ, recorded from the node-at-a-time search
#: (the example1 τ=3, skewed_small τ=12 and sparse_wide τ=1 entries were
#: recorded when those thresholds were added).  Both of the level walk's
#: paths, the coverage cube and the group-by count, are checked.
DEEPDIVER_COUNTERS = {
    ("example1", 1): (19, 19, 38, 0),
    ("example1", 2): (19, 16, 35, 3),
    ("example1", 3): (15, 10, 25, 5),
    ("skewed_small", 4): (88, 58, 146, 30),
    ("skewed_small", 8): (88, 54, 142, 34),
    ("skewed_small", 12): (57, 37, 94, 20),
    ("sparse_wide", 1): (54, 37, 91, 17),
    ("sparse_wide", 3): (41, 28, 69, 13),
}


@pytest.mark.parametrize("fixture,tau", CASES, ids=[f"{f}-tau{t}" for f, t in CASES])
def test_deepdiver_counters_are_pinned(fixture, tau):
    stats = on_both_walks(find_mups, load_fixture(fixture), threshold=tau).stats
    assert counters(stats) == DEEPDIVER_COUNTERS[fixture, tau]


@pytest.mark.parametrize("max_level", [None, 1, 2], ids=["all", "cap1", "cap2"])
@pytest.mark.parametrize("fixture,tau", CASES, ids=[f"{f}-tau{t}" for f, t in CASES])
def test_deepdiver_matches_the_node_at_a_time_reference(fixture, tau, max_level):
    """The level walk's MUPs and counters, on the cube and by group-by,
    are those of Algorithm 3 run one node at a time in the Rule-1 DFS
    order."""
    dataset = load_fixture(fixture)
    result = on_both_walks(
        find_mups, dataset, threshold=tau, algorithm="deepdiver", max_level=max_level
    )
    assert (result.as_set(), counters(result.stats)) == deepdiver_reference(
        dataset, tau, max_level
    )


def test_fixture_files_are_consistent():
    """Every expected entry has a CSV and every CSV has an expected entry."""
    csvs = {path.stem for path in FIXTURES.glob("*.csv")}
    assert csvs == set(EXPECTED)
    for name in EXPECTED:
        dataset = load_fixture(name)
        assert dataset.n > 0
        assert list(dataset.schema.cardinalities) == EXPECTED[name]["cardinalities"]
