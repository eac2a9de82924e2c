"""Golden-file regression tests: algorithm × engine must reproduce exactly.

``tests/fixtures/`` commits small datasets together with their expected MUP
sets (computed by the naive reference, cross-checked against DEEPDIVER and
the literal Definition-4 scan, ``scan_mups``, when each threshold was
added).  Every identification algorithm on every engine configuration must
reproduce each expected set exactly — an end-to-end tripwire for
regressions anywhere in the pattern/coverage/engine/algorithm stack.
"""

import csv
import json
from pathlib import Path

import pytest

from deepdiver_reference import deepdiver_reference
from repro.core.engine import (
    EngineConfig,
    PackedBitsetEngine,
    resolve_engine,
    set_available_memory_bytes,
)
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from walk_paths import counters, on_both_walks

FIXTURES = Path(__file__).parent / "fixtures"

with open(FIXTURES / "expected_mups.json") as _handle:
    EXPECTED = json.load(_handle)


def starved_auto(dataset):
    """``auto`` planned with one byte of available memory: the plan that
    once spilled out of core, and is ``packed`` like every other."""
    set_available_memory_bytes(1)
    try:
        return resolve_engine("auto", dataset)
    finally:
        set_available_memory_bytes(None)


def warm_engine(dataset):
    """A packed engine whose cache already holds the mask of every
    pattern in the space, so the search is answered from cached masks."""
    engine = PackedBitsetEngine(dataset, mask_cache_size=256)
    for pattern in PatternSpace.for_dataset(dataset).all_patterns():
        engine.coverage(pattern)
    return engine


#: (label, engine-spec factory) — factories take the dataset and return
#: the ``engine=`` argument for ``find_mups``.
ENGINE_CONFIGS = [
    ("packed", lambda dataset: "packed"),
    (
        "packed-nocache",
        lambda dataset: PackedBitsetEngine(dataset, mask_cache_size=0),
    ),
    # Whatever the planner picks for the fixture.
    ("auto", lambda dataset: "auto"),
    # Built by a declarative config.
    (
        "config",
        lambda dataset: EngineConfig(backend="packed", mask_cache_size=8)(
            dataset
        ),
    ),
    # A one-mask cache evicts on every miss.
    (
        "packed-cache-1",
        lambda dataset: PackedBitsetEngine(dataset, mask_cache_size=1),
    ),
    ("auto-starved", starved_auto),
    # An unbuilt config that ``find_mups`` plans and builds itself.
    (
        "auto-config",
        lambda dataset: EngineConfig(backend="auto", mask_cache_size=2),
    ),
    ("class", lambda dataset: PackedBitsetEngine),
    ("warm", warm_engine),
]

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
    _, make_engine = config
    result = find_mups(
        dataset, threshold=tau, algorithm=algorithm, engine=make_engine(dataset)
    )
    assert {str(p) for p in result.mups} == expected


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
