"""PATTERN-BREAKER and DEEPDIVER on a level too wide for per-candidate
match masks.

AirBnB n=100,000 over 13 amenities at τ=100 reaches a level of 206,760
candidates over 6,780 unique rows: one bool match mask per candidate
would be a 1.4 GB stack, widened to 11 GB of ``int64`` to count it.
Counted by grouping the unique rows on each candidate subset, the search
must finish and return PATTERN-COMBINER's MUP set.  DEEPDIVER runs the
same level walk and must return the same set.  Each search's memory is
pinned too: the walk prunes and counts its widest level (280,236
candidates generated, 229,775 counted) in bounded chunks, and
PATTERN-COMBINER looks its codes up in a count table of 3**13 cells
(12.8 MB, under the table's byte cap).  The 3**13 = 1,594,323 cells are
over the coverage cube's cell cap, so both walks count by group-by.

Over 12 amenities the 3**12 = 531,441 cells fit the cap, and both
searches read their walk off the coverage cube instead; in a child
process each must return PATTERN-COMBINER's MUP set, with pinned
counters and memory.

Every identification algorithm, run on a prebuilt ``packed`` engine over
a 900-row, 480-pattern space, must also return Definition 4's MUP set
(``scan_mups``).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.lattice as lattice_module
from engine_reference import scan_mups
from repro.core.engine import CoverageEngine
from repro.core.mups import deepdiver, pattern_breaker, pattern_combiner
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.data.airbnb import load_airbnb
from repro.data.synthetic import random_categorical_dataset

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def airbnb_d13():
    dataset = load_airbnb(n=100_000, d=13)
    return dataset, pattern_combiner(dataset, 100)


@pytest.mark.parametrize("search", [pattern_breaker, deepdiver], ids=lambda f: f.__name__)
def test_search_matches_combiner_on_airbnb_d13(airbnb_d13, search):
    dataset, combiner = airbnb_d13
    result = search(dataset, 100)
    assert len(result) == 126_306
    assert result.as_set() == combiner.as_set()


#: Most ``ru_maxrss`` growth, past the unique rows, of one d=13 search.
#: Unchunked, PATTERN-BREAKER's walk grew by 258 MB; chunked, either walk
#: grows by about 77 MB, a third of it while building the answer's
#: 126,306 patterns.  PATTERN-COMBINER grew by 184 MB when it searched
#: sorted levels and re-derived their digits as ``int64``; on its count
#: table, carrying ``int8`` digits, it grows by about 42 MB.
MAX_GROWTH_MB = {"deepdiver": 90, "pattern_breaker": 90, "pattern_combiner": 50}

#: (nodes_generated, coverage_evaluations, pruned) of each search.
COUNTERS = {
    "deepdiver": [978_975, 808_417, 170_558],
    "pattern_breaker": [978_975, 808_417, 170_558],
    "pattern_combiner": [1_201_426, 1_201_426, 289_137],
}

#: Most ``ru_maxrss`` growth, past the unique rows, of one d=12 search on
#: the coverage cube.  Either search grows by about 12.0 MB there (the
#: cube is 8.5 MB, read by whole-cube masks with no level generated);
#: counted by group-by (the cube's cap forced to 0) it grew by about
#: 29.4 MB.  Both walks generate, count and prune the same nodes and
#: return the same 43,575 MUPs.
D12_MAX_GROWTH_MB = 16
D12_COUNTERS = [387_085, 340_366, 46_719]
D12_MUPS = 43_575

_MEASURE = """
import json, resource, sys
from repro.core.mups.base import find_mups
from repro.data.airbnb import load_airbnb

def peak_mb():
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20

dataset = load_airbnb(n=100_000, d=int(sys.argv[2]), seed=11)
dataset.unique_rows()
before = peak_mb()
result = find_mups(dataset, threshold=100, algorithm=sys.argv[1])
result.mups  # a result decodes its MUPs on first read; count the answer
growth = peak_mb() - before
stats = result.stats
combiner = find_mups(dataset, threshold=100, algorithm="pattern_combiner")
print(json.dumps({
    "mups": len(result),
    "matches_combiner": result.as_set() == combiner.as_set(),
    "counters": [stats.nodes_generated, stats.coverage_evaluations, stats.pruned],
    "growth_mb": growth,
}))
"""


def measure(algorithm, d):
    """One search in a fresh interpreter, so its peak RSS is its own; the
    growth over the primed dataset keeps the pin host-independent."""
    source = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _MEASURE, algorithm, str(d)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source},
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_d13_combiner_runs_on_the_count_table():
    combiner = importlib.import_module("repro.core.mups.combiner")
    assert 8 * 3**13 <= combiner._TABLE_BYTES


@pytest.mark.parametrize(
    "algorithm", ["deepdiver", "pattern_breaker", "pattern_combiner"]
)
def test_d13_search_memory_is_bounded(algorithm):
    measured = measure(algorithm, 13)
    assert measured["mups"] == 126_306
    assert measured["matches_combiner"]
    assert measured["counters"] == COUNTERS[algorithm]
    assert measured["growth_mb"] <= MAX_GROWTH_MB[algorithm]


def test_d13_walks_count_by_group_by():
    """The d=13 pins above guard the group-by walk: its space stays over
    the coverage cube's cell cap."""
    assert 3**13 == 1_594_323 > lattice_module._CUBE_CELLS
    assert not lattice_module.cube_fits((2,) * 13)
    assert lattice_module.cube_fits((2,) * 12)


@pytest.mark.parametrize("algorithm", ["deepdiver", "pattern_breaker"])
def test_d12_cube_walk_memory_is_bounded(algorithm):
    measured = measure(algorithm, 12)
    assert measured["mups"] == D12_MUPS
    assert measured["matches_combiner"]
    assert measured["counters"] == D12_COUNTERS
    assert measured["growth_mb"] <= D12_MAX_GROWTH_MB


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_packed_mups_match_scan_for_every_algorithm(algorithm):
    dataset = random_categorical_dataset(900, (5, 4, 3, 3), seed=11, skew=1.0)
    reference = scan_mups(dataset, 3)
    assert reference, "the fixture must actually have MUPs"
    result = find_mups(
        dataset,
        threshold=3,
        algorithm=algorithm,
        engine=CoverageEngine(dataset),
    )
    assert result.as_set() == reference
