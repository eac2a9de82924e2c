"""Golden-file regression tests: algorithm × engine must reproduce exactly.

``tests/fixtures/`` commits small datasets together with their expected MUP
sets (computed by the naive reference, cross-checked against DEEPDIVER and
the literal Definition-2 scan when the fixtures were generated).  Every
identification algorithm on every engine configuration must reproduce each
expected set exactly — an end-to-end tripwire for regressions anywhere in
the pattern/coverage/engine/algorithm stack.
"""

import csv
import json
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig, PackedBitsetEngine, ShardedEngine
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.data.dataset import Dataset, Schema

FIXTURES = Path(__file__).parent / "fixtures"

with open(FIXTURES / "expected_mups.json") as _handle:
    EXPECTED = json.load(_handle)

#: (label, engine-spec factory) — factories take the dataset and a fresh
#: temporary directory and return the ``engine=`` argument for ``find_mups``.
ENGINE_CONFIGS = [
    ("dense", lambda dataset, tmp_path: "dense"),
    ("packed", lambda dataset, tmp_path: "packed"),
    (
        "packed-nocache",
        lambda dataset, tmp_path: PackedBitsetEngine(dataset, mask_cache_size=0),
    ),
    # Whatever the workload-aware planner picks for the fixture.
    ("auto", lambda dataset, tmp_path: "auto"),
    (
        # Built by a declarative config; one shard spans the whole word
        # space.
        "sharded-1-config",
        lambda dataset, tmp_path: EngineConfig(backend="sharded", shards=1)(
            dataset
        ),
    ),
    ("sharded-2", lambda dataset, tmp_path: ShardedEngine(dataset, shards=2)),
    (
        "sharded-7-workers",
        lambda dataset, tmp_path: ShardedEngine(dataset, shards=7, workers=2),
    ),
    (
        "sharded-nocache",
        lambda dataset, tmp_path: ShardedEngine(dataset, shards=3, mask_cache_size=0),
    ),
    (
        "out-of-core",
        lambda dataset, tmp_path: ShardedEngine(
            dataset,
            shards=3,
            spill_dir=str(tmp_path),
            max_resident_bytes=1,
        ),
    ),
    (
        # Socket workers attach the spill directory under the same
        # one-byte budget, so every shard op evicts worker-side.
        "out-of-core-socket",
        lambda dataset, tmp_path: ShardedEngine(
            dataset,
            shards=3,
            workers=2,
            spill_dir=str(tmp_path),
            max_resident_bytes=1,
        ),
    ),
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
def test_algorithm_engine_matrix_reproduces_golden(
    algorithm, config, fixture, tau, tmp_path
):
    dataset = load_fixture(fixture)
    expected = set(EXPECTED[fixture]["thresholds"][str(tau)])
    _, make_engine = config
    engine = make_engine(dataset, tmp_path)
    try:
        result = find_mups(
            dataset, threshold=tau, algorithm=algorithm, engine=engine
        )
        assert {str(p) for p in result.mups} == expected
    finally:
        if isinstance(engine, ShardedEngine):
            engine.close()


def test_fixture_files_are_consistent():
    """Every expected entry has a CSV and every CSV has an expected entry."""
    csvs = {path.stem for path in FIXTURES.glob("*.csv")}
    assert csvs == set(EXPECTED)
    for name in EXPECTED:
        dataset = load_fixture(name)
        assert dataset.n > 0
        assert list(dataset.schema.cardinalities) == EXPECTED[name]["cardinalities"]
