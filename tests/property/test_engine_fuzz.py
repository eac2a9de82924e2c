"""Differential fuzz harness: random workloads in lockstep on every backend.

The cross-engine equivalence suite checks each query family in isolation;
this harness checks the *interleavings*.  Hypothesis generates a random
dataset — half the time uniform-random rows, half the time a realistic
:mod:`repro.data.scenarios` draw (zipf marginals, latent-factor
correlation) — plus a random sequence of ``coverage`` / ``coverage_many``
(with and without the sweep's count-reuse memo) / ``coverage_of_masks`` /
``restrict_children`` / ``restrict_children_many`` / cache-churn /
``template()``-rebuild calls, and executes the sequence in lockstep on the
``dense`` reference and every other backend — ``packed``, ``sharded``,
the out-of-core sharded engine (one-shard resident budget), the socket
fan-out leg, and whatever the ``auto`` planner picks.  After every step
the answers must be bit-identical and the
hot-mask cache accounting (hits / misses / entries, which the shared base
class drives identically for every backend) must agree with the
reference.

Two profiles run it: the normal suite uses a fixed-seed (derandomized)
profile so CI is deterministic, and the ``-m slow`` job layers a deeper
randomized sweep on top (``test_engine_fuzz_deep``).  Past
counterexamples live in ``engine_fuzz_corpus.json`` next to this file and
replay on every run — append a shrunk case there whenever the fuzzer
finds a new one.
"""

import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.coverage import CoverageOracle
from repro.core.engine import (
    AUTO,
    DenseBoolEngine,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    resolve_engine,
)
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema
from repro.data.scenarios import SCENARIO_FAMILIES, scenario_dataset

CORPUS_PATH = Path(__file__).parent / "engine_fuzz_corpus.json"

#: Backend labels under differential test (dense is the reference).
#: "socket" is the distributed leg: sharded with spawn-local socket
#: workers (degrading to serial evaluation on platforms without fork,
#: which still exercises the mode-selection path).
BACKENDS = (
    "dense",
    "packed",
    "sharded",
    "out-of-core",
    "auto",
    "socket",
)


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
@st.composite
def _patterns(draw, cardinalities):
    values = [
        draw(st.sampled_from([X] + list(range(c)))) for c in cardinalities
    ]
    return Pattern(values)


@st.composite
def scenario_rows(draw, cardinalities):
    """Rows from a realistic scenario family (zipf tails, correlation).

    Uniform-random rows rarely produce the skewed marginals and coupled
    columns real coverage workloads have; drawing whole datasets from
    :mod:`repro.data.scenarios` points the fuzzer at those regimes.  The
    draw is reduced to ``(family, n, seed, ...)`` so hypothesis can still
    shrink it.
    """
    family = draw(st.sampled_from(SCENARIO_FAMILIES))
    n = draw(st.integers(min_value=0, max_value=32))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    skew = draw(st.sampled_from([0.5, 1.1, 2.5]))
    correlation = draw(st.sampled_from([0.0, 0.6, 1.0]))
    dataset = scenario_dataset(
        family,
        n,
        cardinalities,
        seed=seed,
        skew=skew,
        correlation=correlation,
    )
    return dataset.rows.tolist()


@st.composite
def fuzz_cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=d, max_size=d)
    )
    if draw(st.booleans()):
        rows = draw(scenario_rows(cardinalities))
    else:
        n = draw(st.integers(min_value=0, max_value=32))
        rows = [
            [
                draw(st.integers(min_value=0, max_value=c - 1))
                for c in cardinalities
            ]
            for _ in range(n)
        ]
    mask_cache_size = draw(st.sampled_from([0, 2, 64]))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(
            st.sampled_from(
                [
                    "point",
                    "many",
                    "masks",
                    "memo",
                    "children",
                    "children_many",
                    "churn",
                    "rebuild",
                ]
            )
        )
        if kind == "point":
            ops.append(("point", draw(_patterns(cardinalities))))
        elif kind in ("many", "masks", "memo"):
            batch = [
                draw(_patterns(cardinalities))
                for _ in range(draw(st.integers(min_value=0, max_value=4)))
            ]
            ops.append((kind, batch))
        elif kind == "children":
            ops.append(
                (
                    "children",
                    draw(_patterns(cardinalities)),
                    draw(st.integers(min_value=0, max_value=d - 1)),
                )
            )
        elif kind == "children_many":
            batch = [
                draw(_patterns(cardinalities))
                for _ in range(draw(st.integers(min_value=0, max_value=4)))
            ]
            ops.append(
                (
                    "children_many",
                    batch,
                    draw(st.integers(min_value=0, max_value=d - 1)),
                )
            )
        else:
            ops.append((kind,))
    return cardinalities, rows, mask_cache_size, ops


# ----------------------------------------------------------------------
# lockstep execution
# ----------------------------------------------------------------------
def _build_engines(dataset, mask_cache_size, root):
    return {
        "dense": DenseBoolEngine(dataset, mask_cache_size=mask_cache_size),
        "packed": PackedBitsetEngine(dataset, mask_cache_size=mask_cache_size),
        "sharded": ShardedEngine(
            dataset, shards=3, mask_cache_size=mask_cache_size
        ),
        "out-of-core": ShardedEngine(
            dataset,
            shards=2,
            mask_cache_size=mask_cache_size,
            spill_dir=root,
            max_resident_bytes=1,
        ),
        "auto": resolve_engine(
            EngineConfig(backend=AUTO, mask_cache_size=mask_cache_size),
            dataset,
        ),
        "socket": ShardedEngine(
            dataset,
            shards=3,
            workers=2,
            mask_cache_size=mask_cache_size,
            spill_dir=root,
        ),
    }


def _check_cache_accounting(engines):
    """Every backend's hot-mask cache must account like the reference.

    The LRU lives in the shared base class, so an identical op sequence
    must produce identical hit/miss/entry counters on every backend (mask
    *bytes* legitimately differ per representation).
    """
    reference = engines["dense"].cache_info()
    for name, engine in engines.items():
        info = engine.cache_info()
        assert info["hits"] == reference["hits"], name
        assert info["misses"] == reference["misses"], name
        assert info["entries"] == reference["entries"], name
        assert info["max_size"] == reference["max_size"], name
        assert 0 <= info["entries"] <= max(1, info["max_size"]), name
        assert info["nbytes"] >= 0, name
        total = info["hits"] + info["misses"]
        expected_rate = (info["hits"] / total) if total else 0.0
        assert info["hit_rate"] == pytest.approx(expected_rate), name


def _apply_op(op, dataset, engines, oracles):
    kind = op[0]
    if kind == "point":
        pattern = op[1]
        expected = oracles["dense"].coverage(pattern)
        for name in BACKENDS[1:]:
            assert oracles[name].coverage(pattern) == expected, (name, pattern)
    elif kind == "many":
        batch = op[1]
        expected = list(oracles["dense"].coverage_many(batch))
        for name in BACKENDS[1:]:
            assert list(oracles[name].coverage_many(batch)) == expected, name
    elif kind == "memo":
        # The count-reuse table the amortized threshold sweep rides: a
        # second pass over the same batch must answer from the memo alone
        # (no new oracle evaluations) with bit-identical counts, and the
        # memoized counts must agree across every backend.
        batch = op[1]
        results = {}
        for name in BACKENDS:
            oracle = oracles[name]
            memo = {}
            first = list(oracle.coverage_many(batch, memo=memo))
            before = oracle.evaluations
            second = list(oracle.coverage_many(batch, memo=memo))
            assert second == first, name
            assert oracle.evaluations == before, name
            assert set(memo) == {p.values for p in batch}, name
            results[name] = first
        for name in BACKENDS[1:]:
            assert results[name] == results["dense"], name
    elif kind == "masks":
        batch = op[1]
        reference = oracles["dense"]
        expected = list(
            reference.coverage_of_masks(
                [reference.match_mask(p) for p in batch]
            )
        )
        for name in BACKENDS[1:]:
            oracle = oracles[name]
            masks = [oracle.match_mask(p) for p in batch]
            assert list(oracle.coverage_of_masks(masks)) == expected, name
    elif kind == "children":
        pattern, attribute = op[1], op[2]
        reference = engines["dense"]
        family = reference.restrict_children(
            reference.match_mask(pattern), attribute
        )
        expected_bools = [reference.mask_to_bool(child) for child in family]
        expected_counts = list(reference.count_many(family))
        for name in BACKENDS[1:]:
            engine = engines[name]
            other = engine.restrict_children(
                engine.match_mask(pattern), attribute
            )
            assert len(other) == dataset.cardinalities[attribute], name
            for child, expected in zip(other, expected_bools):
                assert np.array_equal(
                    engine.mask_to_bool(child), expected
                ), (name, pattern, attribute)
            assert list(engine.count_many(other)) == expected_counts, name
    elif kind == "children_many":
        batch, attribute = op[1], op[2]
        reference = engines["dense"]
        family = reference.restrict_children_many(
            [reference.match_mask(p) for p in batch], attribute
        )
        expected_bools = [reference.mask_to_bool(child) for child in family]
        expected_counts = list(reference.count_many(family))
        for name in BACKENDS[1:]:
            engine = engines[name]
            other = engine.restrict_children_many(
                [engine.match_mask(p) for p in batch], attribute
            )
            assert len(other) == len(family), name
            for child, expected in zip(other, expected_bools):
                assert np.array_equal(
                    engine.mask_to_bool(child), expected
                ), (name, batch, attribute)
            assert list(engine.count_many(other)) == expected_counts, name
    elif kind == "churn":
        for engine in engines.values():
            engine.clear_mask_cache()
    elif kind == "rebuild":
        for name in BACKENDS:
            old = engines[name]
            template = old.template()
            old.close()
            rebuilt = resolve_engine(template, dataset)
            engines[name] = rebuilt
            oracles[name] = CoverageOracle(dataset, engine=rebuilt)
    else:  # pragma: no cover - corpus hygiene
        raise AssertionError(f"unknown fuzz op {kind!r}")


def _run_case(cardinalities, rows, mask_cache_size, ops):
    d = len(cardinalities)
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    array = np.asarray(rows, dtype=np.int32).reshape(len(rows), d)
    dataset = Dataset(schema, array)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as root:
        engines = _build_engines(dataset, mask_cache_size, root)
        oracles = {
            name: CoverageOracle(dataset, engine=engine)
            for name, engine in engines.items()
        }
        try:
            for op in ops:
                _apply_op(op, dataset, engines, oracles)
                _check_cache_accounting(engines)
        finally:
            for engine in engines.values():
                engine.close()


# ----------------------------------------------------------------------
# entry points: fixed-seed profile, deep profile, corpus replay
# ----------------------------------------------------------------------
@given(fuzz_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_engine_fuzz(case):
    """Normal-suite profile: fixed seed, deterministic in CI."""
    _run_case(*case)


@pytest.mark.slow
@given(fuzz_cases())
@settings(max_examples=100, deadline=None)
def test_engine_fuzz_deep(case):
    """Slow-job profile: a deeper randomized sweep over the same space."""
    _run_case(*case)


def _load_corpus():
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


def _parse_pattern(values):
    return Pattern([X if value == "X" else int(value) for value in values])


def _parse_op(entry):
    kind = entry[0]
    if kind == "point":
        return ("point", _parse_pattern(entry[1]))
    if kind in ("many", "masks", "memo"):
        return (kind, [_parse_pattern(values) for values in entry[1]])
    if kind == "children":
        return ("children", _parse_pattern(entry[1]), int(entry[2]))
    if kind == "children_many":
        return (
            "children_many",
            [_parse_pattern(values) for values in entry[1]],
            int(entry[2]),
        )
    return (kind,)


CORPUS = _load_corpus()


@pytest.mark.parametrize(
    "case", CORPUS, ids=[entry["name"] for entry in CORPUS]
)
def test_engine_fuzz_corpus_replays(case):
    """Seed-corpus regression: every past counterexample replays green."""
    _run_case(
        case["cardinalities"],
        case["rows"],
        case["mask_cache_size"],
        [_parse_op(entry) for entry in case["ops"]],
    )
