"""Differential fuzz harness: random workloads in lockstep on every engine spec.

The cross-engine equivalence suite checks each query family in isolation;
this harness checks the *interleavings*.  Hypothesis generates a random
dataset — half the time uniform-random rows, half the time a realistic
:mod:`repro.data.scenarios` draw (zipf marginals, latent-factor
correlation) — plus a random sequence of ``coverage`` / ``coverage_many``
(with and without the sweep's count-reuse memo) / ``coverage_of_masks`` /
``restrict_children`` / cache-churn /
``template()``-rebuild calls, and executes the sequence in lockstep on
``packed`` built directly and on whatever the ``auto`` planner picks.
After every step each engine's counts must equal Definition 2's row scan
(``coverage_scan``), its masks a numpy row match over the unique rows,
and its hot-mask cache accounting (hits / misses / entries, which the
shared base class drives) that of the other engine.

Two profiles run it: the normal suite uses a fixed-seed (derandomized)
profile so CI is deterministic, and the ``-m slow`` job layers a deeper
randomized sweep on top (``test_engine_fuzz_deep``).  Past
counterexamples live in ``engine_fuzz_corpus.json`` next to this file and
replay on every run — append a shrunk case there whenever the fuzzer
finds a new one.
"""

import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from engine_reference import row_match
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import (
    AUTO,
    EngineConfig,
    PackedBitsetEngine,
    resolve_engine,
)
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema
from repro.data.scenarios import SCENARIO_FAMILIES, scenario_dataset

CORPUS_PATH = Path(__file__).parent / "engine_fuzz_corpus.json"

#: Engine labels under differential test.
BACKENDS = ("packed", "auto")


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
        else:
            ops.append((kind,))
    return cardinalities, rows, mask_cache_size, ops


# ----------------------------------------------------------------------
# lockstep execution
# ----------------------------------------------------------------------
def _build_engines(dataset, mask_cache_size):
    return {
        "packed": PackedBitsetEngine(dataset, mask_cache_size=mask_cache_size),
        "auto": resolve_engine(
            EngineConfig(backend=AUTO, mask_cache_size=mask_cache_size),
            dataset,
        ),
    }


def _check_cache_accounting(engines):
    """Every engine's hot-mask cache must account like packed's.

    The LRU lives in the shared base class, so an identical op sequence
    must produce identical hit/miss/entry counters on every engine.
    """
    reference = engines["packed"].cache_info()
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
        expected = coverage_scan(dataset, pattern)
        for name in BACKENDS:
            assert oracles[name].coverage(pattern) == expected, (name, pattern)
    elif kind == "many":
        batch = op[1]
        expected = [coverage_scan(dataset, p) for p in batch]
        for name in BACKENDS:
            assert list(oracles[name].coverage_many(batch)) == expected, name
    elif kind == "memo":
        # The count-reuse table the amortized threshold sweep rides: a
        # second pass over the same batch must answer from the memo alone
        # (no new oracle evaluations) with bit-identical counts, and the
        # memoized counts must be the scanned ones on every backend.
        batch = op[1]
        expected = [coverage_scan(dataset, p) for p in batch]
        for name in BACKENDS:
            oracle = oracles[name]
            memo = {}
            first = list(oracle.coverage_many(batch, memo=memo))
            before = oracle.evaluations
            second = list(oracle.coverage_many(batch, memo=memo))
            assert first == second == expected, name
            assert oracle.evaluations == before, name
            assert set(memo) == {p.values for p in batch}, name
    elif kind == "masks":
        batch = op[1]
        expected = [coverage_scan(dataset, p) for p in batch]
        for name in BACKENDS:
            oracle = oracles[name]
            masks = [oracle.match_mask(p) for p in batch]
            assert list(oracle.coverage_of_masks(masks)) == expected, name
    elif kind == "children":
        # The attribute may be deterministic in the pattern already, so a
        # child is the pattern's rows AND one value's rows.
        pattern, attribute = op[1], op[2]
        _, weights = dataset.unique_rows()
        parent = row_match(dataset, pattern)
        root = Pattern.root(dataset.d)
        expected_bools = [
            parent & row_match(dataset, root.with_value(attribute, value))
            for value in range(dataset.cardinalities[attribute])
        ]
        expected_counts = [int(weights[rows].sum()) for rows in expected_bools]
        for name in BACKENDS:
            engine = engines[name]
            family = engine.restrict_children(
                engine.match_mask(pattern), attribute
            )
            assert len(family) == dataset.cardinalities[attribute], name
            for child, expected in zip(family, expected_bools):
                assert np.array_equal(
                    engine.mask_to_bool(child), expected
                ), (name, pattern, attribute)
            assert list(engine.count_many(family)) == expected_counts, name
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
    engines = _build_engines(dataset, mask_cache_size)
    oracles = {
        name: CoverageOracle(dataset, engine=engine)
        for name, engine in engines.items()
    }
    for op in ops:
        _apply_op(op, dataset, engines, oracles)
        _check_cache_accounting(engines)


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
