"""Differential fuzz harness: random workloads against engine-free references.

The engine equivalence suite checks each query family in isolation;
this harness checks the *interleavings*.  Hypothesis generates a random
dataset — half the time uniform-random rows, half the time a realistic
:mod:`repro.data.scenarios` draw (zipf marginals, latent-factor
correlation) — plus a random sequence of ``coverage`` / ``coverage_many``
/ ``coverage_of_masks`` / ``restrict_children`` / rebuild calls, and
executes it on a :class:`~repro.core.engine.CoverageEngine` behind an
oracle.  A rebuild replaces the engine and the oracle with new ones.
After every step the counts must equal Definition 2's row scan
(``coverage_scan``), the masks a numpy row match over the unique rows,
and the oracle's ``evaluations`` the number of patterns and masks it
was asked to count.

Two profiles run it: the normal suite uses a fixed-seed (derandomized)
profile so CI is deterministic, and the ``-m slow`` job layers a deeper
randomized sweep on top (``test_engine_fuzz_deep``).  Past
counterexamples live in ``engine_fuzz_corpus.json`` next to this file and
replay on every run — append a shrunk case there whenever the fuzzer
finds a new one.  Older corpus entries carry a ``mask_cache_size``, which
the replay ignores, and ``churn`` ops, which it replays as a point query
on the root pattern.
"""

import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from engine_reference import row_match
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import CoverageEngine
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema
from repro.data.scenarios import SCENARIO_FAMILIES, scenario_dataset

CORPUS_PATH = Path(__file__).parent / "engine_fuzz_corpus.json"


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
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(
            st.sampled_from(["point", "many", "masks", "children", "rebuild"])
        )
        if kind == "point":
            ops.append(("point", draw(_patterns(cardinalities))))
        elif kind in ("many", "masks"):
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
    return cardinalities, rows, ops


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class _Lane:
    """One engine, the oracle over it, and the count the oracle must
    report as its ``evaluations``."""

    def __init__(self, dataset):
        self.engine = CoverageEngine(dataset)
        self.oracle = CoverageOracle(dataset, engine=self.engine)
        self.evaluations = 0

    def check_evaluations(self):
        assert self.oracle.evaluations == self.evaluations


def _apply_op(op, dataset, lane):
    kind = op[0]
    oracle = lane.oracle
    if kind == "point":
        pattern = op[1]
        assert oracle.coverage(pattern) == coverage_scan(dataset, pattern), pattern
        lane.evaluations += 1
    elif kind == "many":
        batch = op[1]
        expected = [coverage_scan(dataset, p) for p in batch]
        assert list(oracle.coverage_many(batch)) == expected
        lane.evaluations += len(batch)
    elif kind == "masks":
        batch = op[1]
        expected = [coverage_scan(dataset, p) for p in batch]
        masks = [oracle.match_mask(p) for p in batch]
        assert list(oracle.coverage_of_masks(masks)) == expected
        lane.evaluations += len(batch)
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
        engine = lane.engine
        family = engine.restrict_children(engine.match_mask(pattern), attribute)
        assert len(family) == dataset.cardinalities[attribute]
        for child, expected in zip(family, expected_bools):
            assert np.array_equal(
                engine.mask_to_bool(child), expected
            ), (pattern, attribute)
        assert list(engine.count_many(family)) == expected_counts
    elif kind == "rebuild":
        return _Lane(dataset)
    else:  # pragma: no cover - corpus hygiene
        raise AssertionError(f"unknown fuzz op {kind!r}")
    return lane


def _run_case(cardinalities, rows, ops):
    d = len(cardinalities)
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    array = np.asarray(rows, dtype=np.int32).reshape(len(rows), d)
    dataset = Dataset(schema, array)
    lane = _Lane(dataset)
    for op in ops:
        lane = _apply_op(op, dataset, lane)
        lane.check_evaluations()


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


def _parse_op(entry, d):
    kind = entry[0]
    if kind == "point":
        return ("point", _parse_pattern(entry[1]))
    if kind == "churn":
        return ("point", Pattern.root(d))
    if kind in ("many", "masks"):
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
    d = len(case["cardinalities"])
    _run_case(
        case["cardinalities"],
        case["rows"],
        [_parse_op(entry, d) for entry in case["ops"]],
    )
