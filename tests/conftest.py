"""Shared fixtures: the paper's running examples and small random data."""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import numpy as np
import pytest

from repro.core.pattern import Pattern, parse_patterns
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset


@pytest.fixture
def example1_dataset() -> Dataset:
    """Example 1 (§III-A): three binary attributes, five tuples.

    With τ = 1 the only MUP is ``1XX`` (plus eight dominated uncovered
    patterns the naive algorithm must filter out).
    """
    return Dataset.from_strings(
        ["010", "001", "000", "011", "001"],
        schema=Schema.binary(3),
    )


@pytest.fixture
def example2_space() -> PatternSpace:
    """Example 2 (§IV): five attributes, A2 and A3 ternary, others binary."""
    return PatternSpace([2, 3, 3, 2, 2])


@pytest.fixture
def example2_mups():
    """The MUPs of Example 2 (Figure 8), P1..P7 in paper order."""
    return parse_patterns(
        ["XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX", "X020X"]
    )


@pytest.fixture
def example2_level2_targets(example2_mups):
    """The paper's M_λ for λ = 2: P1 to P6 (P7 has level 3)."""
    return list(example2_mups[:6])


def make_random_dataset(
    seed: int, n: int = 40, cardinalities=(2, 3, 2), skew: float = 0.8
) -> Dataset:
    """Small seeded dataset for brute-force cross-checks."""
    return random_categorical_dataset(n, cardinalities, seed=seed, skew=skew)


@pytest.fixture
def random_dataset_factory():
    return make_random_dataset


#: Any JSON value (no NaN/infinity: those are not JSON).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def json_documents(base: dict):
    """Arbitrary JSON documents, plus ``base`` with one field deleted or
    replaced by arbitrary JSON — in ``base`` itself or in one element of
    one of its list-of-object fields (e.g. a manifest's shard entries)."""

    @st.composite
    def mutated(draw):
        document = copy.deepcopy(base)
        target = document
        nested = [
            key
            for key, value in document.items()
            if isinstance(value, list)
            and value
            and all(isinstance(item, dict) for item in value)
        ]
        if nested and draw(st.booleans()):
            items = document[draw(st.sampled_from(sorted(nested)))]
            target = items[draw(st.integers(0, len(items) - 1))]
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
        return document

    return JSON_VALUES | mutated()


@pytest.fixture
def json_document_strategy():
    return json_documents
