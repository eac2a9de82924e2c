"""Unit tests for attribute hierarchies and roll-ups (§II)."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.coverage import CoverageOracle
from repro.core.mups import find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy, drill_down, rollup
from repro.data.scenarios import scenario_dataset
from repro.exceptions import DataError, SchemaError

FIXTURES = Path(__file__).parent / "fixtures"

STATE_SCHEMA = Schema.of(
    ["state", "sex"],
    [4, 2],
    [["MI", "OH", "CA", "WA"], ["male", "female"]],
)


def make_dataset():
    rows = np.array(
        [[0, 0], [0, 1], [1, 0], [2, 0], [2, 1], [3, 0], [3, 0], [1, 1]],
        dtype=np.int32,
    )
    return Dataset(STATE_SCHEMA, rows)


class TestAttributeHierarchy:
    def test_of_and_cardinality(self):
        hierarchy = AttributeHierarchy.of("state", [0, 0, 1, 1], ["midwest", "west"])
        assert hierarchy.coarse_cardinality == 2
        assert hierarchy.fine_codes_of(0) == (0, 1)
        assert hierarchy.fine_codes_of(1) == (2, 3)

    def test_from_label_map(self):
        hierarchy = AttributeHierarchy.from_label_map(
            STATE_SCHEMA,
            "state",
            {"MI": "midwest", "OH": "midwest", "CA": "west", "WA": "west"},
        )
        assert hierarchy.groups == (0, 0, 1, 1)
        assert hierarchy.group_labels == ("midwest", "west")

    def test_from_label_map_requires_complete_mapping(self):
        with pytest.raises(SchemaError):
            AttributeHierarchy.from_label_map(
                STATE_SCHEMA, "state", {"MI": "midwest"}
            )

    def test_dense_group_codes_required(self):
        with pytest.raises(SchemaError):
            AttributeHierarchy.of("state", [0, 0, 2, 2])

    def test_label_count_checked(self):
        with pytest.raises(SchemaError):
            AttributeHierarchy.of("state", [0, 0, 1, 1], ["only-one"])

    def test_empty_mapping_rejected(self):
        with pytest.raises(SchemaError):
            AttributeHierarchy.of("state", [])

    def test_compose_chains_base_to_top(self):
        base_to_mid = AttributeHierarchy.of("zip", [0, 0, 1, 1, 2, 2])
        mid_to_top = AttributeHierarchy.of("zip", [0, 0, 1], ["south", "north"])
        composed = base_to_mid.compose(mid_to_top)
        assert composed.groups == (0, 0, 0, 0, 1, 1)
        assert composed.group_labels == ("south", "north")

    def test_compose_domain_checked(self):
        base_to_mid = AttributeHierarchy.of("zip", [0, 0, 1, 1])
        wrong = AttributeHierarchy.of("zip", [0, 1, 1])
        with pytest.raises(SchemaError, match="cannot compose"):
            base_to_mid.compose(wrong)

    def test_factor_through_recovers_step_map(self):
        fine = AttributeHierarchy.of("zip", [0, 0, 1, 1, 2, 2])
        coarse = AttributeHierarchy.of("zip", [0, 0, 0, 0, 1, 1])
        step = fine.factor_through(coarse)
        assert step.groups == (0, 0, 1)
        # chaining the step after the fine map reproduces the coarse map
        assert fine.compose(step).groups == coarse.groups

    def test_factor_through_rejects_crossing_groups(self):
        fine = AttributeHierarchy.of("zip", [0, 0, 1, 1])
        crossing = AttributeHierarchy.of("zip", [0, 1, 1, 1])
        with pytest.raises(SchemaError, match="does not factor"):
            fine.factor_through(crossing)

    def test_factor_through_domain_checked(self):
        fine = AttributeHierarchy.of("zip", [0, 0, 1, 1])
        other = AttributeHierarchy.of("zip", [0, 0, 1])
        with pytest.raises(SchemaError, match="different domains"):
            fine.factor_through(other)


class TestRollup:
    HIERARCHY = AttributeHierarchy.of("state", [0, 0, 1, 1], ["midwest", "west"])

    def test_rollup_reduces_cardinality(self):
        roll = rollup(make_dataset(), [self.HIERARCHY])
        assert roll.dataset.cardinalities == (2, 2)
        assert roll.dataset.schema.value_labels[0] == ("midwest", "west")

    def test_rollup_preserves_counts(self):
        dataset = make_dataset()
        roll = rollup(dataset, [self.HIERARCHY])
        oracle = CoverageOracle(roll.dataset)
        fine_oracle = CoverageOracle(dataset)
        # cov(midwest) == cov(MI) + cov(OH).
        assert oracle.coverage(Pattern.from_string("0X")) == fine_oracle.coverage(
            Pattern.from_string("0X")
        ) + fine_oracle.coverage(Pattern.from_string("1X"))

    def test_rollup_preserves_labels_column(self):
        dataset = make_dataset()
        dataset = Dataset(
            dataset.schema, dataset.rows, labels={"y": np.arange(dataset.n)}
        )
        roll = rollup(dataset, [self.HIERARCHY])
        assert roll.dataset.label("y").tolist() == list(range(dataset.n))

    def test_hierarchy_size_checked(self):
        with pytest.raises(SchemaError):
            rollup(make_dataset(), [AttributeHierarchy.of("state", [0, 1, 1])])

    def test_duplicate_hierarchy_rejected(self):
        with pytest.raises(SchemaError):
            rollup(make_dataset(), [self.HIERARCHY, self.HIERARCHY])

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            rollup(make_dataset(), [AttributeHierarchy.of("zipcode", [0, 0, 1, 1])])


def _golden_dataset(name):
    entry = json.loads((FIXTURES / "expected_mups.json").read_text())[name]
    with open(FIXTURES / f"{name}.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(cell) for cell in row] for row in reader if row]
    return Dataset.from_rows(rows, schema=Schema.of(header, entry["cardinalities"]))


def _wide_dataset():
    # 66 binary attributes and one of cardinality 4: the rolled grid has
    # 2**67 cells, past the int64 combination index.
    rng = np.random.default_rng(7)
    rows = np.column_stack(
        [rng.integers(0, 4, 300), rng.integers(0, 2, (300, 66))]
    ).astype(np.int32)
    return Dataset(Schema.of([f"a{i}" for i in range(67)], [4] + [2] * 66), rows)


ROLLED_INPUTS = {
    "example1": lambda: _golden_dataset("example1"),
    "skewed_small": lambda: _golden_dataset("skewed_small"),
    "sparse_wide": lambda: _golden_dataset("sparse_wide"),
    "zipf-scenario": lambda: scenario_dataset("zipf", 2_000, (12, 6, 5, 3), seed=4),
    "int64-fallback": _wide_dataset,
}


class TestRolledUniqueRows:
    """The roll-up installs its aggregation of the parent's unique rows;
    it must equal a fresh aggregation of the rolled rows."""

    @pytest.mark.parametrize("name", sorted(ROLLED_INPUTS))
    def test_installed_rows_and_counts_equal_a_fresh_aggregation(self, name):
        dataset = ROLLED_INPUTS[name]()
        dataset.unique_rows()
        # Halve every attribute the grid can halve.
        hierarchies = [
            AttributeHierarchy.of(attribute, [v // 2 for v in range(cardinality)])
            for attribute, cardinality in zip(
                dataset.schema.names, dataset.cardinalities
            )
            if cardinality > 1
        ]
        coarse = rollup(dataset, hierarchies).dataset
        assert coarse.unique_cache_ready
        unique, counts = coarse.unique_rows()
        fresh = Dataset(coarse.schema, coarse.rows, validate=False)
        fresh_unique, fresh_counts = fresh.unique_rows()
        assert unique.dtype == fresh_unique.dtype and counts.dtype == fresh_counts.dtype
        assert unique.tolist() == fresh_unique.tolist()
        assert counts.tolist() == fresh_counts.tolist()
        assert counts.sum() == dataset.n


class TestDrillDown:
    HIERARCHY = AttributeHierarchy.of("state", [0, 0, 1, 1], ["midwest", "west"])

    def test_coarse_pattern_expands_to_members(self):
        roll = rollup(make_dataset(), [self.HIERARCHY])
        fine = drill_down(Pattern.from_string("01"), roll)
        assert set(map(str, fine)) == {"01", "11"}

    def test_x_passes_through(self):
        roll = rollup(make_dataset(), [self.HIERARCHY])
        fine = drill_down(Pattern.from_string("X1"), roll)
        assert set(map(str, fine)) == {"X1"}

    def test_matches_are_partitioned(self):
        dataset = make_dataset()
        roll = rollup(dataset, [self.HIERARCHY])
        coarse_oracle = CoverageOracle(roll.dataset)
        fine_oracle = CoverageOracle(dataset)
        coarse_pattern = Pattern.from_string("1X")
        fine_patterns = drill_down(coarse_pattern, roll)
        assert coarse_oracle.coverage(coarse_pattern) == sum(
            fine_oracle.coverage(p) for p in fine_patterns
        )

    def test_length_checked(self):
        roll = rollup(make_dataset(), [self.HIERARCHY])
        with pytest.raises(DataError):
            drill_down(Pattern.from_string("0X1"), roll)


class TestEndToEndWorkflow:
    def test_coarse_mups_guide_fine_analysis(self):
        # Roll up, find coarse MUPs, drill into one, and confirm every fine
        # expansion is uncovered in the fine data too (union of matches).
        dataset = make_dataset()
        hierarchy = AttributeHierarchy.of("state", [0, 0, 1, 1], ["midwest", "west"])
        roll = rollup(dataset, [hierarchy])
        coarse_result = find_mups(roll.dataset, threshold=3)
        fine_oracle = CoverageOracle(dataset)
        for mup in coarse_result:
            for fine in drill_down(mup, roll):
                # Fine coverage can only be smaller than the coarse region's.
                assert fine_oracle.coverage(fine) < 3 or fine.level == 0
