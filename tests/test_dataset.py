"""Unit tests for the Schema / Dataset substrate (§II)."""

import csv
import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import repro.data.dataset as dataset_module
from repro.data.dataset import Dataset, Schema
from repro.exceptions import DataError, SchemaError

FIXTURES = Path(__file__).parent / "fixtures"


class TestSchema:
    def test_basic_construction(self):
        schema = Schema.of(["a", "b"], [2, 3])
        assert schema.d == 2
        assert schema.cardinalities == (2, 3)

    def test_binary_helper(self):
        schema = Schema.binary(4)
        assert schema.names == ("A1", "A2", "A3", "A4")
        assert schema.cardinalities == (2, 2, 2, 2)

    def test_name_cardinality_mismatch(self):
        with pytest.raises(SchemaError):
            Schema.of(["a"], [2, 2])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(["a", "a"], [2, 2])

    def test_zero_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(["a"], [0])

    def test_value_labels_validated(self):
        with pytest.raises(SchemaError):
            Schema.of(["a"], [2], [["only-one"]])
        with pytest.raises(SchemaError):
            Schema.of(["a"], [2], [["x", "y"], ["z", "w"]])

    def test_value_label_lookup(self):
        schema = Schema.of(["a"], [2], [["no", "yes"]])
        assert schema.value_label(0, 1) == "yes"

    def test_value_label_defaults_to_code(self):
        schema = Schema.binary(1)
        assert schema.value_label(0, 1) == "1"

    def test_index_of(self):
        schema = Schema.of(["a", "b"], [2, 2])
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("zzz")

    def test_combination_and_pattern_counts(self):
        schema = Schema.of(["a", "b"], [2, 3])
        assert schema.combination_count() == 6
        assert schema.combination_count([1]) == 3
        assert schema.pattern_count() == 12

    def test_project(self):
        schema = Schema.of(["a", "b", "c"], [2, 3, 4], [["n", "y"], list("pqr"), list("wxyz")])
        projected = schema.project([2, 0])
        assert projected.names == ("c", "a")
        assert projected.cardinalities == (4, 2)
        assert projected.value_labels == (("w", "x", "y", "z"), ("n", "y"))


class TestDatasetConstruction:
    def test_from_rows_infers_cardinalities(self):
        dataset = Dataset.from_rows([[0, 2], [1, 0]])
        assert dataset.cardinalities == (2, 3)
        assert dataset.n == 2

    def test_from_rows_constant_column_stays_binary(self):
        dataset = Dataset.from_rows([[0, 0], [0, 0]])
        assert dataset.cardinalities == (2, 2)

    def test_from_strings(self):
        dataset = Dataset.from_strings(["010", "001"])
        assert dataset.n == 2
        assert dataset.d == 3

    def test_out_of_range_value_rejected(self):
        schema = Schema.binary(2)
        with pytest.raises(DataError):
            Dataset(schema, np.array([[0, 2]]))

    def test_negative_value_rejected(self):
        schema = Schema.binary(2)
        with pytest.raises(DataError):
            Dataset(schema, np.array([[-1, 0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(Schema.binary(3), np.zeros((2, 2), dtype=np.int32))

    def test_empty_inference_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_rows([])

    def test_labels_length_checked(self):
        schema = Schema.binary(2)
        with pytest.raises(DataError):
            Dataset(schema, np.zeros((2, 2), dtype=np.int32), labels={"y": np.zeros(3)})

    def test_repr(self, example1_dataset):
        assert "n=5" in repr(example1_dataset)


class TestDatasetOperations:
    def test_unique_rows_counts(self, example1_dataset):
        unique, counts = example1_dataset.unique_rows()
        as_map = {tuple(r): c for r, c in zip(unique, counts)}
        assert as_map == {(0, 1, 0): 1, (0, 0, 1): 2, (0, 0, 0): 1, (0, 1, 1): 1}

    def test_unique_rows_cached(self, example1_dataset):
        first = example1_dataset.unique_rows()
        second = example1_dataset.unique_rows()
        assert first[0] is second[0]

    def test_project_by_name_and_index(self):
        dataset = Dataset.from_rows([[0, 1, 2]], names=["a", "b", "c"], cardinalities=[2, 2, 3])
        projected = dataset.project(["c", 0])
        assert projected.schema.names == ("c", "a")
        assert projected.rows.tolist() == [[2, 0]]

    def test_project_bad_index(self, example1_dataset):
        with pytest.raises(DataError):
            example1_dataset.project([7])

    def test_sample_without_replacement(self, example1_dataset):
        sample = example1_dataset.sample(3, seed=1)
        assert sample.n == 3
        with pytest.raises(DataError):
            example1_dataset.sample(10)

    def test_take_carries_labels(self):
        dataset = Dataset.from_rows(
            [[0], [1], [0]], cardinalities=[2]
        )
        dataset = Dataset(
            dataset.schema, dataset.rows, labels={"y": np.array([5, 6, 7])}
        )
        taken = dataset.take([2, 0])
        assert taken.label("y").tolist() == [7, 5]

    def test_head(self, example1_dataset):
        assert example1_dataset.head(2).n == 2
        assert example1_dataset.head(100).n == 5

    def test_append_rows(self, example1_dataset):
        grown = example1_dataset.append_rows([(1, 1, 1), (1, 0, 0)])
        assert grown.n == 7
        assert example1_dataset.n == 5  # original untouched

    def test_append_empty(self, example1_dataset):
        assert example1_dataset.append_rows([]).n == 5

    def test_append_shape_checked(self, example1_dataset):
        with pytest.raises(DataError):
            example1_dataset.append_rows([(1, 1)])

    def test_append_out_of_range_checked(self, example1_dataset):
        with pytest.raises(DataError):
            example1_dataset.append_rows([(2, 0, 0)])

    def test_mask(self, example1_dataset):
        masked = example1_dataset.mask(example1_dataset.rows[:, 2] == 1)
        assert masked.n == 3
        with pytest.raises(DataError):
            example1_dataset.mask(np.ones(3, dtype=bool))

    def test_value_counts(self, example1_dataset):
        assert example1_dataset.value_counts("A3") == [2, 3]
        assert example1_dataset.value_counts(0) == [5, 0]

    def test_label_access(self):
        dataset = Dataset(
            Schema.binary(1),
            np.zeros((2, 1), dtype=np.int32),
            labels={"y": np.array([0, 1])},
        )
        assert dataset.label_names == ("y",)
        assert dataset.label("y").tolist() == [0, 1]
        with pytest.raises(DataError):
            dataset.label("z")

    def test_describe_mentions_attributes(self, example1_dataset):
        text = example1_dataset.describe()
        assert "A1" in text and "n=5" in text

    def test_len(self, example1_dataset):
        assert len(example1_dataset) == 5


@st.composite
def rows_and_cardinalities(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    cards = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d))
    n = draw(st.integers(min_value=0, max_value=40))
    rows = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)]
    return np.asarray(rows, dtype=np.int32).reshape(n, d), cards


def two_d_unique(dataset):
    """The reference aggregation: a 2-D ``np.unique`` over the raw rows."""
    if not dataset.n:
        return np.zeros((0, dataset.d), np.int32), np.zeros(0, np.int64)
    return np.unique(dataset.rows, axis=0, return_counts=True)


def assert_same_aggregation(dataset):
    unique, counts = dataset.unique_rows()
    expected_unique, expected_counts = two_d_unique(dataset)
    assert unique.dtype == np.int32 and counts.dtype == np.int64
    assert np.array_equal(unique, expected_unique)
    assert np.array_equal(counts, expected_counts)


class TestUniqueRows:
    """Rows are keyed by their combination index and grouped by one
    ``argsort`` of the keys: the rows, counts and their lexicographic order
    must be the 2-D ``np.unique``'s."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5_000])
    def test_matches_the_keyed_unique(self, n):
        """Bit-identical to a 1-D ``np.unique`` of the keys that returns
        first occurrences and counts, on duplicate-heavy rows: 5,000 rows,
        skewed, over 24 combinations."""
        cards = [3, 1, 4, 2]
        rng = np.random.default_rng(n)
        rows = np.column_stack(
            [rng.integers(0, c, size=n) ** 2 % c for c in cards]
        ).astype(np.int32)
        dataset = Dataset(Schema.of([f"A{i}" for i in range(4)], cards), rows)
        unique, counts = dataset.unique_rows()
        _, first, expected = np.unique(
            dataset_module.combination_index(rows, cards),
            return_index=True,
            return_counts=True,
        )
        assert unique.dtype == rows.dtype and counts.dtype == np.int64
        assert np.array_equal(unique, rows[first])
        assert np.array_equal(counts, expected)
        assert counts.sum() == n

    @given(rows_and_cardinalities())
    @example((np.zeros((0, 3), np.int32), [2, 3, 1]))  # empty
    @example((np.array([[1, 0, 2]], np.int32), [2, 1, 3]))  # one row
    @example((np.zeros((6, 2), np.int32), [1, 1]))  # cardinality 1, duplicates
    @example((np.array([[1, 2], [0, 2], [1, 2], [1, 0]], np.int32), [2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_2d_unique(self, case):
        rows, cards = case
        dataset = Dataset(Schema.of([f"A{i}" for i in range(len(cards))], cards), rows)
        assert_same_aggregation(dataset)

    def test_grid_just_under_int64(self):
        """Three attributes of 2**21 - 1 values: combination indices come
        within 2**44 of 2**63 and must not overflow."""
        top = (1 << 21) - 2
        rows = [[top, top, top], [top, 0, top], [0, top, 0], [top, top, top]]
        dataset = Dataset.from_rows(rows, cardinalities=[top + 1] * 3)
        assert dataset.schema.combination_count() < 2**63
        assert_same_aggregation(dataset)
        assert dataset.unique_rows()[1].tolist() == [1, 1, 2]

    @pytest.mark.parametrize("d", [62, 63, 64])
    def test_the_2d_fallback_past_int64(self, d, monkeypatch):
        """2**63 binary combinations or more cannot be keyed in int64."""
        keyed = []
        original = dataset_module.combination_index

        def spy(rows, cardinalities):
            keyed.append(len(rows))
            return original(rows, cardinalities)

        monkeypatch.setattr(dataset_module, "combination_index", spy)
        rng = np.random.default_rng(d)
        rows = rng.integers(0, 2, size=(300, d))
        rows[150:] = rows[:150]  # every row at least twice
        dataset = Dataset(Schema.binary(d), rows)
        assert_same_aggregation(dataset)
        assert dataset.unique_rows()[1].min() >= 2
        assert keyed == ([300] if d < 63 else [])

    @pytest.mark.parametrize(
        "name,fingerprint",
        [
            (
                "example1",
                "e67c40aa63c7e057c7c049580e5a3cddbd0f46b7fcff6b347ae345f1c940d760",
            ),
            (
                "skewed_small",
                "556b78f55472d58a7d2b52058ce22a8458074e45cd48160497a30ab082498811",
            ),
            (
                "sparse_wide",
                "b462d6377385f3cff364471a3ed6680627a73e0ce60e3c63d59f1a0599d774ab",
            ),
        ],
    )
    def test_content_fingerprints_are_unchanged(self, name, fingerprint):
        """Recorded with the 2-D ``np.unique`` aggregation: serve's
        registry keys and any stored fingerprint must stay valid."""
        entry = json.loads((FIXTURES / "expected_mups.json").read_text())[name]
        with open(FIXTURES / f"{name}.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = [[int(cell) for cell in row] for row in reader if row]
        dataset = Dataset.from_rows(
            rows, schema=Schema.of(header, entry["cardinalities"])
        )
        assert dataset.content_fingerprint() == fingerprint
