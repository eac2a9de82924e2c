"""Unit tests for continuous-attribute bucketization (§II).

The regression classes pin the numeric-attribute bugfixes: non-finite
rejection (NaN used to sort into the top bucket silently), strictly
ascending thresholds, single-bucket constant columns, the closed
last-bucket label, and integer bucket counts.
"""

import numpy as np
import pytest

from repro.data.bucketize import (
    bucketize_equal_width,
    bucketize_quantiles,
    bucketize_thresholds,
    equal_width_labels,
)
from repro.exceptions import DataError


class TestThresholds:
    def test_compas_age_buckets(self):
        # The paper's COMPAS encoding: <20, 20-39, 40-59, >=60.
        ages = [15, 20, 39, 40, 59, 60, 85]
        codes, labels = bucketize_thresholds(ages, [20, 40, 60])
        assert codes.tolist() == [0, 1, 1, 2, 2, 3, 3]
        assert len(labels) == 4

    def test_custom_labels(self):
        codes, labels = bucketize_thresholds([1, 5], [3], labels=["low", "high"])
        assert labels == ["low", "high"]
        assert codes.tolist() == [0, 1]

    def test_label_count_checked(self):
        with pytest.raises(DataError):
            bucketize_thresholds([1], [3], labels=["only-one"])

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(DataError):
            bucketize_thresholds([1], [5, 3])

    def test_duplicate_thresholds_rejected(self):
        # A non-strict check used to let [20, 20, 40] through, creating a
        # zero-width bucket that no value could land in.
        with pytest.raises(DataError, match="strictly ascending"):
            bucketize_thresholds([1, 25], [20, 20, 40])

    def test_non_finite_thresholds_rejected(self):
        with pytest.raises(DataError, match="finite"):
            bucketize_thresholds([1.0], [float("nan")])

    def test_empty_thresholds_rejected(self):
        with pytest.raises(DataError):
            bucketize_thresholds([1], [])

    def test_default_labels_readable(self):
        _codes, labels = bucketize_thresholds([1, 25, 45], [20, 40])
        assert labels[0].startswith("<")
        assert labels[-1].startswith(">=")


class TestEqualWidth:
    def test_even_split(self):
        codes, labels = bucketize_equal_width([0.0, 2.5, 5.0, 7.5, 10.0], 4)
        assert codes.tolist() == [0, 1, 2, 3, 3]
        assert len(labels) == 4

    def test_constant_column_single_bucket(self):
        # A constant column used to return one real label padded with
        # "(empty)" entries, so a Schema built from it claimed cardinality
        # `buckets` and inflated the pattern lattice with empty values.
        codes, labels = bucketize_equal_width([3.0, 3.0], 3)
        assert codes.tolist() == [0, 0]
        assert labels == ["[3,3]"]

    def test_last_bucket_label_closed(self):
        # The max value is included in the last bucket, so its label must
        # render closed: [7.5,10], not [7.5,10).
        _codes, labels = bucketize_equal_width([0.0, 2.5, 5.0, 7.5, 10.0], 4)
        assert labels[-1] == "[7.5,10]"
        assert all(label.endswith(")") for label in labels[:-1])

    def test_requires_two_buckets(self):
        with pytest.raises(DataError):
            bucketize_equal_width([1.0], 1)

    def test_empty_column_rejected(self):
        with pytest.raises(DataError):
            bucketize_equal_width([], 2)

    @pytest.mark.parametrize("buckets", [2, 3, 7, 24])
    def test_labels_from_the_range_are_the_bucketizers(self, buckets):
        values = np.random.default_rng(buckets).normal(-40.0, 25.0, size=500)
        low, high = float(values.min()), float(values.max())
        _, labels = bucketize_equal_width(values, buckets)
        assert equal_width_labels(low, high, buckets) == labels
        assert equal_width_labels(2.5, 2.5, buckets) == ["[2.5,2.5]"]

    @pytest.mark.parametrize("buckets", [1, 2.0, True])
    def test_labels_check_the_count(self, buckets):
        with pytest.raises(DataError, match="bucket count"):
            equal_width_labels(0.0, 1.0, buckets)


class TestQuantiles:
    def test_equal_population(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        codes, labels = bucketize_quantiles(values, 4)
        counts = np.bincount(codes)
        assert len(counts) == 4
        assert counts.min() > 180  # roughly balanced

    def test_heavy_ties_collapse(self):
        codes, labels = bucketize_quantiles([1.0] * 10 + [2.0], 4)
        assert len(set(codes.tolist())) <= len(labels)

    def test_all_identical(self):
        codes, labels = bucketize_quantiles([5.0] * 4, 3)
        assert codes.tolist() == [0, 0, 0, 0]

    def test_last_bucket_label_closed(self):
        _codes, labels = bucketize_quantiles([0.0, 1.0, 2.0, 3.0], 2)
        assert labels[-1].endswith("]")
        assert all(label.endswith(")") for label in labels[:-1])

    def test_requires_two_buckets(self):
        with pytest.raises(DataError):
            bucketize_quantiles([1.0, 2.0], 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            bucketize_quantiles([], 2)


class TestNonFiniteRejection:
    """NaN sorts after every float, so searchsorted used to drop NaN rows
    silently into the top bucket in all three bucketizers."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_thresholds_rejects(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            bucketize_thresholds([1.0, bad, 3.0], [2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_equal_width_rejects(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            bucketize_equal_width([1.0, bad, 3.0], 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_quantiles_rejects(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            bucketize_quantiles([1.0, bad, 3.0], 2)

    def test_error_names_the_offending_row(self):
        with pytest.raises(DataError, match="row 1"):
            bucketize_equal_width([1.0, float("nan"), 3.0], 2)


class TestBucketCounts:
    """A bucket count is a non-boolean integer >= 2, numpy integers
    included.  A fraction such as 4.7 (or 4.0) used to raise a plain
    ``TypeError`` from deep inside numpy."""

    @pytest.mark.parametrize("bucketize", [bucketize_equal_width, bucketize_quantiles])
    @pytest.mark.parametrize(
        "buckets", [4.7, 4.0, True, "4", None, 1, 0, -3, np.float64(4.0)], ids=repr
    )
    def test_bad_counts_raise_data_error(self, bucketize, buckets):
        with pytest.raises(DataError, match="bucket count must be"):
            bucketize([0.0, 1.0, 2.0, 3.0, 4.0], buckets)

    @pytest.mark.parametrize("bucketize", [bucketize_equal_width, bucketize_quantiles])
    @pytest.mark.parametrize("buckets", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_numpy_integers_accepted(self, bucketize, buckets):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        codes, labels = bucketize(values, buckets)
        expected_codes, expected_labels = bucketize(values, 4)
        assert codes.tolist() == expected_codes.tolist()
        assert labels == expected_labels
