"""The hot-path kernels against brute-force references.

Every coverage query bottoms out in a handful of numpy loops: the
weighted popcount (:mod:`repro.data.bitset`), the chained and
sibling-family ANDs over packed word blocks
(:mod:`repro.core.engine.mmapped`), and the per-container-pair
intersections of the compressed backend
(:mod:`repro.core.engine.compressed`).  These tests pin each one against
a brute-force reference on random inputs; the property fuzz harness
additionally locks the engines built on them together.
"""

import numpy as np

from repro.core.engine.compressed import (
    ARRAY,
    CHUNK_BITS,
    CompressedEngine,
    array_select_bitmap,
    array_select_runs,
    intersect_runs,
)
from repro.core.engine.mmapped import and_family, and_rows
from repro.data.bitset import weighted_count, weighted_count_rows
from repro.data.synthetic import random_categorical_dataset


def _random_words(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


def _brute_select_runs(array, runs):
    keep = [
        v for v in array.tolist() if any(s <= v < t for s, t in runs.tolist())
    ]
    return np.array(keep, dtype=array.dtype)


class TestKernelCorrectness:
    """Each kernel against brute-force references on random inputs."""

    def test_count(self):
        rng = np.random.default_rng(0)
        words = _random_words(rng, 37)
        counts = rng.integers(1, 9, size=words.size * 64).astype(np.int64)
        bits = np.unpackbits(
            words.view(np.uint8), bitorder="little"
        ).astype(bool)
        assert weighted_count(words, None) == int(bits.sum())
        assert weighted_count(words, counts) == int(counts[bits].sum())
        assert weighted_count(np.zeros(0, dtype=np.uint64), None) == 0

    def test_count_rows(self):
        rng = np.random.default_rng(1)
        matrix = _random_words(rng, 6 * 17).reshape(6, 17)
        counts = rng.integers(1, 9, size=17 * 64).astype(np.int64)
        expected_uniform = [weighted_count(row, None) for row in matrix]
        expected_weighted = [weighted_count(row, counts) for row in matrix]
        assert weighted_count_rows(matrix, None).tolist() == expected_uniform
        assert weighted_count_rows(matrix, counts).tolist() == expected_weighted
        empty = weighted_count_rows(np.zeros((0, 17), dtype=np.uint64), None)
        assert empty.tolist() == []

    def test_and_rows(self):
        rng = np.random.default_rng(2)
        window = _random_words(rng, 11)
        words = _random_words(rng, 5 * 11).reshape(5, 11)
        rows = [3, 0, 4]
        expected = window & words[3] & words[0] & words[4]
        got = and_rows(window, words, rows)
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)
        # No rows: the window itself, as a fresh copy.
        untouched = and_rows(window, words, [])
        assert np.array_equal(untouched, window)
        assert untouched is not window

    def test_and_family(self):
        rng = np.random.default_rng(3)
        window = _random_words(rng, 9)
        block = _random_words(rng, 4 * 9).reshape(4, 9)
        got = and_family(window, block)
        assert got.shape == block.shape
        for r in range(block.shape[0]):
            assert np.array_equal(got[r], window & block[r])

    def test_intersect_sorted(self):
        """Array x array containers intersect by sorted-set intersection."""
        rng = np.random.default_rng(4)
        engine = CompressedEngine(
            random_categorical_dataset(20, (2, 2), seed=4)
        )
        a = np.unique(rng.integers(0, 5000, size=900)).astype(np.uint16)
        b = np.unique(rng.integers(0, 5000, size=40)).astype(np.uint16)
        expected = np.array(
            sorted(set(a.tolist()) & set(b.tolist())), dtype=np.uint16
        )
        # Both argument orders.
        for left, right in ((a, b), (b, a)):
            kind, kept = engine._filter_array(left, (ARRAY, right), CHUNK_BITS)
            assert kind == ARRAY
            assert np.array_equal(kept, expected)
        empty = np.zeros(0, dtype=np.uint16)
        assert engine._filter_array(a, (ARRAY, empty), CHUNK_BITS) is None

    def test_array_select_bitmap(self):
        rng = np.random.default_rng(5)
        words = _random_words(rng, 16)
        array = np.unique(rng.integers(0, 16 * 64, size=300)).astype(np.uint16)
        bits = np.unpackbits(
            words.view(np.uint8), bitorder="little"
        ).astype(bool)
        expected = array[bits[array.astype(np.int64)]]
        assert np.array_equal(array_select_bitmap(array, words), expected)

    def test_array_select_runs(self):
        rng = np.random.default_rng(6)
        bounds = np.unique(rng.integers(0, 2000, size=14))
        runs = bounds[: (bounds.size // 2) * 2].reshape(-1, 2).astype(np.int32)
        array = np.unique(rng.integers(0, 2000, size=400)).astype(np.uint16)
        expected = _brute_select_runs(array, runs)
        assert np.array_equal(array_select_runs(array, runs), expected)

    def test_intersect_runs(self):
        def random_runs(seed_offset):
            bounds = np.unique(
                np.random.default_rng(7 + seed_offset).integers(
                    0, 500, size=20
                )
            )
            return bounds[: (bounds.size // 2) * 2].reshape(-1, 2).astype(
                np.int32
            )

        a, b = random_runs(0), random_runs(1)
        got = intersect_runs(a, b)
        covered_a = {v for s, t in a.tolist() for v in range(s, t)}
        covered_b = {v for s, t in b.tolist() for v in range(s, t)}
        covered_got = {v for s, t in got.tolist() for v in range(s, t)}
        assert covered_got == (covered_a & covered_b)
        # Output runs stay sorted, disjoint, and non-empty.
        flat = got.reshape(-1)
        assert np.all(flat[1:] >= flat[:-1])
        assert np.all(got[:, 0] < got[:, 1])
        empty = np.zeros((0, 2), dtype=np.int32)
        assert intersect_runs(a, empty).shape == (0, 2)
