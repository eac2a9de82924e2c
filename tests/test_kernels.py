"""The hot-path kernels against brute-force references.

Every coverage query bottoms out in a handful of numpy loops: the
weighted popcount (:mod:`repro.data.bitset`) and the chained and
sibling-family ANDs over packed word blocks
(:mod:`repro.core.engine.mmapped`).  These tests pin each one against a
brute-force reference on random inputs; the property fuzz harness
additionally locks the engines built on them together.
"""

import numpy as np

from repro.core.engine.mmapped import and_family, and_rows
from repro.data.bitset import weighted_count, weighted_count_rows


def _random_words(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


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
