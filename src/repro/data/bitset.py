"""Counting kernels over packed ``uint64`` bit words.

Coverage queries (Appendix A) and GREEDY's target search (§IV-B) reduce
to bitwise AND and population count over membership rows kept as plain
``uint64`` word arrays: 64 bits per word, little-endian within a word,
padding bits zero.  This module holds the counting kernels that the
packed engine and GREEDY's target index share:
a per-word popcount, and the weighted count of one word array or of each
row of a word matrix.
"""

from __future__ import annotations

import numpy as np

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-word population count of a ``uint64`` array (any shape)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on old numpy
    #: bits-set lookup table for one uint16; four table reads cover a word.
    _POPCOUNT16 = np.array(
        [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
    )

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-word population count of a ``uint64`` array (any shape)."""
        halves = _POPCOUNT16[words.view(np.uint16)]
        return halves.reshape(words.shape + (4,)).sum(axis=-1).astype(np.uint8)


def weighted_count(words: np.ndarray, counts) -> int:
    """Weighted population count of one flat ``uint64`` word array.

    ``counts`` is the padded per-bit multiplicity vector, or ``None`` when
    every multiplicity is 1 (pure popcount).  The packed engine's
    single-mask counting kernel.
    """
    if words.size == 0:
        return 0
    if counts is None:
        return int(popcount_words(words).sum())
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), bitorder="little"
    )
    return int(bits @ counts)


def weighted_count_rows(matrix: np.ndarray, counts) -> np.ndarray:
    """Weighted count of each row of a ``(k, W)`` ``uint64`` word matrix."""
    # Window slices are usually not C-contiguous, and the itemsize-changing
    # views below require contiguity.
    matrix = np.ascontiguousarray(matrix)
    if counts is None:
        return popcount_words(matrix).sum(axis=1, dtype=np.int64)
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    bits = np.unpackbits(matrix.view(np.uint8), axis=1, bitorder="little")
    return bits @ counts
