"""Packed-bitset coverage engine (Appendix A on ``uint64`` words).

One row of ``uint64`` words per attribute value over the unique value
combinations; masks are plain ``uint64`` word arrays.  An AND moves one
word per 64 combinations (8× less traffic than the dense baseline) and
coverage is a word-level popcount — weighted by the multiplicity vector
when the dataset has duplicate rows, a pure ``popcount`` when it does not.

Batched queries operate on the stacked ``(cardinality, words)`` matrices
directly, so a whole sibling family or frontier level is answered by one
``bitwise_and`` broadcast plus one counting pass.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.engine.base import (
    DEFAULT_MASK_CACHE,
    CoverageEngine,
    children_passes,
    register_engine,
)
from repro.core.engine.mmapped import and_family
from repro.data.bitset import weighted_count, weighted_count_rows
from repro.data.dataset import Dataset

_WORD_BITS = 64


def full_words(length: int) -> np.ndarray:
    """``uint64`` words with the first ``length`` bits set, tail bits clear."""
    words = np.full(
        -(-length // _WORD_BITS), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64
    )
    if length % _WORD_BITS:
        words[-1] = np.uint64((1 << (length % _WORD_BITS)) - 1)
    return words


@register_engine
class PackedBitsetEngine(CoverageEngine):
    """Coverage queries over packed ``uint64`` membership vectors."""

    name = "packed"

    def __init__(
        self,
        dataset: Dataset,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
    ) -> None:
        super().__init__(dataset, mask_cache_size=mask_cache_size)
        unique = self._unique
        u = len(unique)
        self._full_words = full_words(u)
        word_count = len(self._full_words)
        # _words[i] is attribute i's (c_i, W) matrix: row v holds the bits
        # of the unique rows with value v, packed little-endian.
        self._words: List[np.ndarray] = []
        for i, cardinality in enumerate(dataset.cardinalities):
            words = np.zeros((cardinality, word_count), dtype=np.uint64)
            if u:
                column = unique[:, i]
                row_bytes = words.view(np.uint8)
                for value in range(cardinality):
                    packed = np.packbits(column == value, bitorder="little")
                    row_bytes[value, : len(packed)] = packed
            self._words.append(words)
        # Multiplicities padded to the word boundary; padding bits of any
        # mask are zero, so a plain dot gives the weighted count.
        self._counts_padded = np.zeros(word_count * _WORD_BITS, dtype=np.int64)
        self._counts_padded[:u] = self._counts
        # With no duplicate rows every weight is 1 and coverage is a pure
        # popcount — the fast path production data with unique keys hits.
        uniform = u == 0 or self._counts.max(initial=1) == 1
        self._weights = None if uniform else self._counts_padded

    # ------------------------------------------------------------------
    # packed-representation accessors (the sharded engine builds on these)
    # ------------------------------------------------------------------
    @property
    def counts_padded(self) -> np.ndarray:
        """Multiplicities padded to the word boundary (do not mutate)."""
        return self._counts_padded

    def word_matrix(self, attribute: int) -> np.ndarray:
        """The stacked ``(cardinality, words)`` index of one attribute
        (do not mutate)."""
        return self._words[attribute]

    # ------------------------------------------------------------------
    # mask kernel
    # ------------------------------------------------------------------
    @property
    def index_nbytes(self) -> int:
        return sum(words.nbytes for words in self._words)

    def full_mask(self) -> np.ndarray:
        return self._full_words.copy()

    def value_mask(self, attribute: int, value: int) -> np.ndarray:
        return self._words[attribute][value]

    def restrict(self, mask: np.ndarray, attribute: int, value: int) -> np.ndarray:
        return np.bitwise_and(mask, self._words[attribute][value])

    def restrict_children(self, mask: np.ndarray, attribute: int) -> List[np.ndarray]:
        return list(and_family(mask, self._words[attribute]))

    def restrict_children_many(
        self, masks: Sequence[np.ndarray], attribute: int
    ) -> List[np.ndarray]:
        words = self._words[attribute]
        children: List[np.ndarray] = []
        for chunk in children_passes(len(masks), words.nbytes):
            family = and_family(np.stack(masks[chunk]), words)
            children.extend(family.reshape(len(family) * len(words), -1))
        return children

    def count(self, mask: np.ndarray) -> int:
        return weighted_count(mask, self._weights)

    def count_many(self, masks: Sequence[np.ndarray]) -> np.ndarray:
        if not len(masks):
            return np.zeros(0, dtype=np.int64)
        return weighted_count_rows(np.stack(masks), self._weights)

    def mask_to_bool(self, mask: np.ndarray) -> np.ndarray:
        bits = np.unpackbits(
            np.ascontiguousarray(mask).view(np.uint8), bitorder="little"
        )
        return bits[: self.unique_count].astype(bool)

    def _compute_match_mask(self, pattern) -> np.ndarray:
        # Override the generic chain to AND in place over one buffer.
        mask = self.full_mask()
        for index in pattern.deterministic_indices():
            np.bitwise_and(mask, self._words[index][pattern[index]], out=mask)
        return mask
