"""The coverage engine: Appendix A's index on packed ``uint64`` words.

Appendix A reduces every coverage query to bitwise AND / population count
over per-attribute-value membership vectors.  A :class:`CoverageEngine`
owns those vectors for one dataset: one row of ``uint64`` words per
attribute value over the dataset's *unique* value combinations (duplicate
tuples are aggregated away), little-endian within a word, padding bits
zero.  A mask is such a word array.  An AND moves one word per 64
combinations and coverage is a word-level popcount, weighted by the
multiplicity vector when the dataset has duplicate rows.  It answers
three families of queries:

* **point** — ``match_mask`` / ``coverage`` for a single pattern;
* **incremental** — ``restrict`` one step down the pattern graph, reusing
  a parent's match mask;
* **batched** — ``count_many`` / ``coverage_many`` / ``restrict_children``
  answer a whole frontier in one vectorized pass over the stacked
  ``(cardinality, words)`` matrices.

The engine caches nothing: every ``match_mask`` ANDs into a fresh buffer,
so callers may mutate the masks they get, and threads may share one
engine.

Wherever an ``engine=`` argument is accepted, :func:`check_engine` is the
one check: ``None``, ``"auto"`` and ``"packed"`` all name this engine, and
a prebuilt :class:`CoverageEngine` is used as given when it indexes the
very dataset object asked about.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.pattern import Pattern
from repro.data.bitset import weighted_count, weighted_count_rows
from repro.data.dataset import Dataset
from repro.exceptions import EngineError, PatternError

#: A mask: ``uint64`` words over the unique value combinations.
Mask = np.ndarray

_WORD_BITS = 64


def full_words(length: int) -> np.ndarray:
    """``uint64`` words with the first ``length`` bits set, tail bits clear."""
    words = np.full(
        -(-length // _WORD_BITS), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64
    )
    if length % _WORD_BITS:
        words[-1] = np.uint64((1 << (length % _WORD_BITS)) - 1)
    return words


class CoverageEngine:
    """Coverage queries over one dataset's packed membership vectors.

    Args:
        dataset: the dataset to index.
    """

    #: The backend name reported by the serving layer and the tracer.
    name = "packed"

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        unique, counts = dataset.unique_rows()
        self._unique = unique
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
        # With no duplicate rows every weight is 1 and coverage is a pure
        # popcount — the fast path production data with unique keys hits.
        # Otherwise the multiplicities are padded to the word boundary;
        # padding bits of any mask are zero, so a plain dot gives the
        # weighted count.
        self._weights = None
        if u and counts.max() > 1:
            self._weights = np.zeros(word_count * _WORD_BITS, dtype=np.int64)
            self._weights[:u] = counts

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def unique_count(self) -> int:
        """Number of distinct value combinations present in the data."""
        return len(self._unique)

    @property
    def unique_rows(self) -> np.ndarray:
        """The distinct value combinations the masks range over."""
        return self._unique

    @property
    def index_nbytes(self) -> int:
        """Bytes held by the inverted index (for memory accounting)."""
        return sum(words.nbytes for words in self._words)

    def word_matrix(self, attribute: int) -> np.ndarray:
        """The stacked ``(cardinality, words)`` index of one attribute
        (do not mutate)."""
        return self._words[attribute]

    def _check_pattern(self, pattern: Pattern) -> None:
        if len(pattern) != self._dataset.d:
            raise PatternError(
                f"pattern of length {len(pattern)} against d={self._dataset.d}"
            )
        for index in pattern.deterministic_indices():
            value = pattern[index]
            if not 0 <= value < self._dataset.cardinalities[index]:
                raise PatternError(
                    f"pattern {pattern} has out-of-range value {value} "
                    f"at attribute {index}"
                )

    # ------------------------------------------------------------------
    # mask kernel
    # ------------------------------------------------------------------
    def full_mask(self) -> Mask:
        """Mask matching every unique combination (the root pattern)."""
        return self._full_words.copy()

    def value_mask(self, attribute: int, value: int) -> Mask:
        """Inverted-index vector for ``attribute == value`` (do not mutate)."""
        return self._words[attribute][value]

    def restrict(self, mask: Mask, attribute: int, value: int) -> Mask:
        """``mask AND (attribute == value)`` — one child step down the graph."""
        return np.bitwise_and(mask, self._words[attribute][value])

    def restrict_children(self, mask: Mask, attribute: int) -> List[Mask]:
        """All of ``mask AND (attribute == v)``, in value order, by one
        broadcast AND of the mask against every value row."""
        return list(np.bitwise_and(mask, self._words[attribute]))

    def count(self, mask: Mask) -> int:
        """Total multiplicity of the combinations selected by ``mask``."""
        return weighted_count(mask, self._weights)

    def count_many(self, masks: Sequence[Mask]) -> np.ndarray:
        """Coverage of a whole frontier of masks in one vectorized pass."""
        if not len(masks):
            return np.zeros(0, dtype=np.int64)
        return weighted_count_rows(np.stack(masks), self._weights)

    def mask_to_bool(self, mask: Mask) -> np.ndarray:
        """The mask as a boolean array over the unique combinations."""
        bits = np.unpackbits(
            np.ascontiguousarray(mask).view(np.uint8), bitorder="little"
        )
        return bits[: self.unique_count].astype(bool)

    @staticmethod
    def _mask_nbytes(mask: Mask) -> int:
        """Bytes one mask spans."""
        return int(mask.nbytes)

    # ------------------------------------------------------------------
    # pattern-level queries
    # ------------------------------------------------------------------
    def match_mask(self, pattern: Pattern) -> Mask:
        """Mask over unique combinations matching ``pattern``, in a fresh
        buffer the caller owns."""
        self._check_pattern(pattern)
        # AND in place over one fresh buffer, never over an index row.
        mask = self.full_mask()
        for index in pattern.deterministic_indices():
            np.bitwise_and(mask, self._words[index][pattern[index]], out=mask)
        return mask

    def coverage(self, pattern: Pattern) -> int:
        """Definition 2: number of tuples matching ``pattern``."""
        return self.count(self.match_mask(pattern))

    def coverage_many(self, patterns: Sequence[Pattern]) -> np.ndarray:
        """Coverage of many patterns, counted in one batched pass."""
        return self.count_many([self.match_mask(p) for p in patterns])


#: The backend registry the tracer instruments: one engine.
ENGINES = {CoverageEngine.name: CoverageEngine}

#: What an ``engine=`` argument accepts: ``None``, ``"auto"``,
#: ``"packed"``, or a prebuilt :class:`CoverageEngine`.
EngineSpec = Union[None, str, CoverageEngine]

#: The names that build the engine.
_ENGINE_NAMES = ("auto", CoverageEngine.name)


def check_engine(
    spec: EngineSpec, dataset: Optional[Dataset] = None
) -> Optional[CoverageEngine]:
    """The one check on an ``engine=`` argument.

    Returns the engine when ``spec`` is a :class:`CoverageEngine`, and
    ``None`` (build one) when it is ``None``, ``"auto"`` or ``"packed"``.
    Given ``dataset``, an engine must index that very object: an equal
    copy is another index lifetime.  Anything else raises
    :class:`EngineError`.
    """
    if isinstance(spec, CoverageEngine):
        if dataset is not None and spec.dataset is not dataset:
            raise EngineError(
                f"engine was built for a different dataset "
                f"({spec.dataset!r} vs {dataset!r}); pass 'packed' to "
                f"build one for this dataset"
            )
        return spec
    if spec is None or (isinstance(spec, str) and spec in _ENGINE_NAMES):
        return None
    raise EngineError(
        f"unknown coverage engine {spec!r}; accepted: None, 'auto', "
        f"'packed' or a CoverageEngine built over the same dataset"
    )


def engine_name(spec: EngineSpec) -> str:
    """The backend name of a valid engine spec (always ``"packed"``)."""
    check_engine(spec)
    return CoverageEngine.name
