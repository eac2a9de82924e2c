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

A **hot-mask LRU cache** sits over ``match_mask``: repeated point queries
(the serving layer's, incremental re-runs) hit the cache instead of
re-ANDing the index.  Masks handed out are private copies, so callers may
mutate them freely; ``cache_info`` exposes hit/miss counters.

Wherever an ``engine=`` argument is accepted, :func:`check_engine` is the
one check: ``None``, ``"auto"`` and ``"packed"`` all name this engine, and
a prebuilt :class:`CoverageEngine` is used as given when it indexes the
very dataset object asked about.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pattern import Pattern
from repro.data.bitset import weighted_count, weighted_count_rows
from repro.data.dataset import Dataset
from repro.exceptions import EngineError, PatternError

#: A mask: ``uint64`` words over the unique value combinations.
Mask = np.ndarray

#: Default capacity of the hot-mask LRU cache (0 disables it).
DEFAULT_MASK_CACHE = 1024

#: Byte budget for cached masks: the entry cap alone would let the
#: cache dwarf the index it fronts on wide datasets, so eviction also
#: keeps total cached mask bytes under this ceiling.
DEFAULT_MASK_CACHE_BYTES = 32 << 20

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
        mask_cache_size: capacity of the hot-mask cache, a non-boolean
            integer ``>= 0`` (``0`` disables caching); anything else
            raises :class:`EngineError`.
    """

    #: The backend name reported by the serving layer and the tracer.
    name = "packed"

    def __init__(
        self,
        dataset: Dataset,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
    ) -> None:
        if (
            isinstance(mask_cache_size, bool)
            or not isinstance(mask_cache_size, Integral)
            or mask_cache_size < 0
        ):
            raise EngineError(
                f"mask_cache_size must be an integer >= 0, got {mask_cache_size!r}"
            )
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
        self._mask_cache: "OrderedDict[Tuple[int, ...], Mask]" = OrderedDict()
        self._mask_cache_size = int(mask_cache_size)
        self._mask_cache_nbytes = 0
        # Serializes every cache mutation: the serving layer answers
        # concurrent requests on one warm engine, and unsynchronized
        # insert/evict corrupts the byte accounting (and can evict the
        # entry just handed out mid-copy).  match_mask keeps a lock-free
        # fast path when caching is disabled.
        self._mask_cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

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

    # ------------------------------------------------------------------
    # hot-mask LRU cache
    # ------------------------------------------------------------------
    @property
    def mask_cache_size(self) -> int:
        """Capacity of the hot-mask cache (0 = caching disabled)."""
        return self._mask_cache_size

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters and occupancy of the hot-mask cache.

        Counter values are ints; ``hit_rate`` is a float in ``[0, 1]``.
        """
        with self._mask_cache_lock:
            total = self.cache_hits + self.cache_misses
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "entries": len(self._mask_cache),
                "nbytes": self._mask_cache_nbytes,
                "max_size": self._mask_cache_size,
                "hit_rate": (self.cache_hits / total) if total else 0.0,
            }

    def clear_mask_cache(self) -> None:
        """Drop every cached mask and reset the hit/miss counters."""
        with self._mask_cache_lock:
            self._mask_cache.clear()
            self._mask_cache_nbytes = 0
            self.cache_hits = 0
            self.cache_misses = 0

    @staticmethod
    def _mask_nbytes(mask: Mask) -> int:
        """Heap size of one cached mask."""
        return int(mask.nbytes)

    # ------------------------------------------------------------------
    # pattern-level queries
    # ------------------------------------------------------------------
    def _compute_match_mask(self, pattern: Pattern) -> Mask:
        # AND in place over one fresh buffer, never over an index row.
        mask = self.full_mask()
        for index in pattern.deterministic_indices():
            np.bitwise_and(mask, self._words[index][pattern[index]], out=mask)
        return mask

    def match_mask(self, pattern: Pattern) -> Mask:
        """Mask over unique combinations matching ``pattern`` (cached).

        The cache is keyed by the canonical pattern values; the engine keeps
        its own copy of every cached mask and hands out fresh copies, so
        callers may mutate the returned mask.
        """
        self._check_pattern(pattern)
        if not self._mask_cache_size:
            # Lock-free fast path: with caching disabled there is no shared
            # mutable state to guard.
            return self._compute_match_mask(pattern)
        key = pattern.values
        with self._mask_cache_lock:
            cached = self._mask_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._mask_cache.move_to_end(key)
                # Copy while holding the lock: a concurrent miss could
                # otherwise evict the entry just handed out.
                return cached.copy()
            self.cache_misses += 1
        # The index scan runs outside the lock so concurrent misses compute
        # in parallel; losing that race just means inserting a value the
        # winner already cached.
        mask = self._compute_match_mask(pattern)
        with self._mask_cache_lock:
            if key not in self._mask_cache:
                self._mask_cache[key] = mask.copy()
                self._mask_cache_nbytes += self._mask_nbytes(mask)
            # Evict by entry count and by byte budget (always keeping the
            # newest entry, so one huge mask degrades to a 1-entry cache
            # instead of thrashing).
            while len(self._mask_cache) > 1 and (
                len(self._mask_cache) > self._mask_cache_size
                or self._mask_cache_nbytes > DEFAULT_MASK_CACHE_BYTES
            ):
                _, evicted = self._mask_cache.popitem(last=False)
                self._mask_cache_nbytes -= self._mask_nbytes(evicted)
        return mask

    def coverage(self, pattern: Pattern) -> int:
        """Definition 2: number of tuples matching ``pattern``."""
        return self.count(self.match_mask(pattern))

    def coverage_many(
        self,
        patterns: Sequence[Pattern],
        memo: Optional[Dict[Tuple[int, ...], int]] = None,
    ) -> np.ndarray:
        """Coverage of many patterns, counted in one batched pass.

        Args:
            patterns: the frontier to count.
            memo: optional count-reuse table mapping ``pattern.values`` to
                a previously computed coverage count.  Patterns present in
                it skip the index scan entirely and fresh counts are added
                back, so callers that evaluate overlapping frontiers (the
                hierarchy remedies' drill-downs) pay for each distinct
                pattern once.  Coverage counts are a pure function of the
                dataset, never of τ, which is what makes the table safe to
                share across calls and (for one dataset) across engines.
        """
        if not patterns:
            return np.zeros(0, dtype=np.int64)
        if memo is None:
            return self.count_many([self.match_mask(p) for p in patterns])
        out = np.empty(len(patterns), dtype=np.int64)
        missing: List[Pattern] = []
        positions: List[int] = []
        for index, pattern in enumerate(patterns):
            cached = memo.get(pattern.values)
            if cached is None:
                missing.append(pattern)
                positions.append(index)
            else:
                out[index] = cached
        if missing:
            counts = self.count_many(
                [self.match_mask(p) for p in missing]
            )
            for position, pattern, count in zip(positions, missing, counts):
                out[position] = count
                memo[pattern.values] = int(count)
        return out


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
