"""Compressed sparse-domain coverage engine (roaring-style containers).

High-cardinality value domains make the packed index overwhelmingly zero:
each membership vector for ``attribute == value`` has ``~unique/c_i`` set
bits out of ``unique``, so at a mean cardinality of 64 under 2% of the
packed words' bits are ones — exactly the regime compressed bitmaps
(Chambi et al., *Better bitmap performance with Roaring bitmaps*) were
built for.  This backend stores every membership vector, and every mask,
as a :class:`CompressedBitmap`: the unique-combination space is cut into
chunks of 64Ki combinations, and each non-empty chunk holds one of three
containers, chosen per chunk by density:

* **sorted-array** — the set bit positions as a sorted ``uint16`` array
  (2 bytes per present combination; the sparse workhorse);
* **bitmap** — packed ``uint64`` words (the dense fallback, identical to
  one chunk of the packed engine's layout);
* **run** — ``[start, stop)`` interval pairs (all-ones chunks — e.g. the
  root mask, or a cardinality-1 attribute — are a single run).

The intersect and count kernels are **fused per container pair**: two
sorted arrays intersect by ``intersect1d``, an array tests its members
against a bitmap's words or a run's intervals, runs intersect by interval
arithmetic — dense words are never materialized for sparse chunks.
Weighted counts use a precomputed multiplicity prefix sum, so a run
container's coverage costs O(runs) regardless of its cardinality.

Container thresholds are configurable (``array_cutoff`` — the largest
cardinality kept as a sorted array; ``run_cutoff`` — the largest interval
count kept as runs) and validated through
:class:`~repro.core.engine.config.EngineConfig`; the workload-aware
planner selects this backend automatically when the projected index
density falls under its sparsity cutoff and the cost model favours the
compressed representation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine.base import (
    DEFAULT_MASK_CACHE,
    CoverageEngine,
    register_engine,
)
from repro.data.bitset import popcount_words
from repro.data.dataset import Dataset

#: Combinations per chunk (the container addressing unit; 64Ki bits).
CHUNK_BITS = 1 << 16

#: ``position >> CHUNK_SHIFT`` is the chunk id (derived, never hard-coded).
CHUNK_SHIFT = CHUNK_BITS.bit_length() - 1

#: Largest container cardinality stored as a sorted ``uint16`` array.
DEFAULT_ARRAY_CUTOFF = 4096

#: Largest interval count stored as a run container.
DEFAULT_RUN_CUTOFF = 1024

_WORD_BITS = 64

#: Container kind tags (a container is a ``(kind, data)`` pair).
ARRAY = "array"
BITMAP = "bitmap"
RUN = "run"

#: One chunk's payload: the kind tag plus its ndarray representation.
Container = Tuple[str, np.ndarray]


def _chunk_words(chunk_len: int) -> int:
    return (chunk_len + _WORD_BITS - 1) // _WORD_BITS


def _runs_from_sorted(indices: np.ndarray) -> np.ndarray:
    """Maximal ``[start, stop)`` intervals of a sorted index array."""
    breaks = np.flatnonzero(np.diff(indices) != 1)
    starts = indices[np.concatenate(([0], breaks + 1))]
    stops = indices[np.concatenate((breaks, [len(indices) - 1]))] + 1
    return np.stack([starts, stops], axis=1).astype(np.int32)

def _words_from_sorted(indices: np.ndarray, chunk_len: int) -> np.ndarray:
    flags = np.zeros(_chunk_words(chunk_len) * _WORD_BITS, dtype=bool)
    flags[indices] = True
    return np.packbits(flags, bitorder="little").view(np.uint64)


def _words_from_runs(runs: np.ndarray, chunk_len: int) -> np.ndarray:
    flags = np.zeros(_chunk_words(chunk_len) * _WORD_BITS, dtype=bool)
    for start, stop in runs:
        flags[start:stop] = True
    return np.packbits(flags, bitorder="little").view(np.uint64)


def _sorted_from_words(words: np.ndarray, chunk_len: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:chunk_len]
    return np.flatnonzero(bits).astype(np.uint16)


def _sorted_from_runs(runs: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.arange(start, stop, dtype=np.uint16) for start, stop in runs]
    )


def _is_full_run(runs: np.ndarray, chunk_len: int) -> bool:
    """True for the single-run container covering the whole chunk."""
    return len(runs) == 1 and runs[0, 0] == 0 and runs[0, 1] == chunk_len


def array_select_bitmap(array: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The members of sorted ``array`` whose bit is set in ``words``."""
    idx = array.astype(np.int64)
    bits = (words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
    return array[bits.astype(bool)]


def array_select_runs(array: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """The members of sorted ``array`` inside the ``[start, stop)`` runs."""
    idx = array.astype(np.int64)
    position = np.searchsorted(runs[:, 0], idx, side="right") - 1
    inside = (position >= 0) & (idx < runs[np.maximum(position, 0), 1])
    return array[inside]


def intersect_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interval intersection of two sorted run lists → ``(k, 2)`` int32."""
    out: List[tuple] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i, 0], b[j, 0])
        stop = min(a[i, 1], b[j, 1])
        if start < stop:
            out.append((int(start), int(stop)))
        if a[i, 1] <= b[j, 1]:
            i += 1
        else:
            j += 1
    return np.array(out, dtype=np.int32).reshape(-1, 2)


class CompressedBitmap:
    """A chunked container bitmap over the unique-combination space.

    The engine's opaque mask handle: a mapping from chunk index to
    container, absent chunks being all-zero.  Containers are immutable —
    every kernel allocates fresh ones — so copies are shallow and
    containers may be shared between masks and the index.

    Because the bit content never changes after construction, counts are
    memoized on the handle (``cached_cardinality`` / ``cached_weight``)
    and survive :meth:`copy` — the index rows compute their coverage once
    and every mask copied off them answers point queries in O(1).
    """

    __slots__ = ("length", "chunks", "cached_cardinality", "cached_weight")

    def __init__(
        self,
        length: int,
        chunks: Optional[Dict[int, Container]] = None,
        cached_cardinality: Optional[int] = None,
        cached_weight: Optional[int] = None,
    ) -> None:
        self.length = length
        self.chunks = {} if chunks is None else chunks
        self.cached_cardinality = cached_cardinality
        self.cached_weight = cached_weight

    @property
    def nbytes(self) -> int:
        """Container payload bytes (the hot-mask cache's accounting unit)."""
        return sum(data.nbytes for _, data in self.chunks.values())

    def copy(self) -> "CompressedBitmap":
        return CompressedBitmap(
            self.length,
            dict(self.chunks),
            self.cached_cardinality,
            self.cached_weight,
        )

    def cardinality(self) -> int:
        """Number of set bits across every container (memoized)."""
        if self.cached_cardinality is None:
            total = 0
            for kind, data in self.chunks.values():
                if kind == ARRAY:
                    total += len(data)
                elif kind == RUN:
                    total += int((data[:, 1] - data[:, 0]).sum())
                else:
                    total += int(popcount_words(data).sum())
            self.cached_cardinality = total
        return self.cached_cardinality

    def container_kinds(self) -> Dict[int, str]:
        """``{chunk: kind}`` map (test/introspection helper)."""
        return {chunk: kind for chunk, (kind, _) in self.chunks.items()}

    def __repr__(self) -> str:
        kinds = sorted(self.container_kinds().items())
        return f"CompressedBitmap(length={self.length}, chunks={kinds})"


@register_engine
class CompressedEngine(CoverageEngine):
    """Coverage queries over chunked compressed membership vectors.

    Args:
        dataset: the dataset to index.
        mask_cache_size: hot-mask LRU capacity (see :class:`CoverageEngine`).
        array_cutoff: largest container cardinality kept as a sorted
            ``uint16`` array (1..65536; default 4096).  Smaller values
            promote mid-density chunks to bitmap containers sooner.
        run_cutoff: largest interval count kept as a run container
            (default 1024).  Chunks whose runs exceed it fall back to the
            array or bitmap representation, whichever is smaller.
    """

    name = "compressed"

    def __init__(
        self,
        dataset: Dataset,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
        array_cutoff: Optional[int] = None,
        run_cutoff: Optional[int] = None,
    ) -> None:
        super().__init__(dataset, mask_cache_size=mask_cache_size)
        # One validator for constructor and config callers (lazy import:
        # the config module imports this one for its constants).
        from repro.core.engine.config import EngineConfig

        EngineConfig.from_options(
            "compressed",
            array_cutoff=array_cutoff,
            run_cutoff=run_cutoff,
        )
        self._array_cutoff = (
            DEFAULT_ARRAY_CUTOFF if array_cutoff is None else int(array_cutoff)
        )
        self._run_cutoff = (
            DEFAULT_RUN_CUTOFF if run_cutoff is None else int(run_cutoff)
        )
        unique = self._unique
        u = len(unique)
        self._chunk_count = (u + CHUNK_BITS - 1) // CHUNK_BITS
        self._uniform = bool(u == 0 or self._counts.max(initial=1) == 1)
        # Prefix sums make a run's weighted count O(1) per interval.
        self._cum_counts = (
            None
            if self._uniform
            else np.concatenate(
                ([0], np.cumsum(self._counts, dtype=np.int64))
            )
        )
        # The root mask's chunk map, shared by every full_mask() call
        # (containers are immutable; only the dict is copied per handout).
        self._full_chunks: Dict[int, Container] = {
            chunk: (
                RUN,
                np.array([[0, self._chunk_len(chunk)]], dtype=np.int32),
            )
            for chunk in range(self._chunk_count)
        }
        # _rows[i][v] is the compressed membership vector for attribute i
        # taking value v (the inverted index of Appendix A).  One stable
        # argsort groups the column's positions by value — O(u log u) per
        # attribute instead of one O(u) scan per value, which matters
        # exactly in the high-cardinality regime this backend targets.
        self._rows: List[List[CompressedBitmap]] = []
        for i, cardinality in enumerate(dataset.cardinalities):
            column = unique[:, i] if u else np.zeros(0, dtype=np.int32)
            order = np.argsort(column, kind="stable")
            bounds = np.searchsorted(
                column[order], np.arange(cardinality + 1)
            )
            # Stability keeps each value group's positions ascending, the
            # precondition of the sorted-container builder.
            self._rows.append(
                [
                    self._from_sorted_global(
                        order[bounds[value] : bounds[value + 1]]
                    )
                    for value in range(cardinality)
                ]
            )

    # ------------------------------------------------------------------
    # container construction
    # ------------------------------------------------------------------
    def _chunk_len(self, chunk: int) -> int:
        return min(CHUNK_BITS, self.unique_count - chunk * CHUNK_BITS)

    def _best_container(
        self, local: np.ndarray, chunk_len: int
    ) -> Container:
        """The smallest representation of one chunk's sorted set bits.

        Ties prefer runs (O(1)-per-interval kernels), then arrays.
        """
        cardinality = len(local)
        runs = _runs_from_sorted(local)
        candidates = []
        if len(runs) <= self._run_cutoff:
            candidates.append((runs.nbytes, 0, RUN, runs))
        if cardinality <= self._array_cutoff:
            candidates.append(
                (2 * cardinality, 1, ARRAY, local.astype(np.uint16))
            )
        candidates.append(
            (
                _chunk_words(chunk_len) * 8,
                2,
                BITMAP,
                _words_from_sorted(local, chunk_len),
            )
        )
        _, _, kind, data = min(candidates, key=lambda entry: entry[:2])
        return (kind, data)

    def _from_sorted_global(self, indices: np.ndarray) -> CompressedBitmap:
        """Build a compressed bitmap from sorted global bit positions."""
        u = self.unique_count
        chunks: Dict[int, Container] = {}
        if len(indices):
            chunk_ids = indices >> CHUNK_SHIFT
            splits = np.flatnonzero(np.diff(chunk_ids)) + 1
            for group in np.split(indices, splits):
                chunk = int(group[0]) >> CHUNK_SHIFT
                local = group - chunk * CHUNK_BITS
                chunks[chunk] = self._best_container(
                    local, self._chunk_len(chunk)
                )
        return CompressedBitmap(u, chunks)

    # ------------------------------------------------------------------
    # fused intersect kernels (per container pair)
    # ------------------------------------------------------------------
    def _demote_bitmap(
        self, words: np.ndarray, chunk_len: int
    ) -> Optional[Container]:
        """A bitmap AND result, demoted to a sorted array when it shrank."""
        cardinality = int(popcount_words(words).sum())
        if cardinality == 0:
            return None
        if cardinality <= self._array_cutoff and 2 * cardinality < words.nbytes:
            return (ARRAY, _sorted_from_words(words, chunk_len))
        return (BITMAP, words)

    def _normalize_runs(
        self, runs, chunk_len: int
    ) -> Optional[Container]:
        """An interval-intersection result as its best representation.

        ``runs`` is a ``(k, 2)`` array (or list of pairs) of intervals.
        """
        if len(runs) == 0:
            return None
        data = np.asarray(runs, dtype=np.int32)
        if len(data) <= self._run_cutoff:
            return (RUN, data)
        cardinality = int((data[:, 1] - data[:, 0]).sum())
        if cardinality <= self._array_cutoff:
            return (ARRAY, _sorted_from_runs(data))
        return (BITMAP, _words_from_runs(data, chunk_len))

    def _filter_array(
        self, array: np.ndarray, other: Container, chunk_len: int
    ) -> Optional[Container]:
        """``array AND other`` without leaving the sorted-array domain."""
        kind, data = other
        if kind == ARRAY:
            kept = np.intersect1d(array, data, assume_unique=True)
        elif kind == BITMAP:
            kept = array_select_bitmap(array, data)
        else:  # RUN
            kept = array_select_runs(array, data)
        if not len(kept):
            return None
        return (ARRAY, kept)

    def _intersect(
        self, a: Container, b: Container, chunk_len: int
    ) -> Optional[Container]:
        """``a AND b`` for one chunk; ``None`` when the result is empty."""
        kind_a, data_a = a
        kind_b, data_b = b
        # Full-run fast path: the root mask (and cardinality-1 attributes)
        # intersect by sharing the other container unchanged.
        if kind_a == RUN and _is_full_run(data_a, chunk_len):
            return b
        if kind_b == RUN and _is_full_run(data_b, chunk_len):
            return a
        if kind_a == ARRAY:
            return self._filter_array(data_a, b, chunk_len)
        if kind_b == ARRAY:
            return self._filter_array(data_b, a, chunk_len)
        if kind_a == BITMAP and kind_b == BITMAP:
            return self._demote_bitmap(
                np.bitwise_and(data_a, data_b), chunk_len
            )
        if kind_a == RUN and kind_b == RUN:
            return self._normalize_runs(
                intersect_runs(data_a, data_b), chunk_len
            )
        # BITMAP x RUN (either order): clip the bitmap by the intervals.
        words = data_a if kind_a == BITMAP else data_b
        runs = data_b if kind_a == BITMAP else data_a
        return self._demote_bitmap(
            np.bitwise_and(words, _words_from_runs(runs, chunk_len)),
            chunk_len,
        )

    def _and(
        self, a: CompressedBitmap, b: CompressedBitmap
    ) -> CompressedBitmap:
        chunks: Dict[int, Container] = {}
        if len(a.chunks) > len(b.chunks):
            a, b = b, a
        for chunk, container in a.chunks.items():
            other = b.chunks.get(chunk)
            if other is None:
                continue
            result = self._intersect(container, other, self._chunk_len(chunk))
            if result is not None:
                chunks[chunk] = result
        return CompressedBitmap(a.length, chunks)

    # ------------------------------------------------------------------
    # counting kernels
    # ------------------------------------------------------------------
    def _weighted_container(
        self, chunk: int, kind: str, data: np.ndarray
    ) -> int:
        """Multiplicity-weighted count of one container."""
        base = chunk * CHUNK_BITS
        if kind == ARRAY:
            return int(self._counts[base + data.astype(np.int64)].sum())
        if kind == RUN:
            cum = self._cum_counts
            if len(data) == 1:
                # Single interval (the overwhelmingly common run shape):
                # two scalar prefix-sum reads, no array arithmetic.
                return int(cum[base + data[0, 1]]) - int(cum[base + data[0, 0]])
            spans = data.astype(np.int64) + base
            return int((cum[spans[:, 1]] - cum[spans[:, 0]]).sum())
        bits = np.unpackbits(data.view(np.uint8), bitorder="little")
        chunk_len = self._chunk_len(chunk)
        return int(bits[:chunk_len] @ self._counts[base : base + chunk_len])

    # ------------------------------------------------------------------
    # mask kernel
    # ------------------------------------------------------------------
    @property
    def index_nbytes(self) -> int:
        return sum(
            row.nbytes for per_value in self._rows for row in per_value
        )

    @property
    def array_cutoff(self) -> int:
        """Largest cardinality stored as a sorted-array container."""
        return self._array_cutoff

    @property
    def run_cutoff(self) -> int:
        """Largest interval count stored as a run container."""
        return self._run_cutoff

    def full_mask(self) -> CompressedBitmap:
        u = self.unique_count
        return CompressedBitmap(
            u, dict(self._full_chunks), u, self._dataset.n
        )

    def value_mask(self, attribute: int, value: int) -> CompressedBitmap:
        return self._rows[attribute][value]

    def restrict(
        self, mask: CompressedBitmap, attribute: int, value: int
    ) -> CompressedBitmap:
        return self._and(mask, self._rows[attribute][value])

    def restrict_children(
        self, mask: CompressedBitmap, attribute: int
    ) -> List[CompressedBitmap]:
        return [self._and(mask, row) for row in self._rows[attribute]]

    def count(self, mask: CompressedBitmap) -> int:
        if self._uniform:
            return mask.cardinality()
        if mask.cached_weight is None:
            total = 0
            for chunk, (kind, data) in mask.chunks.items():
                total += self._weighted_container(chunk, kind, data)
            mask.cached_weight = total
        return mask.cached_weight

    def count_many(self, masks: Sequence[CompressedBitmap]) -> np.ndarray:
        if not len(masks):
            return np.zeros(0, dtype=np.int64)
        return np.fromiter(
            (self.count(mask) for mask in masks),
            dtype=np.int64,
            count=len(masks),
        )

    def mask_to_bool(self, mask: CompressedBitmap) -> np.ndarray:
        selected = np.zeros(self.unique_count, dtype=bool)
        for chunk, (kind, data) in mask.chunks.items():
            base = chunk * CHUNK_BITS
            if kind == ARRAY:
                selected[base + data.astype(np.int64)] = True
            elif kind == RUN:
                for start, stop in data:
                    selected[base + start : base + stop] = True
            else:
                chunk_len = self._chunk_len(chunk)
                bits = np.unpackbits(data.view(np.uint8), bitorder="little")
                selected[base : base + chunk_len] = bits[:chunk_len].astype(
                    bool
                )
        return selected

    def _compute_match_mask(self, pattern) -> CompressedBitmap:
        # Seed the chain with the first index row (full AND row == row)
        # and bail out as soon as the mask empties — sparse domains hit
        # empty intersections constantly.
        indices = pattern.deterministic_indices()
        if not indices:
            return self.full_mask()
        mask = self._rows[indices[0]][pattern[indices[0]]]
        if len(indices) == 1:
            # Containers are immutable, but the chunk map must not alias
            # the index row's — hand out a private (shallow) copy.
            return mask.copy()
        for index in indices[1:]:
            mask = self._and(mask, self._rows[index][pattern[index]])
            if not mask.chunks:
                break
        return mask

    # ------------------------------------------------------------------
    # rebuild support
    # ------------------------------------------------------------------
    def _template_options(self) -> Dict[str, object]:
        options = super()._template_options()
        options.update(
            array_cutoff=self._array_cutoff, run_cutoff=self._run_cutoff
        )
        return options
