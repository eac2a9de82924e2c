"""Warm-engine registry: one entry per served dataset, LRU-bounded.

The registry turns the one-shot engine stack into serving state: each
registered dataset gets a warm :class:`~repro.core.coverage.CoverageOracle`
kept alive across requests, keyed by the dataset's
``content_fingerprint()``.  Entries are evicted least-recently-used under
both an entry cap and a total index-byte budget, with per-entry byte
accounting from ``engine.index_nbytes``.

**Snapshot semantics.**  Readers never touch an entry's mutable fields:
they capture ``entry.snapshot`` once — an immutable (dataset, oracle,
fingerprint) triple — and answer the whole request from it.  A delivery
routes through :class:`~repro.core.incremental.IncrementalMupIndex`
(exception-safe rebuild: the new oracle and the MUP set, searched again,
are fully built before any state swaps) and then atomically replaces the
snapshot reference, so a
concurrent reader sees either the old index or the new one, never a
half-applied state.  A reader still holding a retired snapshot keeps
getting answers for the dataset it captured: the index is in memory and
lives as long as a snapshot refers to it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.coverage import CoverageOracle
from repro.core.incremental import IncrementalMupIndex
from repro.data.dataset import Dataset
from repro.exceptions import ServeError


class Snapshot:
    """An immutable view of one served dataset at one point in time."""

    __slots__ = ("dataset", "oracle", "fingerprint")

    def __init__(
        self, dataset: Dataset, oracle: CoverageOracle, fingerprint: str
    ) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self.fingerprint = fingerprint


class DatasetEntry:
    """One registered dataset: its current snapshot plus delivery state.

    ``key`` is the *registration-time* fingerprint — the stable handle
    clients keep across deliveries; ``snapshot.fingerprint`` tracks the
    current content.  ``lock`` serializes writers (deliveries and index
    creation); readers are lock-free via the snapshot reference.
    """

    __slots__ = ("key", "snapshot", "index", "lock", "nbytes")

    def __init__(self, key: str, snapshot: Snapshot, nbytes: int) -> None:
        self.key = key
        self.snapshot = snapshot
        self.index: Optional[IncrementalMupIndex] = None
        self.lock = threading.Lock()
        self.nbytes = nbytes


class EngineRegistry:
    """Thread-safe LRU registry of warm dataset entries."""

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self._max_entries = int(max_entries)
        self._max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, DatasetEntry]" = OrderedDict()
        # current content fingerprint -> registration key, so clients may
        # address an entry by either handle after deliveries.
        self._aliases: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._total_nbytes = 0
        self._registers = 0
        self._evictions = 0
        self._lookup_hits = 0
        self._lookup_misses = 0

    # ------------------------------------------------------------------
    # lookup / registration
    # ------------------------------------------------------------------
    def get(self, key: str) -> DatasetEntry:
        """The entry registered under ``key`` (or a current fingerprint).

        Raises:
            ServeError: ``unknown_dataset`` (HTTP 404) when no warm entry
                matches — including one evicted since registration.
        """
        with self._lock:
            entry = self._entries.get(self._aliases.get(key, key))
            if entry is None:
                self._lookup_misses += 1
                raise ServeError(
                    "unknown_dataset",
                    f"no registered dataset {key!r} (evicted or never "
                    f"registered); POST /datasets to (re)register it",
                    status=404,
                )
            self._lookup_hits += 1
            self._entries.move_to_end(entry.key)
            return entry

    def register(self, dataset: Dataset) -> Tuple[DatasetEntry, bool]:
        """Warm an engine for ``dataset``; returns ``(entry, created)``.

        Re-registering identical content returns the existing warm entry
        untouched.  The build runs outside the registry lock so other
        requests keep flowing; on a concurrent duplicate registration the
        winner is kept.
        """
        key = dataset.content_fingerprint()
        with self._lock:
            existing = self._entries.get(self._aliases.get(key, key))
            if existing is not None:
                self._entries.move_to_end(existing.key)
                return existing, False
        oracle = CoverageOracle(dataset)
        nbytes = int(oracle.engine.index_nbytes)
        entry = DatasetEntry(key, Snapshot(dataset, oracle, key), nbytes)
        with self._lock:
            winner = self._entries.get(self._aliases.get(key, key))
            if winner is not None:
                self._entries.move_to_end(winner.key)
                return winner, False
            self._entries[key] = entry
            self._total_nbytes += entry.nbytes
            self._registers += 1
            self._evict_over_budget()
            return entry, True

    def _evict_over_budget(self) -> None:
        """Pop LRU entries beyond the caps (registry lock must be held).

        The newest entry always survives, so one oversized dataset degrades
        the registry to a single warm engine instead of thrashing.
        """
        while len(self._entries) > 1 and (
            len(self._entries) > self._max_entries
            or self._total_nbytes > self._max_bytes
        ):
            _, entry = self._entries.popitem(last=False)
            self._total_nbytes -= entry.nbytes
            self._aliases = {
                alias: key
                for alias, key in self._aliases.items()
                if key != entry.key
            }
            self._evictions += 1

    # ------------------------------------------------------------------
    # deliveries (writers)
    # ------------------------------------------------------------------
    def ensure_index(
        self, entry: DatasetEntry, threshold: int, algorithm: str
    ) -> IncrementalMupIndex:
        """The entry's incremental MUP index, created on first need.

        Adopts the snapshot's warm oracle (no second index build).  One
        index per entry: a request for a different threshold rebuilds it —
        the serving sweet spot is many deliveries against one τ, and the
        result cache absorbs repeated identify calls for others.
        """
        with entry.lock:
            index = entry.index
            if index is not None and index.threshold == int(threshold):
                return index
            snapshot = entry.snapshot
            index = IncrementalMupIndex(
                snapshot.dataset,
                threshold=int(threshold),
                algorithm=algorithm,
                oracle=snapshot.oracle,
            )
            entry.index = index
            return index

    def deliver(
        self,
        entry: DatasetEntry,
        rows: Iterable[Sequence[int]],
        threshold: Optional[int],
        algorithm: str,
    ) -> Dict:
        """Append ``rows`` to the entry under snapshot semantics.

        Routes through :class:`IncrementalMupIndex` — the index's
        exception-safe rebuild builds the new oracle and searches the new
        MUP set *before* any state changes — then atomically swaps the
        entry's snapshot, so readers
        mid-request keep answering from the old index and new requests see
        the new one.  Returns the delivery report (resolved MUPs, new
        fingerprint).
        """
        rows = [list(int(v) for v in row) for row in rows]
        index = self.ensure_index(
            entry, 1 if threshold is None else int(threshold), algorithm
        )
        with entry.lock:
            if entry.index is not index:
                raise ServeError(
                    "conflict",
                    "the entry's index changed while the delivery waited; "
                    "retry",
                    status=409,
                )
            old = entry.snapshot
            resolved = index.add_rows(rows)  # exception-safe: old state kept
            new_fingerprint = index.dataset.content_fingerprint()
            entry.snapshot = Snapshot(
                index.dataset, index.oracle, new_fingerprint
            )
            new_nbytes = int(index.oracle.engine.index_nbytes)
        with self._lock:
            self._total_nbytes += new_nbytes - entry.nbytes
            entry.nbytes = new_nbytes
            self._aliases.pop(old.fingerprint, None)
            self._aliases[new_fingerprint] = entry.key
            self._evict_over_budget()
        return {
            "dataset": entry.key,
            "fingerprint": new_fingerprint,
            "rows_delivered": len(rows),
            "rows_total": int(index.dataset.n),
            "resolved": [str(p) for p in resolved],
            "mups": len(index.mups()),
            "threshold": index.threshold,
        }

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every entry, releasing the warm indexes."""
        with self._lock:
            self._entries.clear()
            self._aliases.clear()
            self._total_nbytes = 0

    def info(self) -> Dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "nbytes": self._total_nbytes,
                "max_bytes": self._max_bytes,
                "registers": self._registers,
                "evictions": self._evictions,
                "lookup_hits": self._lookup_hits,
                "lookup_misses": self._lookup_misses,
                "datasets": [
                    {
                        "dataset": entry.key,
                        "fingerprint": entry.snapshot.fingerprint,
                        "rows": int(entry.snapshot.dataset.n),
                        "nbytes": entry.nbytes,
                        "backend": type(entry.snapshot.oracle.engine).name,
                    }
                    for entry in self._entries.values()
                ],
            }
