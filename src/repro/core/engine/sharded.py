"""Sharded coverage engine (the packed index partitioned K ways, spilled).

The dataset's rows are split into K shards by partitioning the sorted
unique-combination space into contiguous slices: shard ``j`` owns every
row whose value combination falls in its slice.  Appendix A's index works
over unique combinations, so this keeps each combination (and all its
duplicate rows) in exactly one shard — the shard multiplicity vectors
concatenate to the global one and no work is replicated across shards.

Each shard is indexed by an inner
:class:`~repro.core.engine.packed.PackedBitsetEngine` whose word block is
serialized to a spill directory as it is built (a fresh subdirectory of
``spill_dir=``, or of the default spill root) and queried through an
:class:`~repro.core.engine.mmapped.MmapShardStore` — ``np.memmap``-backed
shard slices behind a byte-budgeted LRU loader (``max_resident_bytes=``),
so coverage queries stream over an index the hardware cannot hold at
once.  A mask is one flat ``uint64`` word array in which shard ``j`` owns
a contiguous, word-aligned slice; masks stay resident (one bit per unique
combination), only the index words and multiplicity vectors spill.

Per-shard kernels run serially, or on socket shard workers
(:mod:`repro.core.engine.distributed`) that attach to the spill files by
path: standing ``worker_endpoints=``, or ``workers >= 2`` spawn-local
workers on platforms with ``fork``.  Results reduce in deterministic shard
order either way, so answers are bit-for-bit identical.

Use :meth:`ShardedEngine.attach` to re-open an existing spill directory
from its manifest (e.g. after a crash) without re-serializing the index.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine.base import (
    DEFAULT_MASK_CACHE,
    CoverageEngine,
    register_engine,
)
from repro.core.engine.config import EngineConfig
from repro.core.engine.mmapped import (
    COUNT_ONLY_OPS,
    MmapShardStore,
    ShardStoreWriter,
    apply_shard_op,
    shard_slice_fingerprint,
)
from repro.core.engine.packed import PackedBitsetEngine, full_words
from repro.data.bitset import weighted_count, weighted_count_rows
from repro.data.dataset import Dataset
from repro.exceptions import EngineError

#: Default number of shards when none is requested.
DEFAULT_SHARDS = 4

_WORD_BITS = 64

#: A sharded mask: one flat ``uint64`` word array over all shard slices.
ShardedMask = np.ndarray


def _default_spill_root() -> str:
    """Disk-backed spill root for engines built without ``spill_dir``.

    ``tempfile.gettempdir()`` honors ``$TMPDIR`` (explicit user intent),
    but its ``/tmp`` fallback is a RAM-backed tmpfs on many Linux systems
    — the worst place to spill an index that may exceed the memory budget
    — so ``/var/tmp`` (persistent and disk-backed per the FHS) is
    preferred when writable.
    """
    if os.environ.get("TMPDIR"):
        return tempfile.gettempdir()
    var_tmp = "/var/tmp"
    if os.path.isdir(var_tmp) and os.access(var_tmp, os.W_OK):
        return var_tmp
    return tempfile.gettempdir()


def _dataset_meta(dataset: Dataset, unique_total: int) -> Dict[str, Any]:
    """The dataset-identity record a spill manifest stores.

    One definition for both sides of the contract: :meth:`ShardedEngine`'s
    builder writes it and ``attach`` validates it field by field.
    """
    return {
        "n": dataset.n,
        "d": dataset.d,
        "cardinalities": [int(c) for c in dataset.cardinalities],
        "unique": unique_total,
        "fingerprint": dataset.content_fingerprint(),
    }


def _build_shard_block(
    dataset: Dataset,
    unique: np.ndarray,
    counts: np.ndarray,
    unique_start: int,
    unique_stop: int,
    *,
    inverse: Optional[np.ndarray] = None,
):
    """Pack one shard's stacked membership block from the global aggregation.

    The per-shard serialization unit shared by the engine's spill builder
    and :meth:`ShardStoreWriter.delta_write` (which rebuilds only dirty
    shards): returns ``(words block, padded multiplicities, row count)``
    for the unique-combination slice ``[unique_start, unique_stop)``.  The
    shard's unique rows are, by construction, exactly the global slice, so
    the shard dataset is primed with it and the inner engine skips its own
    re-sort.
    """
    if inverse is None:
        inverse = dataset.unique_inverse()
    row_indices = np.nonzero(
        (inverse >= unique_start) & (inverse < unique_stop)
    )[0]
    shard_dataset = dataset.take(row_indices)
    shard_dataset._prime_unique_cache(
        unique[unique_start:unique_stop], counts[unique_start:unique_stop]
    )
    inner = PackedBitsetEngine(shard_dataset, mask_cache_size=0)
    if dataset.d:
        block = np.vstack([inner.word_matrix(a) for a in range(dataset.d)])
    else:
        block = np.zeros((0, len(inner.full_mask())), dtype=np.uint64)
    return block, inner.counts_padded, len(row_indices)


def _fork_available() -> bool:
    """Whether this platform can safely fork spawn-local workers.

    Linux only: macOS lists ``fork`` but forking a multithreaded parent is
    documented-unsafe there (CoreFoundation state can crash or hang the
    children), so it evaluates shards serially along with the platforms
    that have no ``fork`` at all.
    """
    return sys.platform.startswith("linux") and (
        "fork" in multiprocessing.get_all_start_methods()
    )


@dataclass(frozen=True)
class ShardInfo:
    """Placement of one shard inside the engine's flat word space.

    A shard owns the contiguous slice ``[unique_start, unique_stop)`` of
    the engine's (sorted) global unique combinations and the word range
    ``[word_start, word_stop)`` of every mask; both views into the global
    arrays are derivable from the bounds, so no per-shard copies exist.
    """

    index: int  #: shard id (position in shard order; spill-store key)
    row_count: int  #: number of dataset rows (with duplicates) in the shard
    unique_start: int  #: first global unique-combination index of the shard
    unique_stop: int  #: one past the shard's last unique-combination index
    unique_rows: np.ndarray  #: view of the shard's unique-combination slice
    counts: np.ndarray  #: view of the matching multiplicity slice
    word_start: int  #: first word of the shard's mask slice
    word_stop: int  #: one past the shard's last mask word

    @property
    def unique_count(self) -> int:
        return self.unique_stop - self.unique_start


@register_engine
class ShardedEngine(CoverageEngine):
    """Coverage queries over K spilled row-shards of packed membership vectors.

    Args:
        dataset: the dataset to index.
        shards: requested shard count; clamped to the number of distinct
            value combinations (an empty dataset keeps one empty shard) so
            over-sharding degrades gracefully instead of crashing.
        workers: spawn this many local socket workers for shard fan-out
            (``>= 2``, on platforms with ``fork``); ``None`` (default) runs
            the per-shard kernels serially.  Results are identical either
            way — shard answers are reduced in shard order.
        mask_cache_size: capacity of the hot-mask LRU cache layered over
            ``match_mask`` (see :class:`CoverageEngine`).
        spill_dir: root under which the shard blocks are serialized, into
            a fresh unique subdirectory owned by the engine and deleted on
            :meth:`close` / garbage collection; ``None`` spills under the
            default spill root.
        max_resident_bytes: byte budget for resident (mmap-opened) shard
            slices; ``None`` means unlimited.
        worker_endpoints: ``"host:port"`` addresses of running
            ``repro-coverage worker`` processes to fan the shards out to
            instead of spawning local workers.
        delta_spill: let rebuilds over an appended dataset reuse this
            engine's spill directory via
            :meth:`ShardStoreWriter.delta_write` (consulted by
            :meth:`delta_rebuild` callers such as the incremental index).
    """

    name = "sharded"

    def __init__(
        self,
        dataset: Dataset,
        shards: int = DEFAULT_SHARDS,
        workers: Optional[int] = None,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
        spill_dir: Optional[str] = None,
        max_resident_bytes: Optional[int] = None,
        worker_endpoints: Optional[Sequence[str]] = None,
        delta_spill: bool = False,
        _attach_store: Optional[MmapShardStore] = None,
    ) -> None:
        super().__init__(dataset, mask_cache_size=mask_cache_size)
        shards = int(shards)
        if workers is not None:
            workers = int(workers)
        if max_resident_bytes is not None:
            max_resident_bytes = int(max_resident_bytes)
        if worker_endpoints is not None:
            worker_endpoints = tuple(str(e) for e in worker_endpoints)
        # One validator holds every cross-field rule (EngineConfig.validate)
        # so constructor callers and config callers cannot drift.
        EngineConfig.from_options(
            "sharded",
            shards=shards,
            workers=workers,
            spill_dir=spill_dir,
            max_resident_bytes=max_resident_bytes,
            worker_endpoints=worker_endpoints,
            delta_spill=delta_spill or None,
        )
        self._requested_shards = shards
        self._workers = workers
        self._worker_endpoints = worker_endpoints
        self._delta_spill = bool(delta_spill)
        self._max_resident_bytes = max_resident_bytes
        self._spill_root = os.fspath(spill_dir) if spill_dir is not None else None
        self._shards: List[ShardInfo] = []
        # Attribute value rows are stacked per shard block; attribute i's
        # rows occupy [_row_offsets[i], _row_offsets[i + 1]).
        self._row_offsets = [0]
        for cardinality in dataset.cardinalities:
            self._row_offsets.append(self._row_offsets[-1] + cardinality)
        # With no duplicate rows every weight is 1 and coverage is a pure
        # popcount; known up front from the global multiplicities.
        self._uniform = bool(
            len(self._unique) == 0 or self._counts.max(initial=1) == 1
        )

        if _attach_store is None:
            _attach_store = self._build(dataset)
        elif self._spill_root is None:
            # Rebuilds from an attached engine's template spill siblings.
            self._spill_root = os.fspath(_attach_store.path.parent)
        self._init_from_store(_attach_store)

        # Socket fan-out needs remote endpoints, or several shards plus the
        # ability to fork local workers; everything else runs serially.
        self._use_socket = worker_endpoints is not None or (
            workers is not None
            and workers > 1
            and len(self._shards) > 1
            and _fork_available()
        )
        # The pool is created lazily on the first query and shut down when
        # the engine is closed or garbage-collected, so rebuild churn (e.g.
        # the incremental index) never accumulates idle workers.
        self._dist_pool = None
        self._dist_finalizer: Optional[weakref.finalize] = None
        #: Set by :meth:`delta_rebuild` — the reuse accounting of the
        #: delta write that produced this engine's spill directory.
        self.delta_result = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, dataset: Dataset) -> MmapShardStore:
        """Index the dataset shard by shard, spilling each block."""
        unique_total = len(self._unique)
        # Clamp: more shards than distinct combinations would only produce
        # empty shards (the index's unit of work is a unique combination).
        effective = max(1, min(self._requested_shards, max(unique_total, 1)))
        bounds = np.linspace(0, unique_total, effective + 1).astype(np.int64)
        # Which slice of the (sorted) unique space each row falls in.
        inverse = dataset.unique_inverse()
        root = self._spill_root or _default_spill_root()
        os.makedirs(root, exist_ok=True)
        spill_path = tempfile.mkdtemp(prefix="repro-shards-", dir=root)
        try:
            writer = ShardStoreWriter(
                spill_path,
                cardinalities=dataset.cardinalities,
                uniform=self._uniform,
                dataset_meta=_dataset_meta(dataset, unique_total),
            )
            for unique_start, unique_stop in zip(bounds[:-1], bounds[1:]):
                unique_start, unique_stop = int(unique_start), int(unique_stop)
                unique_slice = self._unique[unique_start:unique_stop]
                block, counts_padded, row_count = _build_shard_block(
                    dataset,
                    self._unique,
                    self._counts,
                    unique_start,
                    unique_stop,
                    inverse=inverse,
                )
                writer.add_shard(
                    block,
                    None if self._uniform else counts_padded,
                    unique_start=unique_start,
                    unique_stop=unique_stop,
                    row_count=row_count,
                    fingerprint=shard_slice_fingerprint(
                        unique_slice,
                        None
                        if self._uniform
                        else self._counts[unique_start:unique_stop],
                    ),
                    start_key=(
                        [int(v) for v in unique_slice[0]]
                        if len(unique_slice)
                        else None
                    ),
                )
            return writer.finish(
                max_resident_bytes=self._max_resident_bytes,
                owns_files=True,
                dataset_payload=(self._unique, self._counts, dataset.schema.names),
            )
        except BaseException:
            # A failed build has no store (and so no GC finalizer) yet —
            # remove the partial spill directory here or it leaks forever.
            shutil.rmtree(spill_path, ignore_errors=True)
            raise

    def _init_from_store(self, store: MmapShardStore) -> None:
        """Adopt a finished spill directory (validated, not re-serialized)."""
        meta = store.manifest.get("dataset", {})
        expected = _dataset_meta(self._dataset, len(self._unique))
        for key, value in expected.items():
            if meta.get(key) != value:
                store.close()
                raise EngineError(
                    f"spill directory {store.path} was built for a different "
                    f"dataset ({key}: manifest has {meta.get(key)!r}, "
                    f"dataset has {value!r})"
                )
        # Uniformity is derivable from the dataset, so a disagreeing
        # manifest is corrupt — accepting it would drop (or invent) the
        # multiplicity weighting and silently mis-count.
        if store.uniform != self._uniform:
            store.close()
            raise EngineError(
                f"spill directory {store.path} records uniform="
                f"{store.uniform}, but the dataset's multiplicities say "
                f"{self._uniform}"
            )
        self._store = store
        full_blocks: List[np.ndarray] = []
        previous_unique = 0
        previous_word = 0
        for position, entry in enumerate(store.manifest["shards"]):
            # The id doubles as the store lookup key and the payload index,
            # so a permuted manifest must fail loudly, not mis-place results.
            if entry["id"] != position:
                store.close()
                raise EngineError(
                    f"spill directory {store.path} has out-of-order shard ids "
                    f"(entry {position} carries id {entry['id']})"
                )
            if (
                entry["unique_start"] != previous_unique
                or entry["word_start"] != previous_word
            ):
                store.close()
                raise EngineError(
                    f"spill directory {store.path} has a non-contiguous "
                    f"shard layout (manifest shard {entry['id']})"
                )
            # v2 manifests fingerprint each shard's unique-combination
            # slice; recomputing it from this dataset proves the shard
            # files (including hard-linked ones a delta write reused)
            # still describe exactly these combinations.
            if store.format_version >= 2:
                expected_fingerprint = shard_slice_fingerprint(
                    self._unique[entry["unique_start"] : entry["unique_stop"]],
                    None
                    if self._uniform
                    else self._counts[
                        entry["unique_start"] : entry["unique_stop"]
                    ],
                )
                if entry.get("fingerprint") != expected_fingerprint:
                    store.close()
                    raise EngineError(
                        f"spill directory {store.path} shard {entry['id']} "
                        f"fingerprint mismatch (manifest has "
                        f"{entry.get('fingerprint')!r}, dataset slice hashes "
                        f"to {expected_fingerprint!r})"
                    )
            info = ShardInfo(
                index=int(entry["id"]),
                row_count=int(entry["row_count"]),
                unique_start=int(entry["unique_start"]),
                unique_stop=int(entry["unique_stop"]),
                unique_rows=self._unique[
                    entry["unique_start"] : entry["unique_stop"]
                ],
                counts=self._counts[entry["unique_start"] : entry["unique_stop"]],
                word_start=int(entry["word_start"]),
                word_stop=int(entry["word_stop"]),
            )
            full_blocks.append(full_words(info.unique_count))
            previous_unique = info.unique_stop
            previous_word = info.word_stop
            self._shards.append(info)
        if previous_unique != len(self._unique):
            store.close()
            raise EngineError(
                f"spill directory {store.path} covers {previous_unique} unique "
                f"combinations; dataset has {len(self._unique)}"
            )
        self._full_words = (
            np.concatenate(full_blocks)
            if full_blocks
            else np.zeros(0, dtype=np.uint64)
        )

    @classmethod
    def attach(
        cls,
        dataset: Dataset,
        spill_path: str,
        *,
        workers: Optional[int] = None,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
        max_resident_bytes: Optional[int] = None,
        worker_endpoints: Optional[Sequence[str]] = None,
        delta_spill: bool = False,
    ) -> "ShardedEngine":
        """Re-open a spill directory written by a previous engine.

        The manifest's dataset fingerprint must match ``dataset``; the
        attached engine reads the existing shard files and does **not**
        delete them on close (the writing engine, or the caller, owns
        them).  This is the crash-recovery path: a finished spill directory
        answers coverage queries identically to the engine that wrote it.
        """
        store = MmapShardStore.open(
            spill_path, max_resident_bytes=max_resident_bytes, owns_files=False
        )
        try:
            return cls(
                dataset,
                shards=store.shard_count,
                workers=workers,
                mask_cache_size=mask_cache_size,
                max_resident_bytes=max_resident_bytes,
                worker_endpoints=worker_endpoints,
                delta_spill=delta_spill,
                _attach_store=store,
            )
        except BaseException:
            # Constructor validation can raise before _init_from_store
            # adopts the store; don't leave the mmaps open until GC
            # (close() is idempotent for the paths that already closed it).
            store.close()
            raise

    @classmethod
    def delta_rebuild(
        cls, previous: "ShardedEngine", dataset: Dataset
    ) -> "ShardedEngine":
        """Rebuild ``previous`` over an appended/changed ``dataset``,
        rewriting only the shards whose unique-combination slice changed.

        :meth:`ShardStoreWriter.delta_write` diffs the new dataset against
        ``previous``'s spill manifest by per-shard fingerprint and
        hard-links every clean shard's files into a fresh sibling spill
        directory, so the re-serialization cost is O(changed shards).  The
        new engine owns the new directory; ``previous`` keeps its own and
        stays open (the caller retires it).  A live distributed pool is
        handed over: workers owning dirty shards are invalidated, everyone
        re-attaches to the new path — clean shards are the same inodes, so
        their mmap pages stay warm.  The reuse accounting is left on the
        returned engine as ``delta_result``.
        """
        previous._check_open()
        new_path = tempfile.mkdtemp(
            prefix="repro-shards-", dir=previous._store.path.parent
        )
        try:
            result = ShardStoreWriter.delta_write(
                previous._store,
                dataset,
                new_path,
                max_resident_bytes=previous._max_resident_bytes,
                owns_files=True,
            )
        except BaseException:
            shutil.rmtree(new_path, ignore_errors=True)
            raise
        store = result.store
        try:
            engine = cls(
                dataset,
                shards=store.shard_count,
                workers=previous._workers,
                mask_cache_size=previous._mask_cache_size,
                max_resident_bytes=previous._max_resident_bytes,
                worker_endpoints=previous._worker_endpoints,
                delta_spill=previous._delta_spill,
                _attach_store=store,
            )
        except BaseException:
            store.close()
            shutil.rmtree(new_path, ignore_errors=True)
            raise
        engine.delta_result = result
        if previous._dist_pool is not None:
            # Hand the worker pool over instead of letting the retiring
            # engine tear it down: push invalidations only to the workers
            # owning dirty shards, then re-attach everyone to the new path.
            pool = previous._dist_pool
            if previous._dist_finalizer is not None:
                previous._dist_finalizer.detach()
                previous._dist_finalizer = None
            previous._dist_pool = None
            try:
                pool.invalidate(
                    str(previous._store.path), result.dirty_shards
                )
                pool.attach(
                    str(store.path),
                    store.shard_count,
                    max_resident_bytes=previous._max_resident_bytes,
                )
                engine._dist_pool = pool
                engine._dist_finalizer = weakref.finalize(
                    engine, pool.close
                )
            except Exception:
                # A broken pool is not worth failing the rebuild over —
                # the new engine lazily spawns a fresh one on first query.
                try:
                    pool.close()
                except Exception:
                    pass
        return engine

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards actually built (requested count clamped to n)."""
        return len(self._shards)

    @property
    def shard_infos(self) -> List[ShardInfo]:
        """Placement records of every shard, in shard order."""
        return list(self._shards)

    @property
    def requested_shards(self) -> int:
        """Shard count asked for at construction (before clamping)."""
        return self._requested_shards

    @property
    def workers(self) -> Optional[int]:
        """Spawn-local socket worker count; ``None`` means serial."""
        return self._workers

    @property
    def worker_endpoints(self) -> Optional[Sequence[str]]:
        """Addresses of standing socket workers, if any."""
        return self._worker_endpoints

    @property
    def delta_spill(self) -> bool:
        """Whether rebuilds may reuse this spill dir via delta writes."""
        return self._delta_spill

    @property
    def fan_out(self) -> str:
        """How per-shard kernels run: ``"socket"`` or ``"serial"``."""
        return "socket" if self._use_socket else "serial"

    @property
    def store(self) -> MmapShardStore:
        """The mmap shard store holding this engine's index."""
        return self._store

    @property
    def spill_path(self) -> str:
        """Directory holding this engine's shard files."""
        return str(self._store.path)

    @property
    def max_resident_bytes(self) -> Optional[int]:
        """Resident-shard byte budget (``None`` = unlimited)."""
        return self._max_resident_bytes

    def close(self) -> None:
        """Shut the worker pool down and release the spill store.

        The engine deletes its spill directory when it owns one (i.e. it
        was not :meth:`attach`-ed), after which queries raise
        :class:`EngineError`.

        Both teardown steps run even if the first raises (a shard op that
        died mid-fan-out can leave the pool broken): the store and its mmap
        handles are always released, and the first error is re-raised
        after the sweep.
        """
        errors: List[BaseException] = []
        if self._dist_finalizer is not None:
            self._dist_finalizer.detach()
            self._dist_finalizer = None
        if self._dist_pool is not None:
            pool, self._dist_pool = self._dist_pool, None
            try:
                pool.close()
            except BaseException as exc:  # noqa: BLE001 — resurfaced below
                errors.append(exc)
        try:
            self._store.close()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        # Cached masks must not keep answering for released spill files.
        self.clear_mask_cache()
        if errors:
            raise errors[0]

    def cache_info(self) -> Dict[str, Any]:
        """Hot-mask cache counters, plus the spill loader's residency split.

        The ``"store"`` entry carries :meth:`MmapShardStore.stats`,
        including the per-component (words/counts) load counters and
        resident bytes — the observable proof that count-heavy streams
        charge only the multiplicity vectors.
        """
        info = dict(super().cache_info())
        info["store"] = self._store.stats()
        return info

    def _check_open(self) -> None:
        """Reject queries on a closed engine (in every path — including the
        uniform-count and all-wildcard shortcuts that never touch the
        store)."""
        if self._store.closed:
            raise EngineError(
                f"sharded engine is closed (spill directory "
                f"{self._store.path} was released)"
            )

    def _map_shards(self, op: str, payloads: Sequence[Any]) -> List[Any]:
        """One :func:`apply_shard_op` result per shard, in shard order.

        The single dispatch for every query family: the same ``(op,
        payload)`` pairs run on the socket workers or inline, so the two
        evaluation modes cannot diverge.
        """
        if self._use_socket:
            return self._ensure_dist_pool().run_shard_ops(
                self.spill_path, op, list(payloads)
            )
        results = []
        for shard in self._shards:
            # Words/counts residency split: load only the component the
            # kernel reads, so count-heavy streams never budget-charge the
            # (much larger) word blocks.
            if op in COUNT_ONLY_OPS:
                words, counts = None, self._store.shard_counts(shard.index)
            else:
                words, counts = self._store.shard_words(shard.index), None
            results.append(
                apply_shard_op(op, payloads[shard.index], words, counts)
            )
        return results

    def _ensure_dist_pool(self):
        """The socket worker pool, spawning/connecting + attaching lazily.

        Spawn-local workers when no endpoints are configured (one per
        worker slot, capped at the shard count); otherwise connect to the
        standing ``host:port`` workers.  Either way every worker attaches
        to this engine's spill path before the first op, so placement is
        sticky from the start.
        """
        if self._dist_pool is None:
            from repro.core.engine.distributed import DistributedPool

            if self._worker_endpoints:
                pool = DistributedPool.connect(self._worker_endpoints)
            else:
                pool = DistributedPool.spawn_local(
                    min(self._workers, len(self._shards))
                )
            try:
                pool.attach(
                    self.spill_path,
                    len(self._shards),
                    max_resident_bytes=self._max_resident_bytes,
                )
            except BaseException:
                pool.close()
                raise
            self._dist_pool = pool
            self._dist_finalizer = weakref.finalize(self, pool.close)
        return self._dist_pool

    def _template_options(self) -> Dict[str, Any]:
        options = super()._template_options()
        options.update(
            shards=self._requested_shards,
            workers=self._workers,
            spill_dir=self._spill_root,
            max_resident_bytes=self._max_resident_bytes,
        )
        if self._worker_endpoints is not None:
            options["worker_endpoints"] = self._worker_endpoints
        if self._delta_spill:
            options["delta_spill"] = True
        return options

    # ------------------------------------------------------------------
    # mask kernel
    # ------------------------------------------------------------------
    def _window(self, shard: ShardInfo) -> slice:
        return slice(shard.word_start, shard.word_stop)

    @property
    def index_nbytes(self) -> int:
        # Membership words only, so cross-engine memory comparisons stay
        # apples-to-apples (store.data_nbytes adds the spilled
        # multiplicity vectors for the full on-disk footprint).
        return self._store.words_nbytes

    def full_mask(self) -> ShardedMask:
        self._check_open()
        return self._full_words.copy()

    def value_mask(self, attribute: int, value: int) -> ShardedMask:
        # Index rows have zeroed tail bits, so ANDing with the (tail-masked)
        # full words reproduces the raw row — one op for both queries.
        return self.restrict(self._full_words, attribute, value)

    def restrict(
        self, mask: ShardedMask, attribute: int, value: int
    ) -> ShardedMask:
        self._check_open()
        row = self._row_offsets[attribute] + value
        return self._and_rows(mask, [row], np.empty_like(mask))

    def _and_rows(
        self, mask: ShardedMask, rows: Sequence[int], out: ShardedMask
    ) -> ShardedMask:
        """AND the index ``rows`` into each shard window of ``mask``.

        The single shard-window scatter/gather behind both ``restrict`` /
        ``value_mask`` (one row, fresh output) and ``match_mask`` (chained
        rows, in-place: pass ``out=mask``).
        """
        windows = self._map_shards(
            "match",
            [(mask[self._window(shard)], list(rows)) for shard in self._shards],
        )
        for shard, window_words in zip(self._shards, windows):
            out[self._window(shard)] = window_words
        return out

    def restrict_children(
        self, mask: ShardedMask, attribute: int
    ) -> List[ShardedMask]:
        self._check_open()
        row_start = self._row_offsets[attribute]
        row_stop = self._row_offsets[attribute + 1]
        # One "children" op per shard, on a one-mask window stack.
        family = np.empty((row_stop - row_start, len(mask)), dtype=np.uint64)
        blocks = self._map_shards(
            "children",
            [
                (mask[np.newaxis, self._window(shard)], row_start, row_stop)
                for shard in self._shards
            ],
        )
        for shard, block in zip(self._shards, blocks):
            family[:, self._window(shard)] = block[0]
        return list(family)

    def count(self, mask: ShardedMask) -> int:
        self._check_open()
        # Uniform data needs no multiplicities: coverage is a pure popcount
        # of the (resident) mask, with no shard loads at all.
        if self._uniform:
            return weighted_count(mask, None)
        partials = self._map_shards(
            "count", [mask[self._window(shard)] for shard in self._shards]
        )
        return int(sum(partials))

    def count_many(self, masks: Sequence[ShardedMask]) -> np.ndarray:
        if not len(masks):
            return np.zeros(0, dtype=np.int64)
        self._check_open()
        matrix = np.stack(masks)
        if self._uniform:
            return weighted_count_rows(matrix, None)
        partials = self._map_shards(
            "count_rows",
            [matrix[:, self._window(shard)] for shard in self._shards],
        )
        total = partials[0].copy()
        for partial in partials[1:]:
            total += partial
        return total

    def mask_to_bool(self, mask: ShardedMask) -> np.ndarray:
        self._check_open()
        selected = np.zeros(self.unique_count, dtype=bool)
        if mask.size == 0:
            return selected
        bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
        for shard in self._shards:
            start = shard.word_start * _WORD_BITS
            selected[shard.unique_start : shard.unique_stop] = bits[
                start : start + shard.unique_count
            ]
        return selected

    def _compute_match_mask(self, pattern) -> ShardedMask:
        mask = self.full_mask()
        indices = pattern.deterministic_indices()
        if not indices:
            return mask
        rows = [self._row_offsets[index] + pattern[index] for index in indices]
        return self._and_rows(mask, rows, mask)
