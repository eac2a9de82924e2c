"""Out-of-core shard storage for the sharded coverage engine.

The sharded engine's unit of work is a shard: a contiguous, word-aligned
window of one flat packed word space.  This module makes that unit the
load/evict unit of an out-of-core index:

* :class:`ShardStoreWriter` serializes each shard as it is built — one
  ``.npy`` file holding the shard's stacked ``(sum(c_i), W_j)`` membership
  words (every attribute-value row side by side) plus, for datasets with
  duplicate rows, one ``.npy`` file with the shard's padded multiplicity
  vector — and finishes with a small ``manifest.json`` describing the
  layout, so the full index never has to exist in memory.
* :class:`MmapShardStore` opens those files read-only via ``np.memmap``
  and hands shards out through a byte-budgeted LRU loader
  (``max_resident_bytes=``): coverage queries stream over shards the
  hardware cannot hold at once, and the loader's instrumentation
  (:meth:`MmapShardStore.stats`) proves it.  Residency is tracked **per
  component**: a shard's word block and its multiplicity vector load and
  evict independently (``shard_words`` / ``shard_counts``), so the
  counting kernels — which never read a membership word — charge only the
  small count vectors against the budget instead of the whole shard.

Because the shard files are immutable and addressed by path, they are also
the substrate for **socket fan-out**: a shard worker process attaches to
the spill directory by path (no word arrays cross the wire) and runs the
same per-shard kernels; :func:`run_shard_op` is the module-level entry
point a worker executes.  Results reduce in deterministic shard order, so
answers are bit-for-bit identical to the serial path.

Spill directory layout::

    <spill_dir>/<unique subdir>/
        manifest.json           # format, layout, dataset fingerprint
        shard_0000.words.npy    # (sum(c_i), W_0) uint64
        shard_0000.counts.npy   # (W_0 * 64,) int64 — absent when uniform
        shard_0001.words.npy
        ...

The manifest is written last (atomically), so a directory without one is an
incomplete spill and is rejected with a clear :class:`EngineError` — as is
any missing, truncated, or corrupted shard file.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.data.bitset import weighted_count, weighted_count_rows
from repro.exceptions import EngineError

_WORD_BITS = 64

#: Original manifest format (no per-shard fingerprints or split keys).
MANIFEST_FORMAT_V1 = "repro-shard-store/v1"

#: Current manifest format: per-shard slice fingerprints + start keys
#: (the substrate of :meth:`ShardStoreWriter.delta_write`) and an optional
#: ``dataset.npz`` payload for warm-start attaches.
MANIFEST_FORMAT = "repro-shard-store/v2"

#: Formats :meth:`MmapShardStore.open` accepts (v1 dirs stay readable;
#: they simply carry no fingerprints, so delta writes treat every shard
#: as dirty).
SUPPORTED_MANIFEST_FORMATS = (MANIFEST_FORMAT_V1, MANIFEST_FORMAT)

MANIFEST_NAME = "manifest.json"

#: Optional sidecar with the dataset's unique rows + multiplicities, so a
#: spill directory alone can warm-start a serving process
#: (:func:`load_spill_dataset`).
DATASET_PAYLOAD_NAME = "dataset.npz"

#: Top-level fields every manifest must carry.
_MANIFEST_KEYS = (
    "uniform",
    "total_words",
    "cardinalities",
    "row_offsets",
    "dataset",
    "shards",
)

#: Fields every per-shard manifest entry must carry.
_SHARD_ENTRY_KEYS = (
    "id",
    "words_file",
    "words_shape",
    "words_size",
    "counts_file",
    "counts_shape",
    "counts_size",
    "word_start",
    "word_stop",
    "unique_start",
    "unique_stop",
    "row_count",
)

#: Per-shard fields that must hold non-negative integers.
_SHARD_COUNT_KEYS = (
    "id",
    "words_size",
    "counts_size",
    "word_start",
    "word_stop",
    "unique_start",
    "unique_stop",
    "row_count",
)

#: Per-shard fields v2 manifests additionally carry: the content
#: fingerprint of the shard's unique-combination slice and the slice's
#: first combination (the partition key delta writes re-split by).
_SHARD_ENTRY_KEYS_V2 = ("fingerprint", "start_key")


def shard_slice_fingerprint(
    unique_rows: np.ndarray, counts: Optional[np.ndarray]
) -> str:
    """Content hash of one shard's unique-combination slice.

    The packed word block and padded multiplicity vector of a shard are
    pure functions of ``(unique slice, counts slice, cardinalities)``, so
    two shards with equal fingerprints (under the same schema) have
    bit-identical files — the invariant :meth:`ShardStoreWriter.delta_write`
    relies on to reuse clean shards.  ``counts`` is the slice's exact
    multiplicity vector, or ``None`` for uniform data.
    """
    digest = hashlib.sha256()
    rows = np.ascontiguousarray(unique_rows, dtype=np.int32)
    digest.update(repr(rows.shape).encode())
    digest.update(rows.tobytes())
    if counts is not None:
        digest.update(
            np.ascontiguousarray(counts, dtype=np.int64).tobytes()
        )
    return digest.hexdigest()


def _lex_searchsorted(unique: np.ndarray, key: Sequence[int]) -> int:
    """Leftmost insertion index of ``key`` in lexicographically sorted rows.

    ``unique`` is the (U, d) sorted unique-combination array
    (``np.unique(axis=0)`` order); a structured view makes ``searchsorted``
    compare whole rows lexicographically.
    """
    rows = np.ascontiguousarray(unique, dtype=np.int32)
    if rows.shape[0] == 0:
        return 0
    view = rows.view([("", rows.dtype)] * rows.shape[1]).ravel()
    needle = np.array(tuple(int(v) for v in key), dtype=view.dtype)
    return int(np.searchsorted(view, needle, side="left"))


# ----------------------------------------------------------------------
# pure per-shard kernels (shared by the serial and socket paths, and by
# the packed engine's sibling-family probe)
# ----------------------------------------------------------------------
def and_rows(
    window: np.ndarray, words: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """``window AND words[r0] AND words[r1] …`` — a chained restriction."""
    if not len(rows) or words.shape[1] == 0:
        return np.array(window, dtype=np.uint64, copy=True)
    # Fancy indexing copies the selected rows out of the (possibly mmapped)
    # block, so the reduction runs over plain memory.
    acc = np.bitwise_and.reduce(words[list(rows)], axis=0)
    return np.bitwise_and(window, acc)


def and_family(window: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``window AND`` every row of ``block`` — one sibling family.

    A ``(W,)`` window gives the ``(c, W)`` family; a ``(k, W)`` stack of
    windows gives the ``(k, c, W)`` families of all ``k`` at once.
    """
    return np.bitwise_and(window[..., np.newaxis, :], block)


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class ShardStoreWriter:
    """Streams shard blocks to a spill directory, one shard at a time.

    Args:
        directory: the spill directory to populate.  Created if missing;
            refuses a directory that already holds a manifest.
        cardinalities: the dataset's attribute cardinalities (fixes the
            stacked row layout: attribute ``i``'s value rows occupy
            ``offsets[i]:offsets[i+1]`` of every shard block).
        uniform: True when every multiplicity is 1; no counts files are
            written and counting is pure popcount.
        dataset_meta: identification record stored in the manifest
            (``n`` / ``d`` / ``unique`` / ``fingerprint``) and validated on
            attach.
    """

    def __init__(
        self,
        directory,
        *,
        cardinalities: Sequence[int],
        uniform: bool,
        dataset_meta: Dict[str, Any],
    ) -> None:
        self._path = Path(directory)
        self._path.mkdir(parents=True, exist_ok=True)
        if (self._path / MANIFEST_NAME).exists():
            raise EngineError(
                f"spill directory {self._path} already holds a shard store"
            )
        self._cardinalities = [int(c) for c in cardinalities]
        self._uniform = bool(uniform)
        self._dataset_meta = dict(dataset_meta)
        self._entries: List[Dict[str, Any]] = []
        self._word_offset = 0
        self._finished = False

    @property
    def path(self) -> Path:
        return self._path

    def add_shard(
        self,
        words: np.ndarray,
        counts: Optional[np.ndarray],
        *,
        unique_start: int,
        unique_stop: int,
        row_count: int,
        fingerprint: Optional[str] = None,
        start_key: Optional[Sequence[int]] = None,
    ) -> None:
        """Serialize one shard block (``(sum(c_i), W_j)`` words + counts).

        ``fingerprint`` is the slice's :func:`shard_slice_fingerprint` and
        ``start_key`` the slice's first unique combination (``None`` for an
        empty slice) — the v2 manifest fields delta writes diff by.
        """
        if self._finished:
            raise EngineError("shard store writer already finished")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[0] != sum(self._cardinalities):
            raise EngineError(
                f"shard block must be (sum(c_i), W); got shape {words.shape}"
            )
        shard_id = len(self._entries)
        words_file = f"shard_{shard_id:04d}.words.npy"
        np.save(self._path / words_file, words)
        entry: Dict[str, Any] = {
            "id": shard_id,
            "words_file": words_file,
            "words_shape": [int(s) for s in words.shape],
            "words_size": int((self._path / words_file).stat().st_size),
            "counts_file": None,
            "counts_shape": None,
            "counts_size": 0,
            "word_start": self._word_offset,
            "word_stop": self._word_offset + int(words.shape[1]),
            "unique_start": int(unique_start),
            "unique_stop": int(unique_stop),
            "row_count": int(row_count),
            "fingerprint": fingerprint,
            "start_key": (
                None if start_key is None else [int(v) for v in start_key]
            ),
        }
        if not self._uniform:
            if counts is None:
                raise EngineError("non-uniform store requires shard counts")
            counts = np.ascontiguousarray(counts, dtype=np.int64)
            counts_file = f"shard_{shard_id:04d}.counts.npy"
            np.save(self._path / counts_file, counts)
            entry["counts_file"] = counts_file
            entry["counts_shape"] = [int(counts.shape[0])]
            entry["counts_size"] = int((self._path / counts_file).stat().st_size)
        self._entries.append(entry)
        self._word_offset = entry["word_stop"]

    def link_shard(
        self,
        prev_path,
        prev_entry: Dict[str, Any],
        *,
        unique_start: int,
        unique_stop: int,
        fingerprint: Optional[str],
        start_key: Optional[Sequence[int]],
    ) -> None:
        """Adopt an unchanged shard from a previous store without rewriting.

        The previous shard's files are hard-linked into this directory
        (falling back to a copy across filesystems), so a clean shard costs
        directory entries, not bytes.  The caller guarantees the slice
        content is identical (fingerprint equality); layout offsets are
        recomputed for this store's shard order.
        """
        if self._finished:
            raise EngineError("shard store writer already finished")
        prev_path = Path(prev_path)
        shard_id = len(self._entries)
        width = int(prev_entry["word_stop"]) - int(prev_entry["word_start"])
        entry: Dict[str, Any] = {
            "id": shard_id,
            "words_file": f"shard_{shard_id:04d}.words.npy",
            "words_shape": [int(s) for s in prev_entry["words_shape"]],
            "words_size": int(prev_entry["words_size"]),
            "counts_file": None,
            "counts_shape": None,
            "counts_size": 0,
            "word_start": self._word_offset,
            "word_stop": self._word_offset + width,
            "unique_start": int(unique_start),
            "unique_stop": int(unique_stop),
            "row_count": int(prev_entry["row_count"]),
            "fingerprint": fingerprint,
            "start_key": (
                None if start_key is None else [int(v) for v in start_key]
            ),
        }
        self._link_file(
            prev_path / prev_entry["words_file"],
            self._path / entry["words_file"],
        )
        if prev_entry["counts_file"] is not None:
            if self._uniform:
                raise EngineError(
                    "cannot reuse a multiplicity shard in a uniform store"
                )
            entry["counts_file"] = f"shard_{shard_id:04d}.counts.npy"
            entry["counts_shape"] = [int(prev_entry["counts_shape"][0])]
            entry["counts_size"] = int(prev_entry["counts_size"])
            self._link_file(
                prev_path / prev_entry["counts_file"],
                self._path / entry["counts_file"],
            )
        elif not self._uniform:
            raise EngineError(
                "cannot reuse a uniform shard in a multiplicity store"
            )
        self._entries.append(entry)
        self._word_offset = entry["word_stop"]

    @staticmethod
    def _link_file(source: Path, target: Path) -> None:
        try:
            os.link(source, target)
        except OSError:
            # Cross-device spill roots (or filesystems without hard links)
            # degrade to a copy; correctness is unaffected.
            shutil.copy2(source, target)

    def finish(
        self,
        max_resident_bytes: Optional[int] = None,
        owns_files: bool = True,
        dataset_payload: Optional[
            Tuple[np.ndarray, np.ndarray, Sequence[str]]
        ] = None,
    ) -> "MmapShardStore":
        """Write the manifest (atomically, last) and open the store.

        ``dataset_payload`` — ``(unique rows, multiplicities, attribute
        names)`` — additionally serializes the dataset's logical content
        next to the shards, so :func:`load_spill_dataset` can warm-start a
        fresh process from the spill directory alone.
        """
        if self._finished:
            raise EngineError("shard store writer already finished")
        self._finished = True
        if dataset_payload is not None:
            unique, counts, names = dataset_payload
            np.savez(
                self._path / DATASET_PAYLOAD_NAME,
                unique=np.ascontiguousarray(unique, dtype=np.int32),
                counts=np.ascontiguousarray(counts, dtype=np.int64),
                names=np.asarray([str(name) for name in names]),
            )
        offsets = np.concatenate(
            [[0], np.cumsum(self._cardinalities, dtype=np.int64)]
        )
        manifest = {
            "format": MANIFEST_FORMAT,
            "uniform": self._uniform,
            "word_bits": _WORD_BITS,
            "total_words": self._word_offset,
            "cardinalities": self._cardinalities,
            "row_offsets": [int(o) for o in offsets],
            "dataset": self._dataset_meta,
            "shards": self._entries,
        }
        tmp = self._path / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=2)
        os.replace(tmp, self._path / MANIFEST_NAME)
        return MmapShardStore(
            self._path,
            manifest,
            max_resident_bytes=max_resident_bytes,
            owns_files=owns_files,
        )

    # ------------------------------------------------------------------
    # incremental spill reuse
    # ------------------------------------------------------------------
    @classmethod
    def delta_write(
        cls,
        prev_store: "MmapShardStore",
        dataset,
        directory,
        *,
        max_resident_bytes: Optional[int] = None,
        owns_files: bool = True,
    ) -> "DeltaWriteResult":
        """Re-spill ``dataset`` into ``directory``, reusing clean shards.

        The previous store's shard partition is re-applied to the new
        dataset's (sorted) unique-combination space via the manifest's
        per-shard ``start_key`` split points; each re-split slice whose
        :func:`shard_slice_fingerprint` matches the previous shard's is
        hard-linked instead of rebuilt, so an append that touches a handful
        of combinations re-serializes O(changed shards) — not the index.
        A v1 manifest (no fingerprints), a changed schema, or a flipped
        uniformity bit degrade gracefully to a full rewrite under the
        previous partition arity.  The new manifest commits atomically
        (written last), exactly like a fresh spill.
        """
        from repro.core.engine.sharded import (  # circular-safe: lazy
            _build_shard_block,
            _dataset_meta,
        )

        unique, counts = dataset.unique_rows()
        unique_total = len(unique)
        uniform = bool(unique_total == 0 or counts.max(initial=1) == 1)
        manifest = prev_store.manifest
        prev_entries = manifest["shards"]
        cardinalities = [int(c) for c in dataset.cardinalities]
        # Conditions under which per-shard reuse is sound at all; when any
        # fails, every slice is treated as dirty (a full rewrite that still
        # produces a valid v2 store).
        reusable = (
            cardinalities == [int(c) for c in manifest["cardinalities"]]
            and bool(manifest["uniform"]) == uniform
            and dataset.d > 0
            and all(
                entry.get("fingerprint") is not None
                and entry.get("start_key") is not None
                for entry in prev_entries
            )
        )
        if reusable:
            # Re-split the new unique space at the previous shards' start
            # keys; clean shards land on identical slices, insertions dirty
            # only the slices they fall into.
            bounds = [0]
            for entry in prev_entries[1:]:
                position = _lex_searchsorted(unique, entry["start_key"])
                bounds.append(max(position, bounds[-1]))
            bounds.append(unique_total)
        else:
            # Full rewrite: an even partition at the previous arity
            # (clamped like a fresh build), since nothing can be reused.
            arity = max(1, min(len(prev_entries), max(unique_total, 1)))
            bounds = list(
                np.linspace(0, unique_total, arity + 1).astype(np.int64)
            )

        inverse = None
        writer = cls(
            directory,
            cardinalities=cardinalities,
            uniform=uniform,
            dataset_meta=_dataset_meta(dataset, unique_total),
        )
        reused = 0
        reused_bytes = 0
        written_bytes = 0
        dirty: List[int] = []
        for shard_id, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            slice_counts = None if uniform else counts[start:stop]
            fingerprint = shard_slice_fingerprint(
                unique[start:stop], slice_counts
            )
            start_key = unique[start].tolist() if stop > start else None
            prev_entry = prev_entries[shard_id]
            if reusable and prev_entry["fingerprint"] == fingerprint:
                writer.link_shard(
                    prev_store.path,
                    prev_entry,
                    unique_start=start,
                    unique_stop=stop,
                    fingerprint=fingerprint,
                    start_key=start_key,
                )
                reused += 1
                reused_bytes += int(prev_entry["words_size"]) + int(
                    prev_entry["counts_size"]
                )
                continue
            if inverse is None:
                inverse = dataset.unique_inverse()
            block, counts_padded, row_count = _build_shard_block(
                dataset,
                unique,
                counts,
                start,
                stop,
                inverse=inverse,
            )
            writer.add_shard(
                block,
                None if uniform else counts_padded,
                unique_start=start,
                unique_stop=stop,
                row_count=row_count,
                fingerprint=fingerprint,
                start_key=start_key,
            )
            entry = writer._entries[-1]
            written_bytes += int(entry["words_size"]) + int(entry["counts_size"])
            dirty.append(shard_id)
        store = writer.finish(
            max_resident_bytes=max_resident_bytes,
            owns_files=owns_files,
            dataset_payload=(unique, counts, dataset.schema.names),
        )
        return DeltaWriteResult(
            store=store,
            reused_shards=reused,
            rewritten_shards=len(dirty),
            reused_bytes=reused_bytes,
            written_bytes=written_bytes,
            dirty_shards=tuple(dirty),
        )


class DeltaWriteResult(NamedTuple):
    """What a :meth:`ShardStoreWriter.delta_write` run reused vs rewrote."""

    store: "MmapShardStore"
    reused_shards: int
    rewritten_shards: int
    reused_bytes: int
    written_bytes: int
    dirty_shards: Tuple[int, ...]


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
class _Resident(NamedTuple):
    array: np.ndarray
    nbytes: int


#: Residency components a shard splits into (the LRU's load/evict units).
_COMPONENTS = ("words", "counts")


def _remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer (``bool`` excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_count_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_count(v) for v in value)


def _is_file_name(value: Any) -> bool:
    """A bare file name inside the spill directory."""
    return (
        isinstance(value, str)
        and "\x00" not in value
        and value not in ("", "..")
        and Path(value).name == value
    )


def _read_manifest(path: Path) -> Dict[str, Any]:
    """Load and type-check a spill directory's manifest.

    Every field :meth:`MmapShardStore.open` and the engines read is checked
    here, so a hand-edited, truncated or foreign manifest fails with one
    :class:`EngineError` instead of a ``KeyError``/``TypeError`` deep in a
    query.
    """
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise EngineError(
            f"{path} is not a shard store (no {MANIFEST_NAME}; "
            f"incomplete spill directories are rejected)"
        )
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:  # incl. JSON and UTF-8 decoding
        raise EngineError(
            f"unreadable shard-store manifest {manifest_path}: {error}"
        ) from error

    def malformed(reason: str) -> EngineError:
        return EngineError(
            f"malformed shard-store manifest {manifest_path}: {reason}"
        )

    if not isinstance(manifest, dict):
        raise malformed("the top level must be a JSON object")
    if manifest.get("format") not in SUPPORTED_MANIFEST_FORMATS:
        raise EngineError(
            f"unsupported shard-store format {manifest.get('format')!r} "
            f"in {manifest_path}; expected one of "
            f"{list(SUPPORTED_MANIFEST_FORMATS)}"
        )
    # Hand-edited or differently-versioned manifests must fail with a
    # clear error here, not a KeyError deep in a query.
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing or not isinstance(manifest["shards"], list):
        raise malformed(f"missing or invalid fields {missing or ['shards']}")
    for key in ("cardinalities", "row_offsets"):
        if not _is_count_list(manifest[key]):
            raise malformed(f"{key!r} must be a list of non-negative integers")
    if not _is_count(manifest["total_words"]):
        raise malformed("'total_words' must be a non-negative integer")
    if not isinstance(manifest["dataset"], dict):
        raise malformed("'dataset' must be a JSON object")
    required_entry_keys = _SHARD_ENTRY_KEYS
    if manifest["format"] == MANIFEST_FORMAT:
        required_entry_keys = _SHARD_ENTRY_KEYS + _SHARD_ENTRY_KEYS_V2
    for entry in manifest["shards"]:
        bad = not isinstance(entry, dict) or any(
            key not in entry for key in required_entry_keys
        )
        if bad:
            raise malformed(f"incomplete shard entry {entry!r}")
        for key in _SHARD_COUNT_KEYS:
            if not _is_count(entry[key]):
                raise malformed(
                    f"shard field {key!r} must be a non-negative integer, "
                    f"got {entry[key]!r}"
                )
        if not _is_file_name(entry["words_file"]) or not (
            entry["counts_file"] is None or _is_file_name(entry["counts_file"])
        ):
            raise malformed(
                f"shard {entry['id']} names files outside the spill directory"
            )
        if not _is_count_list(entry["words_shape"]) or not (
            entry["counts_shape"] is None
            or _is_count_list(entry["counts_shape"])
        ):
            raise malformed(
                f"shard {entry['id']} shapes must be lists of non-negative "
                f"integers"
            )
    return manifest


def _check_shard_file(path: Path, filename: str, expected_size: int) -> None:
    file_path = path / filename
    try:
        actual = file_path.stat().st_size
    except OSError as error:
        raise EngineError(f"missing shard file {file_path}") from error
    if actual != expected_size:
        raise EngineError(
            f"shard file {file_path} is truncated or corrupted "
            f"({actual} bytes on disk, manifest records {expected_size})"
        )


class MmapShardStore:
    """Read-only mmap access to a spill directory, behind an LRU loader.

    Shard components are loaded on demand with ``np.memmap`` and kept
    resident until the byte budget (``max_resident_bytes``; ``None`` =
    unlimited) forces LRU eviction.  The unit of residency is a shard
    **component** — the word block (:meth:`shard_words`) or the
    multiplicity vector (:meth:`shard_counts`) — so count-only query
    streams never load or budget-charge the much larger word blocks.  A
    component larger than the whole budget still loads (the store degrades
    to one resident entry instead of failing) and is counted in
    ``over_budget_loads``.

    Thread-safe: concurrent queries on one engine load shards from several
    threads.
    Use :meth:`MmapShardStore.open` to attach to an existing directory;
    :class:`ShardStoreWriter` builds new ones.
    """

    def __init__(
        self,
        path,
        manifest: Dict[str, Any],
        max_resident_bytes: Optional[int] = None,
        owns_files: bool = False,
    ) -> None:
        if max_resident_bytes is not None:
            max_resident_bytes = int(max_resident_bytes)
            if max_resident_bytes < 1:
                raise EngineError(
                    f"max_resident_bytes must be >= 1, got {max_resident_bytes}"
                )
        self._path = Path(path)
        self._manifest = manifest
        self._max_resident = max_resident_bytes
        self._owns = bool(owns_files)
        self._lock = threading.Lock()
        # Keyed by (shard_id, component): words and counts are independent
        # load/evict units so count-only streams stay cheap.
        self._resident: "OrderedDict[Tuple[int, str], _Resident]" = OrderedDict()
        self._resident_bytes = 0
        self._component_bytes = {component: 0 for component in _COMPONENTS}
        self._component_loads = {component: 0 for component in _COMPONENTS}
        self._closed = False
        self.loads = 0
        self.hits = 0
        self.evictions = 0
        self.over_budget_loads = 0
        self.peak_resident_bytes = 0
        # GC safety net: an abandoned owned store still removes its spill
        # files at collection / interpreter exit.
        self._finalizer = (
            weakref.finalize(self, _remove_tree, str(self._path))
            if self._owns
            else None
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory,
        max_resident_bytes: Optional[int] = None,
        owns_files: bool = False,
    ) -> "MmapShardStore":
        """Attach to an existing spill directory via its manifest.

        Validates the manifest format and every shard file's size up front,
        so truncation is reported as a clear :class:`EngineError` instead of
        garbage coverage results.
        """
        path = Path(directory)
        manifest = _read_manifest(path)
        rows = sum(manifest["cardinalities"])
        for entry in manifest["shards"]:
            # The block shapes must agree with the word windows the kernels
            # slice by, and the word windows with the packed width of the
            # unique spans — or a self-consistent corrupted manifest lands
            # bits at wrong offsets / broadcasts into silently wrong
            # answers instead of an error.
            width = entry["word_stop"] - entry["word_start"]
            unique_span = entry["unique_stop"] - entry["unique_start"]
            if width != (unique_span + _WORD_BITS - 1) // _WORD_BITS:
                raise EngineError(
                    f"shard {entry['id']} of {path} spans {unique_span} "
                    f"unique combinations but {width} mask words; the "
                    f"packed layout requires "
                    f"{(unique_span + _WORD_BITS - 1) // _WORD_BITS}"
                )
            if entry["words_shape"] != [rows, width]:
                raise EngineError(
                    f"shard {entry['id']} of {path} has block shape "
                    f"{entry['words_shape']}, but its manifest word window "
                    f"requires {[rows, width]}"
                )
            _check_shard_file(path, entry["words_file"], entry["words_size"])
            if entry["counts_file"] is not None:
                if entry["counts_shape"] != [width * _WORD_BITS]:
                    raise EngineError(
                        f"shard {entry['id']} of {path} has counts shape "
                        f"{entry['counts_shape']}, but its manifest word "
                        f"window requires {[width * _WORD_BITS]}"
                    )
                _check_shard_file(
                    path, entry["counts_file"], entry["counts_size"]
                )
        return cls(
            path,
            manifest,
            max_resident_bytes=max_resident_bytes,
            owns_files=owns_files,
        )

    # ------------------------------------------------------------------
    # manifest accessors
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def manifest(self) -> Dict[str, Any]:
        return self._manifest

    @property
    def shard_count(self) -> int:
        return len(self._manifest["shards"])

    @property
    def format_version(self) -> int:
        """1 for legacy manifests (no fingerprints), 2 for current ones."""
        return 1 if self._manifest["format"] == MANIFEST_FORMAT_V1 else 2

    def shard_fingerprint(self, shard_id: int) -> Optional[str]:
        """The shard's slice fingerprint (``None`` in v1 manifests)."""
        return self._manifest["shards"][shard_id].get("fingerprint")

    @property
    def uniform(self) -> bool:
        return bool(self._manifest["uniform"])

    @property
    def total_words(self) -> int:
        return int(self._manifest["total_words"])

    @property
    def row_offsets(self) -> List[int]:
        """Stacked-block start row of each attribute (length ``d + 1``)."""
        return list(self._manifest["row_offsets"])

    def shard_nbytes(self, shard_id: int) -> int:
        """Bytes the shard occupies when resident (words + counts)."""
        entry = self._manifest["shards"][shard_id]
        rows, words = entry["words_shape"]
        nbytes = rows * words * 8
        if entry["counts_shape"] is not None:
            nbytes += entry["counts_shape"][0] * 8
        return nbytes

    @property
    def data_nbytes(self) -> int:
        """On-disk index bytes (word + count payloads, headers excluded)."""
        return sum(
            self.shard_nbytes(shard_id) for shard_id in range(self.shard_count)
        )

    @property
    def words_nbytes(self) -> int:
        """On-disk membership-word bytes only (the in-memory engines'
        ``index_nbytes`` counts words, not multiplicities — same basis)."""
        total = 0
        for entry in self._manifest["shards"]:
            rows, words = entry["words_shape"]
            total += rows * words * 8
        return total

    @property
    def max_resident_bytes(self) -> Optional[int]:
        return self._max_resident

    # ------------------------------------------------------------------
    # the loader
    # ------------------------------------------------------------------
    def shard_words(self, shard_id: int) -> np.ndarray:
        """The shard's stacked membership-word block (counts untouched)."""
        return self._component(shard_id, "words")

    def shard_counts(self, shard_id: int) -> Optional[np.ndarray]:
        """The shard's padded multiplicity vector, or ``None`` when uniform.

        The count kernels' accessor: only the (small) count vector is
        loaded and charged against ``max_resident_bytes`` — the shard's
        word block, typically an order of magnitude larger, stays on disk.
        """
        meta = self._manifest["shards"][shard_id]
        if meta["counts_file"] is None:
            if self._closed:
                raise EngineError(f"shard store {self._path} is closed")
            return None
        return self._component(shard_id, "counts")

    def _component(self, shard_id: int, component: str) -> np.ndarray:
        """Load one residency unit (a shard's words *or* counts)."""
        key = (shard_id, component)
        with self._lock:
            if self._closed:
                raise EngineError(f"shard store {self._path} is closed")
            entry = self._resident.get(key)
            if entry is not None:
                self.hits += 1
                self._resident.move_to_end(key)
                return entry.array
            meta = self._manifest["shards"][shard_id]
        # The disk opens run outside the lock so query threads load shards
        # concurrently; only the LRU bookkeeping below serializes.
        if component == "words":
            array = self._open_array(
                meta["words_file"], tuple(meta["words_shape"]), np.uint64
            )
        else:
            array = self._open_array(
                meta["counts_file"], tuple(meta["counts_shape"]), np.int64
            )
        nbytes = int(array.nbytes)
        with self._lock:
            if self._closed:
                raise EngineError(f"shard store {self._path} is closed")
            entry = self._resident.get(key)
            if entry is not None:
                # Another thread loaded it while we read; keep theirs.
                self.hits += 1
                self._resident.move_to_end(key)
                return entry.array
            self.loads += 1
            self._component_loads[component] += 1
            if self._max_resident is not None:
                while (
                    self._resident
                    and self._resident_bytes + nbytes > self._max_resident
                ):
                    evicted_key, evicted = self._resident.popitem(last=False)
                    self._resident_bytes -= evicted.nbytes
                    self._component_bytes[evicted_key[1]] -= evicted.nbytes
                    self.evictions += 1
                if nbytes > self._max_resident:
                    self.over_budget_loads += 1
            self._resident[key] = _Resident(array, nbytes)
            self._resident_bytes += nbytes
            self._component_bytes[component] += nbytes
            self.peak_resident_bytes = max(
                self.peak_resident_bytes, self._resident_bytes
            )
            return array

    def _open_array(
        self, filename: str, expected_shape: Tuple[int, ...], expected_dtype
    ) -> np.ndarray:
        path = self._path / filename
        try:
            # A zero-size payload cannot be mmapped; plain load is exact.
            if 0 in expected_shape:
                array = np.load(path)
            else:
                array = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError) as error:
            raise EngineError(
                f"corrupted shard file {path}: {error}"
            ) from error
        if array.shape != expected_shape or array.dtype != np.dtype(expected_dtype):
            raise EngineError(
                f"shard file {path} does not match its manifest "
                f"(got {array.dtype}{array.shape}, expected "
                f"{np.dtype(expected_dtype)}{expected_shape})"
            )
        return array

    def stats(self) -> Dict[str, Any]:
        """Loader instrumentation: loads/hits/evictions and residency.

        Loads and resident bytes are also broken down by component
        (``words_*`` / ``counts_*``), exposing the words/counts residency
        split — a count-heavy stream shows ``words_loads == 0`` and zero
        resident word bytes.
        """
        with self._lock:
            return {
                "loads": self.loads,
                "words_loads": self._component_loads["words"],
                "counts_loads": self._component_loads["counts"],
                "hits": self.hits,
                "evictions": self.evictions,
                "over_budget_loads": self.over_budget_loads,
                "resident_shards": len({sid for sid, _ in self._resident}),
                "resident_entries": len(self._resident),
                "resident_bytes": self._resident_bytes,
                "resident_words_bytes": self._component_bytes["words"],
                "resident_counts_bytes": self._component_bytes["counts"],
                "peak_resident_bytes": self.peak_resident_bytes,
                "max_resident_bytes": self._max_resident,
                "shard_count": self.shard_count,
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def owns_files(self) -> bool:
        """True when closing the store deletes its spill directory."""
        return self._owns

    def close(self) -> None:
        """Release resident mmaps; delete the spill directory when owned."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._resident.clear()
            self._resident_bytes = 0
            self._component_bytes = {component: 0 for component in _COMPONENTS}
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._owns:
            _remove_tree(str(self._path))


# ----------------------------------------------------------------------
# warm-start payload
# ----------------------------------------------------------------------
def load_spill_dataset(directory):
    """Rebuild the spilled dataset from a directory's ``dataset.npz``.

    Spill directories written at manifest v2 carry the dataset's logical
    content (unique combinations, multiplicities, attribute names), which
    is everything the engine stack observes — so a serving process can
    attach a spill directory it did not write, without the original CSV.
    The reconstructed rows repeat each unique combination by its
    multiplicity; the row *order* differs from the original dataset, but
    the content fingerprint (validated against the manifest here) does not.
    """
    from repro.data.dataset import Dataset, Schema  # circular-safe: lazy

    path = Path(directory)
    payload_path = path / DATASET_PAYLOAD_NAME
    if not payload_path.is_file():
        raise EngineError(
            f"{path} carries no {DATASET_PAYLOAD_NAME}; only spill "
            f"directories written at manifest format {MANIFEST_FORMAT!r} "
            f"can warm-start without the original dataset"
        )
    manifest = _read_manifest(path)
    try:
        with np.load(payload_path, allow_pickle=False) as payload:
            unique = np.ascontiguousarray(payload["unique"], dtype=np.int32)
            counts = np.ascontiguousarray(payload["counts"], dtype=np.int64)
            names = [str(name) for name in payload["names"]]
    except (OSError, ValueError, KeyError, EOFError) as error:
        raise EngineError(
            f"corrupted dataset payload {payload_path}: {error}"
        ) from error
    cardinalities = manifest["cardinalities"]
    if unique.ndim != 2 or unique.shape[1] != len(cardinalities) or len(
        counts
    ) != len(unique):
        raise EngineError(
            f"dataset payload {payload_path} does not match its manifest "
            f"(unique {unique.shape}, counts {counts.shape}, "
            f"{len(cardinalities)} attributes)"
        )
    schema = Schema.of(names, cardinalities)
    rows = np.repeat(unique, counts, axis=0) if len(unique) else unique
    dataset = Dataset(schema, rows)
    dataset._prime_unique_cache(unique, counts)
    expected = manifest.get("dataset", {}).get("fingerprint")
    if expected is not None and dataset.content_fingerprint() != expected:
        raise EngineError(
            f"dataset payload {payload_path} fingerprints "
            f"{dataset.content_fingerprint()}, but the manifest records "
            f"{expected}; the spill directory is inconsistent"
        )
    return dataset


# ----------------------------------------------------------------------
# shard-worker fan-out
# ----------------------------------------------------------------------
#: Per-process cache of attached stores, keyed by spill path.  Workers
#: attach by path — no word arrays ever cross the process boundary.
_WORKER_STORES: Dict[str, MmapShardStore] = {}


def worker_attach(path: str, max_resident_bytes: Optional[int] = None) -> None:
    """Open the spill directory once per shard-worker process.

    The resident budget applies per process — each worker streams its
    shards under its own ``max_resident_bytes`` ceiling.  A cached store
    that was closed, whose directory was replaced, or that was opened under
    a different budget (e.g. inherited across ``fork`` from an in-process
    attach) is re-opened rather than served stale.
    """
    existing = _WORKER_STORES.get(path)
    if (
        existing is None
        or existing.closed
        or existing.max_resident_bytes != max_resident_bytes
    ):
        _WORKER_STORES[path] = MmapShardStore.open(
            path, max_resident_bytes=max_resident_bytes
        )


def worker_detach(path: str) -> bool:
    """Drop a worker-attached store and release its mmap handles.

    The invalidation half of :func:`worker_attach`: a coordinator that
    delta-rewrote a spill directory tells the workers owning dirty shards
    to forget the retired path, so the next attach re-opens fresh files.
    Returns whether a store was actually dropped.
    """
    store = _WORKER_STORES.pop(path, None)
    if store is None:
        return False
    store.close()
    return True


#: Shard-op payloads (all small: mask windows, row ids — never the index).
ShardOp = Tuple[str, int, str, Any]

#: Ops that only read the multiplicity vectors: the shard's word block is
#: neither loaded nor budget-charged for them (the words/counts residency
#: split).  Conversely the remaining ops ("match"/"children") never read
#: the counts.
COUNT_ONLY_OPS = frozenset({"count", "count_rows"})


def apply_shard_op(
    op: str,
    payload: Any,
    words: np.ndarray,
    counts: Optional[np.ndarray],
):
    """Dispatch one per-shard kernel over the shard's loaded arrays.

    The single dispatch shared by the serial and socket paths, so the two
    evaluation modes cannot diverge.  Ops:

    * ``"count"`` — payload = mask window → weighted count (int);
    * ``"count_rows"`` — payload = ``(k, W_j)`` mask matrix window →
      per-row weighted counts;
    * ``"match"`` — payload = ``(start window, index row ids)`` → the
      window after chained AND of the rows;
    * ``"children"`` — payload = ``(k, W_j)`` mask window stack,
      ``row_start``, ``row_stop`` → the ``(k, c, W_j)`` sibling-family
      windows.
    """
    if op == "count":
        return weighted_count(payload, counts)
    if op == "count_rows":
        return weighted_count_rows(payload, counts)
    if op == "match":
        window, rows = payload
        return and_rows(window, words, rows)
    if op == "children":
        window, row_start, row_stop = payload
        return and_family(window, words[row_start:row_stop])
    raise EngineError(f"unknown shard op {op!r}")


def run_shard_op(args: ShardOp):
    """Execute one per-shard kernel in a shard worker (or in-process).

    ``args`` is ``(spill_path, shard_id, op, payload)``; the index words are
    read from the attached store, so only mask windows and row ids are ever
    shipped.  Shard workers attach through :func:`worker_attach`, which
    carries the engine's per-process resident budget; the lazy attach below
    is a fallback for in-process callers and opens the store with an
    unlimited budget.  Ops are dispatched through :func:`apply_shard_op`.
    """
    path, shard_id, op, payload = args
    store = _WORKER_STORES.get(path)
    if store is None or store.closed:
        # Unlike worker_attach, the fallback states no budget intent, so it
        # must not clobber an attached store's configured budget.
        store = _WORKER_STORES[path] = MmapShardStore.open(path)
    # Load only the component the kernel reads: count ops touch the small
    # multiplicity vectors, word ops the membership block — never both.
    if op in COUNT_ONLY_OPS:
        return apply_shard_op(op, payload, None, store.shard_counts(shard_id))
    return apply_shard_op(op, payload, store.shard_words(shard_id), None)
