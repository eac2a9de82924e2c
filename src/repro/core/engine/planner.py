"""Workload-aware engine planning: the ``"auto"`` backend.

After three PRs of backend growth (dense → packed → sharded → out-of-core)
the right execution strategy depends on the dataset: a 60-row categorical
table wants the zero-overhead dense vectors, a million-row index wants
packed words, and an index bigger than RAM has to stream through the mmap
shard store.  Hand-picking that per call does not scale to "as many
scenarios as you can imagine"; this module makes the system pick for
itself.

:func:`plan_engine` inspects **cheap, index-free statistics** of the
workload (:class:`WorkloadStats`: row count, attribute cardinalities, the
projected distinct-combination count and packed-index bytes derived from
them, available memory and cores — all O(d) arithmetic, no ``np.unique``
pass) and emits an :class:`EnginePlan`: a concrete, validated
:class:`~repro.core.engine.config.EngineConfig` plus a human-readable
rationale (the CLI prints it under ``--explain-plan``).  The escalation
ladder:

========================  =====================================================
projected index           chosen backend
========================  =====================================================
dense index ≤ 256 KiB     ``dense`` — unpacked bools beat packing overhead
packed ≤ memory budget    ``packed`` — 8× smaller index, word-level popcount
packed > memory budget    ``sharded`` — spill + mmap streaming under
                          ``max_resident_bytes`` = the budget; socket
                          workers once the index dwarfs the budget
========================  =====================================================

``hierarchy=True`` (the coarse-to-fine search of
:mod:`repro.analysis.hierarchy`) raises the dense ceiling by
:data:`HIERARCHY_DENSE_MULTIPLE`; nothing else about a workload changes
the plan.

Explicitly requested knobs are **constraints, not suggestions**: ``shards``
/ ``workers`` / ``spill_dir`` / ``worker_endpoints`` / ``delta_spill``
force the sharded backend, and ``max_resident_bytes`` (on
``backend="auto"``) sets the memory budget the escalation compares
against.  Plans are deterministic functions of ``(stats, requested
config)``, which the property suite pins.

Every future backend (network shard placement, incremental spill reuse)
slots in behind this single decision point.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from repro.core.engine.config import AUTO, EngineConfig
from repro.core.engine.sharded import DEFAULT_SHARDS, _default_spill_root
from repro.data.dataset import Dataset
from repro.exceptions import EngineError

_WORD_BITS = 64

#: Keep the dense reference representation while its bool index fits here.
DENSE_MAX_INDEX_BYTES = 256 << 10

#: Hierarchy searches: dense indices up to this multiple of the normal
#: ceiling still plan dense.  The hierarchical search builds one
#: short-lived engine per stack level over a pre-aggregated roll-up, so
#: dense's near-zero build cost and branch-free bool masks beat the
#: packed per-query constants that dominate the few hundred batched
#: counts each level actually issues.
HIERARCHY_DENSE_MULTIPLE = 16

#: Target bytes per shard when the planner sizes a sharded index.
SHARD_TARGET_BYTES = 8 << 20

#: Planner shard/worker ceilings (requested values are never clamped).
MAX_PLANNED_SHARDS = 1024
MAX_PLANNED_WORKERS = 8

#: Socket fan-out rung: once the projected shard bytes exceed this many
#: times the single-host memory budget, serial streaming is assumed
#: saturated and the plan fans shards out to socket workers.
SOCKET_BUDGET_MULTIPLE = 4

#: Fraction of available memory the planner budgets for one index.
MEMORY_BUDGET_FRACTION = 0.5

#: Memory assumed when the platform exposes no measurement at all.
FALLBACK_MEMORY_BYTES = 4 << 30


def _probe_available_memory() -> int:
    """Best-effort available physical memory (never raises).

    Prefers ``MemAvailable`` from ``/proc/meminfo`` (Linux), falls back to
    total physical memory via ``sysconf``, then to a conservative 4 GiB
    constant on platforms exposing neither.
    """
    try:
        with open("/proc/meminfo") as handle:
            match = re.search(r"MemAvailable:\s+(\d+) kB", handle.read())
        if match:
            return int(match.group(1)) * 1024
    except OSError:
        pass
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return FALLBACK_MEMORY_BYTES


#: Process-level cache of the memory probe (``None`` = not probed yet) and
#: the explicit test/embedder override layered above it.
_MEMORY_BYTES_CACHE: Optional[int] = None
_MEMORY_BYTES_OVERRIDE: Optional[int] = None


def available_memory_bytes() -> int:
    """Available physical memory, probed once per process.

    Repeated ``plan_engine`` calls (sweep loops, incremental rebuilds) used
    to re-read ``/proc/meminfo`` every time; the probe result now caches
    for the process lifetime.  :func:`set_available_memory_bytes` overrides
    it explicitly (tests, embedders with their own budget policy).
    """
    global _MEMORY_BYTES_CACHE
    if _MEMORY_BYTES_OVERRIDE is not None:
        return _MEMORY_BYTES_OVERRIDE
    if _MEMORY_BYTES_CACHE is None:
        _MEMORY_BYTES_CACHE = _probe_available_memory()
    return _MEMORY_BYTES_CACHE


def set_available_memory_bytes(value: Optional[int]) -> None:
    """Override (or, with ``None``, re-arm) the cached memory probe.

    Also invalidates the memoized :meth:`WorkloadStats.of` snapshots —
    they embed the budget derived from the probed value.
    """
    global _MEMORY_BYTES_CACHE, _MEMORY_BYTES_OVERRIDE
    if value is not None:
        value = int(value)
        if value < 1:
            raise EngineError(
                f"available memory override must be >= 1 byte, got {value}"
            )
    _MEMORY_BYTES_OVERRIDE = value
    _MEMORY_BYTES_CACHE = None
    invalidate_stats_cache()


def _fmt_bytes(nbytes: int) -> str:
    """Human-readable byte count for rationale lines."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:.0f} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024
    return f"{nbytes} B"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class WorkloadStats:
    """Cheap, index-free statistics the planner decides on.

    All projections are upper bounds derived from the schema and row
    count alone (no aggregation pass): the distinct-combination count is
    capped by both ``rows`` and ``Π c_i``, and the index byte projections
    follow from it and ``Σ c_i``.

    Attributes:
        rows: number of tuples ``n``.
        d: number of attributes of interest.
        cardinalities: attribute cardinalities ``c_1..c_d``.
        projected_unique: projected distinct value combinations
            (``min(n, Π c_i)``).
        projected_packed_bytes: projected packed-index word bytes
            (``Σ c_i × ⌈unique/64⌉ × 8``).
        projected_dense_bytes: projected dense bool-index bytes
            (``Σ c_i × unique``).
        memory_budget_bytes: bytes the plan may keep resident.
        cpu_count: cores available for worker fan-out.
    """

    rows: int
    d: int
    cardinalities: Tuple[int, ...]
    projected_unique: int
    projected_packed_bytes: int
    projected_dense_bytes: int
    memory_budget_bytes: int
    cpu_count: int

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise EngineError(f"rows must be >= 0, got {self.rows}")
        if self.memory_budget_bytes < 1:
            raise EngineError(
                f"memory budget must be >= 1 byte, got {self.memory_budget_bytes}"
            )

    @classmethod
    def of(
        cls, dataset: Dataset, memory_budget: Optional[int] = None
    ) -> "WorkloadStats":
        """Collect the statistics for ``dataset`` (memoized).

        ``memory_budget`` overrides the probed default (half the available
        physical memory); it is how an ``EngineConfig(backend="auto",
        max_resident_bytes=...)`` budget reaches the planner.

        Snapshots are memoized per ``dataset.content_fingerprint()`` (plus
        the requested budget), so
        repeated ``--engine auto`` resolutions — incremental index
        rebuilds, sweep loops — don't redo the arithmetic or the memory
        probe.  :func:`stats_cache_info` exposes the hit/miss counters;
        :func:`invalidate_stats_cache` drops entries when a dataset's
        content changes (the incremental index calls it on delivery).
        """
        key = (dataset.content_fingerprint(), memory_budget)
        with _STATS_LOCK:
            cached = _STATS_CACHE.get(key)
            if cached is not None:
                _STATS_COUNTERS["hits"] += 1
                _STATS_CACHE.move_to_end(key)
                return cached
            _STATS_COUNTERS["misses"] += 1
        cardinalities = tuple(int(c) for c in dataset.cardinalities)
        combinations = 1
        for cardinality in cardinalities:
            combinations *= cardinality
            if combinations >= dataset.n:
                combinations = dataset.n
                break
        unique = min(dataset.n, combinations)
        words = (unique + _WORD_BITS - 1) // _WORD_BITS
        row_total = sum(cardinalities)
        if memory_budget is None:
            memory_budget = max(
                1, int(available_memory_bytes() * MEMORY_BUDGET_FRACTION)
            )
        stats = cls(
            rows=dataset.n,
            d=dataset.d,
            cardinalities=cardinalities,
            projected_unique=unique,
            projected_packed_bytes=row_total * words * 8,
            projected_dense_bytes=row_total * unique,
            memory_budget_bytes=int(memory_budget),
            cpu_count=os.cpu_count() or 1,
        )
        with _STATS_LOCK:
            # A concurrent WorkloadStats.of may have won the race while the
            # snapshot was being derived; keep the first-inserted instance
            # so every caller shares one object, as memoization promises.
            winner = _STATS_CACHE.get(key)
            if winner is not None:
                _STATS_CACHE.move_to_end(key)
                return winner
            _STATS_CACHE[key] = stats
            while len(_STATS_CACHE) > STATS_CACHE_MAX_ENTRIES:
                _STATS_CACHE.popitem(last=False)
                _STATS_COUNTERS["evictions"] += 1
        return stats


#: The stats memo is process-global and the serving layer plans from many
#: threads at once, so every access goes through this lock; the LRU bound
#: keeps a long-lived server that touches many datasets from growing the
#: memo forever.
STATS_CACHE_MAX_ENTRIES = 256

#: Memoized WorkloadStats snapshots, keyed by (content fingerprint,
#: requested budget); the stats are frozen, so sharing one instance
#: across planner calls is safe.  Insertion order
#: doubles as recency (hits move_to_end) for the LRU bound above.
_STATS_CACHE: "OrderedDict[Tuple, WorkloadStats]" = OrderedDict()
_STATS_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}
_STATS_LOCK = threading.Lock()


def stats_cache_info() -> Dict[str, int]:
    """Hit/miss/eviction counters and occupancy of the stats memo."""
    with _STATS_LOCK:
        return {
            "hits": _STATS_COUNTERS["hits"],
            "misses": _STATS_COUNTERS["misses"],
            "evictions": _STATS_COUNTERS["evictions"],
            "entries": len(_STATS_CACHE),
            "max_entries": STATS_CACHE_MAX_ENTRIES,
        }


def invalidate_stats_cache(fingerprint: Optional[str] = None) -> None:
    """Drop memoized stats — all of them, or one dataset fingerprint's.

    Call with the old content fingerprint when a dataset's rows change
    (the incremental index does this on every delivery) so the next auto
    plan re-derives its projections instead of reusing stale ones.
    """
    with _STATS_LOCK:
        if fingerprint is None:
            _STATS_CACHE.clear()
            return
        for key in [k for k in _STATS_CACHE if k[0] == fingerprint]:
            del _STATS_CACHE[key]


@dataclass(frozen=True)
class EnginePlan:
    """The planner's decision: a concrete config plus its justification.

    Attributes:
        config: a validated, non-auto :class:`EngineConfig` ready to build.
        stats: the workload statistics the decision was made on.
        rationale: human-readable decision trail, one step per line.
    """

    config: EngineConfig
    stats: WorkloadStats
    rationale: Tuple[str, ...]

    def describe(self) -> str:
        """Multi-line rendering for ``--explain-plan`` and logs."""
        stats = self.stats
        lines = [
            f"engine plan: {self.config.describe()}",
            f"  workload: rows={stats.rows} d={stats.d} "
            f"cardinalities={list(stats.cardinalities)} "
            f"projected_unique={stats.projected_unique}",
            f"  projections: packed index ~{_fmt_bytes(stats.projected_packed_bytes)}, "
            f"dense index ~{_fmt_bytes(stats.projected_dense_bytes)}, "
            f"memory budget {_fmt_bytes(stats.memory_budget_bytes)}, "
            f"cores={stats.cpu_count}",
        ]
        lines.extend(f"  - {line}" for line in self.rationale)
        return "\n".join(lines)

    def build(self, dataset: Dataset):
        """Build the planned engine for ``dataset``."""
        return self.config(dataset)


def plan_engine(
    source: Union[Dataset, WorkloadStats],
    requested: Union[EngineConfig, str, None] = None,
    *,
    hierarchy: bool = False,
) -> EnginePlan:
    """Choose an execution strategy for a workload.

    Args:
        source: the dataset to plan for, or a precomputed
            :class:`WorkloadStats` snapshot (plans are deterministic
            functions of the snapshot — the property tests rely on it).
        requested: the caller's :class:`EngineConfig` (or backend name).
            A non-``auto`` backend short-circuits to a "hand-picked" plan;
            under ``auto``, set fields constrain the decision as described
            in the module docstring.
        hierarchy: plan for the hierarchical search, whose per-level
            engines keep ``dense`` up to :data:`HIERARCHY_DENSE_MULTIPLE`
            times the normal dense ceiling.

    Returns:
        An :class:`EnginePlan` whose ``config`` is concrete and valid.

    Raises:
        EngineError: invalid request.
    """
    if requested is None:
        requested = EngineConfig(backend=AUTO)
    elif isinstance(requested, str):
        requested = EngineConfig(backend=requested)
    if isinstance(source, WorkloadStats):
        stats = source
        if requested.is_auto and requested.max_resident_bytes is not None:
            stats = replace(
                stats, memory_budget_bytes=requested.max_resident_bytes
            )
    else:
        stats = WorkloadStats.of(
            source,
            memory_budget=(
                requested.max_resident_bytes if requested.is_auto else None
            ),
        )

    if not requested.is_auto:
        return EnginePlan(
            config=requested,
            stats=stats,
            rationale=(
                f"backend {requested.backend!r} was hand-picked; "
                f"planner not consulted",
            ),
        )

    rationale = []
    budget = stats.memory_budget_bytes
    packed_bytes = stats.projected_packed_bytes
    forced_sharded = bool(requested.delta_spill) or any(
        value is not None
        for value in (
            requested.shards,
            requested.workers,
            requested.spill_dir,
            requested.worker_endpoints,
        )
    )
    dense_ceiling = DENSE_MAX_INDEX_BYTES * (
        HIERARCHY_DENSE_MULTIPLE if hierarchy else 1
    )

    if packed_bytes > budget or forced_sharded:
        if packed_bytes > budget:
            rationale.append(
                f"projected packed index {_fmt_bytes(packed_bytes)} exceeds "
                f"the memory budget {_fmt_bytes(budget)} -> out-of-core "
                f"sharded (spill + mmap streaming)"
            )
            max_resident: Optional[int] = budget
        else:
            rationale.append(
                "sharded backend requested explicitly (shards / workers / "
                "spill_dir / worker_endpoints / delta_spill) -> out-of-core "
                "sharded"
            )
            max_resident = requested.max_resident_bytes
        spill_dir = requested.spill_dir
        if spill_dir is None:
            spill_dir = _default_spill_root()
            rationale.append(
                f"no spill_dir given; spilling under {spill_dir!r} "
                f"(unique subdirectory, removed on close)"
            )
        # Shards are sized by the streaming target, not the budget: the
        # loader degrades to one over-budget resident entry gracefully,
        # while tiny shards multiply per-shard dispatch and mmap churn.
        shards = _plan_shards(
            requested, stats, packed_bytes, SHARD_TARGET_BYTES, rationale
        )
        config = EngineConfig(
            backend="sharded",
            shards=shards,
            workers=_plan_workers(
                requested, stats, packed_bytes, shards, rationale
            ),
            spill_dir=spill_dir,
            max_resident_bytes=max_resident,
            mask_cache_size=requested.mask_cache_size,
            worker_endpoints=requested.worker_endpoints,
            delta_spill=requested.delta_spill,
        )
    elif stats.projected_dense_bytes <= dense_ceiling:
        rationale.append(
            f"projected dense index {_fmt_bytes(stats.projected_dense_bytes)} "
            f"fits the dense ceiling {_fmt_bytes(dense_ceiling)} -> "
            f"dense (no packing overhead on tiny indices"
            + (
                "; hierarchy shape favors per-level build cost over "
                "index size)"
                if hierarchy
                else ")"
            )
        )
        config = EngineConfig(
            backend="dense",
            mask_cache_size=requested.mask_cache_size,
        )
    else:
        rationale.append(
            f"projected packed index {_fmt_bytes(packed_bytes)} fits the "
            f"memory budget {_fmt_bytes(budget)} -> packed (8x smaller than "
            f"dense, word-level popcount)"
        )
        config = EngineConfig(
            backend="packed",
            mask_cache_size=requested.mask_cache_size,
        )
    return EnginePlan(config=config, stats=stats, rationale=tuple(rationale))


def _plan_shards(
    requested: EngineConfig,
    stats: WorkloadStats,
    packed_bytes: int,
    per_shard_target: int,
    rationale: list,
) -> int:
    """Shard count: the caller's, or sized to ``per_shard_target`` bytes."""
    if requested.shards is not None:
        rationale.append(f"shard count {requested.shards} requested explicitly")
        return requested.shards
    shards = -(-packed_bytes // max(per_shard_target, 1))  # ceil division
    shards = max(DEFAULT_SHARDS, min(shards, MAX_PLANNED_SHARDS))
    shards = min(shards, max(stats.projected_unique, 1))
    rationale.append(
        f"{shards} shard(s) keep each slice near "
        f"{_fmt_bytes(per_shard_target)} (engine clamps to distinct "
        f"combinations)"
    )
    return shards


def _plan_workers(
    requested: EngineConfig,
    stats: WorkloadStats,
    packed_bytes: int,
    shards: int,
    rationale: list,
) -> Optional[int]:
    """Spawn-local socket workers: the caller's count, or cores-based once
    the index dwarfs the memory budget (:data:`SOCKET_BUDGET_MULTIPLE`)."""
    if requested.worker_endpoints is not None:
        rationale.append(
            f"socket fan-out to {len(requested.worker_endpoints)} standing "
            f"worker(s) at worker_endpoints"
        )
        return requested.workers
    if requested.workers is not None:
        rationale.append(
            f"{requested.workers} spawn-local socket worker(s) requested "
            f"explicitly"
        )
        return requested.workers
    budget = stats.memory_budget_bytes
    workers = min(stats.cpu_count, shards, MAX_PLANNED_WORKERS)
    if workers >= 2 and packed_bytes > budget * SOCKET_BUDGET_MULTIPLE:
        rationale.append(
            f"projected shard bytes {_fmt_bytes(packed_bytes)} exceed "
            f"{SOCKET_BUDGET_MULTIPLE}x the single-host budget "
            f"{_fmt_bytes(budget)} -> {workers} spawn-local socket workers "
            f"(pass worker_endpoints to use other hosts)"
        )
        return workers
    rationale.append(
        "serial shard evaluation (single core, or an index that does not "
        "dwarf the memory budget)"
    )
    return None
