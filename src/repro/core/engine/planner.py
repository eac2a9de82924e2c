"""Workload-aware engine planning: the ``"auto"`` backend.

The right execution strategy depends on the dataset: an index that fits
in memory wants packed words, and an index bigger than RAM has to stream
through the mmap shard store.  :func:`plan_engine` makes that choice.

It inspects **cheap, index-free statistics** of the workload
(:class:`WorkloadStats`: row count, attribute cardinalities, the
projected distinct-combination count and packed-index bytes derived from
them, available memory and cores — all O(d) arithmetic, no ``np.unique``
pass) and emits an :class:`EnginePlan`: a concrete, validated
:class:`~repro.core.engine.config.EngineConfig` plus a human-readable
rationale (the CLI prints it under ``--explain-plan``).  The escalation
ladder:

========================  =====================================================
projected packed index    chosen backend
========================  =====================================================
≤ memory budget           ``packed`` — ``uint64`` words, word-level popcount
> memory budget           ``sharded`` — spill + mmap streaming under
                          ``max_resident_bytes`` = the budget; socket
                          workers once the index dwarfs the budget
========================  =====================================================

Explicitly requested knobs are **constraints, not suggestions**: ``shards``
/ ``workers`` / ``spill_dir`` / ``worker_endpoints`` / ``delta_spill``
force the sharded backend, and ``max_resident_bytes`` (on
``backend="auto"``) sets the memory budget the escalation compares
against.  Plans are deterministic functions of ``(stats, requested
config)``, which the property suite pins.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from repro.core.engine.config import AUTO, EngineConfig
from repro.core.engine.sharded import DEFAULT_SHARDS, _default_spill_root
from repro.data.dataset import Dataset
from repro.exceptions import EngineError

_WORD_BITS = 64

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
    """Override (or, with ``None``, re-arm) the cached memory probe."""
    global _MEMORY_BYTES_CACHE, _MEMORY_BYTES_OVERRIDE
    if value is not None:
        value = int(value)
        if value < 1:
            raise EngineError(
                f"available memory override must be >= 1 byte, got {value}"
            )
    _MEMORY_BYTES_OVERRIDE = value
    _MEMORY_BYTES_CACHE = None


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
    capped by both ``rows`` and ``Π c_i``, and the index byte projection
    follows from it and ``Σ c_i``.

    Attributes:
        rows: number of tuples ``n``.
        d: number of attributes of interest.
        cardinalities: attribute cardinalities ``c_1..c_d``.
        projected_unique: projected distinct value combinations
            (``min(n, Π c_i)``).
        projected_packed_bytes: projected packed-index word bytes
            (``Σ c_i × ⌈unique/64⌉ × 8``).
        memory_budget_bytes: bytes the plan may keep resident.
        cpu_count: cores available for worker fan-out.
    """

    rows: int
    d: int
    cardinalities: Tuple[int, ...]
    projected_unique: int
    projected_packed_bytes: int
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
        """Collect the statistics for ``dataset``.

        ``memory_budget`` overrides the probed default (half the available
        physical memory); it is how an ``EngineConfig(backend="auto",
        max_resident_bytes=...)`` budget reaches the planner.
        """
        cardinalities = tuple(int(c) for c in dataset.cardinalities)
        combinations = 1
        for cardinality in cardinalities:
            combinations *= cardinality
            if combinations >= dataset.n:
                combinations = dataset.n
                break
        unique = min(dataset.n, combinations)
        words = (unique + _WORD_BITS - 1) // _WORD_BITS
        if memory_budget is None:
            memory_budget = max(
                1, int(available_memory_bytes() * MEMORY_BUDGET_FRACTION)
            )
        return cls(
            rows=dataset.n,
            d=dataset.d,
            cardinalities=cardinalities,
            projected_unique=unique,
            projected_packed_bytes=sum(cardinalities) * words * 8,
            memory_budget_bytes=int(memory_budget),
            cpu_count=os.cpu_count() or 1,
        )


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
    else:
        rationale.append(
            f"projected packed index {_fmt_bytes(packed_bytes)} fits the "
            f"memory budget {_fmt_bytes(budget)} -> packed (in-memory "
            f"uint64 words, word-level popcount)"
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
