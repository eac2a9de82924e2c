"""Engine planning: the ``"auto"`` backend.

:func:`plan_engine` turns a requested
:class:`~repro.core.engine.config.EngineConfig` into a concrete one.
``packed`` is the only backend, so ``"auto"`` plans it on every input;
what the planner adds is a projection of what that index will cost.  It
inspects **cheap, index-free statistics** of the workload
(:class:`WorkloadStats`: row count, attribute cardinalities, the
projected distinct-combination count and packed-index bytes derived from
them, and the memory budget — all O(d) arithmetic, no ``np.unique``
pass) and emits an :class:`EnginePlan`: the concrete config plus a
human-readable rationale (the CLI prints it under ``--explain-plan``).
The serving layer's admission control compares the same projections
against its budgets (:mod:`repro.serve.admission`).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.engine.config import AUTO, EngineConfig
from repro.data.dataset import Dataset
from repro.exceptions import EngineError

_WORD_BITS = 64

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
    """Cheap, index-free statistics the planner reports on.

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
        memory_budget_bytes: bytes one index may keep resident (half the
            available physical memory when collected by :meth:`of`).
    """

    rows: int
    d: int
    cardinalities: Tuple[int, ...]
    projected_unique: int
    projected_packed_bytes: int
    memory_budget_bytes: int

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise EngineError(f"rows must be >= 0, got {self.rows}")
        if self.memory_budget_bytes < 1:
            raise EngineError(
                f"memory budget must be >= 1 byte, got {self.memory_budget_bytes}"
            )

    @classmethod
    def of(cls, dataset: Dataset) -> "WorkloadStats":
        """Collect the statistics for ``dataset``."""
        cardinalities = tuple(int(c) for c in dataset.cardinalities)
        combinations = 1
        for cardinality in cardinalities:
            combinations *= cardinality
            if combinations >= dataset.n:
                combinations = dataset.n
                break
        unique = min(dataset.n, combinations)
        words = (unique + _WORD_BITS - 1) // _WORD_BITS
        return cls(
            rows=dataset.n,
            d=dataset.d,
            cardinalities=cardinalities,
            projected_unique=unique,
            projected_packed_bytes=sum(cardinalities) * words * 8,
            memory_budget_bytes=max(
                1, int(available_memory_bytes() * MEMORY_BUDGET_FRACTION)
            ),
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
            f"memory budget {_fmt_bytes(stats.memory_budget_bytes)}",
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
    """Plan the engine for a workload.

    Args:
        source: the dataset to plan for, or a precomputed
            :class:`WorkloadStats` snapshot (plans are deterministic
            functions of the snapshot — the property tests rely on it).
        requested: the caller's :class:`EngineConfig` (or backend name).
            A non-``auto`` backend short-circuits to a "hand-picked" plan;
            ``auto`` plans ``packed`` with the requested cache capacity.

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
    else:
        stats = WorkloadStats.of(source)

    if not requested.is_auto:
        return EnginePlan(
            config=requested,
            stats=stats,
            rationale=(
                f"backend {requested.backend!r} was hand-picked; "
                f"planner not consulted",
            ),
        )

    packed_bytes = stats.projected_packed_bytes
    budget = stats.memory_budget_bytes
    fits = "fits" if packed_bytes <= budget else "exceeds"
    rationale = (
        f"projected packed index {_fmt_bytes(packed_bytes)} {fits} the "
        f"memory budget {_fmt_bytes(budget)} -> packed (in-memory uint64 "
        f"words, word-level popcount; the only backend)",
    )
    config = EngineConfig(
        backend="packed", mask_cache_size=requested.mask_cache_size
    )
    return EnginePlan(config=config, stats=stats, rationale=rationale)
