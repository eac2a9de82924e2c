"""Admission control driven by the packed index's projected size.

Two gates stand in front of the engines:

* **Budget admission** — before a dataset is registered, the resident
  bytes of its packed index, ``Σ c_i · ⌈min(n, Π c_i) / 64⌉ · 8``, and the
  time of one scan over them are projected from the schema and row count
  alone.  A projection over the configured memory budget (by default half
  the available memory) or over the latency budget is rejected up front
  (HTTP 413) with a structured error carrying the projections — the client
  learns *why* and by how much, instead of timing out against a thrashing
  server.
* **Concurrency admission** — heavy requests (identify / enhance /
  deliver / registration) pass through a bounded semaphore: up to
  ``max_concurrent`` run, up to ``max_queue`` wait, and beyond that the
  request is rejected as ``saturated`` rather than queueing unboundedly.
  Point coverage lookups skip this gate — they ride the batcher.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import re
import threading
from typing import Dict, Optional

from repro.core.engine import CoverageEngine
from repro.data.dataset import Dataset
from repro.exceptions import AdmissionError

#: Effective scan throughput of the fused packed kernels (bytes/second),
#: set conservatively so slower machines still reject in time.
PACKED_SCAN_BYTES_PER_SECOND = 4 << 30

#: Fraction of available memory the default budget lets one index hold.
MEMORY_BUDGET_FRACTION = 0.5

#: Memory assumed when the platform exposes no measurement at all.
FALLBACK_MEMORY_BYTES = 4 << 30

#: The memory probe's answer, taken once per process.
_available_memory: Optional[int] = None


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


def default_memory_budget() -> int:
    """Half the available physical memory, probed once per process."""
    global _available_memory
    if _available_memory is None:
        _available_memory = _probe_available_memory()
    return max(1, int(_available_memory * MEMORY_BUDGET_FRACTION))


def projected_index_bytes(dataset: Dataset) -> int:
    """Resident bytes of the dataset's packed index, from its schema.

    One row of ``uint64`` words per attribute value over at most
    ``min(n, Π c_i)`` distinct value combinations — an upper bound that
    needs no aggregation pass.
    """
    cardinalities = dataset.cardinalities
    unique = min(dataset.n, math.prod(cardinalities))
    return sum(cardinalities) * -(-unique // 64) * 8


class AdmissionController:
    """Decides, per request, between admit, queue, and structured reject."""

    def __init__(
        self,
        memory_budget_bytes: Optional[int],
        latency_budget_seconds: float,
        max_concurrent: int,
        max_queue: int,
    ) -> None:
        self._memory_budget = memory_budget_bytes
        self._latency_budget = float(latency_budget_seconds)
        self._max_concurrent = int(max_concurrent)
        self._max_queue = int(max_queue)
        # Created lazily inside the running loop: asyncio primitives bind
        # to the loop they are first awaited on.
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._counter_lock = threading.Lock()
        self._waiting = 0
        self._active = 0
        self._admitted = 0
        self._queued = 0
        self._rejected_budget = 0
        self._rejected_saturated = 0

    # ------------------------------------------------------------------
    # budget admission
    # ------------------------------------------------------------------
    def check_budget(self, dataset: Dataset) -> None:
        """Reject ``dataset`` when its packed index projects over budget.

        Raises :class:`AdmissionError` with the projections in ``detail``.
        """
        budget = self._memory_budget
        if budget is None:
            budget = default_memory_budget()
        projected = projected_index_bytes(dataset)
        if projected > budget:
            with self._counter_lock:
                self._rejected_budget += 1
            raise AdmissionError(
                "over_budget",
                f"packed index projects {projected} resident bytes, "
                f"over the {budget}-byte serving budget",
                status=413,
                detail={
                    "projected_bytes": int(projected),
                    "budget_bytes": int(budget),
                    "backend": CoverageEngine.name,
                },
            )
        scan_seconds = projected / PACKED_SCAN_BYTES_PER_SECOND
        if scan_seconds > self._latency_budget:
            with self._counter_lock:
                self._rejected_budget += 1
            raise AdmissionError(
                "over_latency",
                f"packed index projects {scan_seconds * 1000:.1f} ms per "
                f"index scan, over the {self._latency_budget * 1000:.1f} ms "
                f"serving latency budget",
                status=413,
                detail={
                    "projected_scan_ms": scan_seconds * 1000,
                    "latency_budget_ms": self._latency_budget * 1000,
                    "backend": CoverageEngine.name,
                },
            )

    # ------------------------------------------------------------------
    # concurrency admission
    # ------------------------------------------------------------------
    @contextlib.asynccontextmanager
    async def heavy(self):
        """Bounded slot for a heavy request: admit, queue, or reject."""
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self._max_concurrent)
        semaphore = self._semaphore
        queued = semaphore.locked()
        if queued:
            with self._counter_lock:
                if self._waiting >= self._max_queue:
                    self._rejected_saturated += 1
                    raise AdmissionError(
                        "saturated",
                        f"{self._max_concurrent} heavy requests running and "
                        f"{self._waiting} queued (max {self._max_queue}); "
                        f"retry later",
                        status=429,
                        detail={
                            "max_concurrent": self._max_concurrent,
                            "max_queue": self._max_queue,
                        },
                    )
                self._waiting += 1
                self._queued += 1
        try:
            await semaphore.acquire()
        finally:
            if queued:
                with self._counter_lock:
                    self._waiting -= 1
        with self._counter_lock:
            self._admitted += 1
            self._active += 1
        try:
            yield
        finally:
            with self._counter_lock:
                self._active -= 1
            semaphore.release()

    def info(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "max_concurrent": self._max_concurrent,
                "max_queue": self._max_queue,
                "active": self._active,
                "waiting": self._waiting,
                "admitted": self._admitted,
                "queued": self._queued,
                "rejected_over_budget": self._rejected_budget,
                "rejected_saturated": self._rejected_saturated,
                "memory_budget_bytes": self._memory_budget,
                "latency_budget_ms": self._latency_budget * 1000,
            }
