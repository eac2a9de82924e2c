"""Admission control driven by the planner's index projections.

Two gates stand in front of the engines:

* **Budget admission** — before a dataset is registered (or a heavy query
  planned), :func:`~repro.core.engine.planner.plan_engine` projects the
  resident index bytes and single-scan latency of the engine it would
  build.  A projection over the configured memory budget or over the
  latency budget is rejected up front (HTTP 413) with a structured error
  carrying the projections — the client learns *why* and by how much,
  instead of timing out against a thrashing server.
* **Concurrency admission** — heavy requests (identify / enhance /
  deliver / registration) pass through a bounded semaphore: up to
  ``max_concurrent`` run, up to ``max_queue`` wait, and beyond that the
  request is rejected as ``saturated`` rather than queueing unboundedly.
  Point coverage lookups skip this gate — they ride the batcher.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Dict, Optional

from repro.core.engine.config import EngineConfig
from repro.core.engine.planner import EnginePlan, plan_engine
from repro.data.dataset import Dataset
from repro.exceptions import AdmissionError

#: Effective scan throughput of the fused packed kernels (bytes/second),
#: set conservatively so slower machines still reject in time.
PACKED_SCAN_BYTES_PER_SECOND = 4 << 30


def _projected_resident_bytes(plan: EnginePlan) -> int:
    """Resident index bytes the planned ``packed`` engine would hold."""
    return plan.stats.projected_packed_bytes


def _projected_scan_seconds(plan: EnginePlan) -> float:
    """One full-index scan under the calibrated throughput model."""
    return _projected_resident_bytes(plan) / PACKED_SCAN_BYTES_PER_SECOND


class AdmissionController:
    """Decides, per request, between admit, queue, and structured reject."""

    def __init__(
        self,
        engine: EngineConfig,
        memory_budget_bytes: Optional[int],
        latency_budget_seconds: float,
        max_concurrent: int,
        max_queue: int,
    ) -> None:
        self._engine = engine
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
    def check_budget(self, dataset: Dataset) -> EnginePlan:
        """Plan ``dataset`` and reject projections over budget.

        Returns the plan (the caller reuses it for rationale reporting) or
        raises :class:`AdmissionError` with the projections in ``detail``.
        """
        plan = plan_engine(dataset, self._engine)
        budget = self._memory_budget
        if budget is None:
            budget = plan.stats.memory_budget_bytes
        projected = _projected_resident_bytes(plan)
        if projected > budget:
            with self._counter_lock:
                self._rejected_budget += 1
            raise AdmissionError(
                "over_budget",
                f"planned engine projects {projected} resident index bytes, "
                f"over the {budget}-byte serving budget",
                status=413,
                detail={
                    "projected_bytes": int(projected),
                    "budget_bytes": int(budget),
                    "backend": plan.config.backend,
                },
            )
        scan_seconds = _projected_scan_seconds(plan)
        if scan_seconds > self._latency_budget:
            with self._counter_lock:
                self._rejected_budget += 1
            raise AdmissionError(
                "over_latency",
                f"planned engine projects {scan_seconds * 1000:.1f} ms per "
                f"index scan, over the {self._latency_budget * 1000:.1f} ms "
                f"serving latency budget",
                status=413,
                detail={
                    "projected_scan_ms": scan_seconds * 1000,
                    "latency_budget_ms": self._latency_budget * 1000,
                    "backend": plan.config.backend,
                },
            )
        return plan

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
