"""Declarative serving configuration: every ``repro serve`` knob in one object.

A frozen, validated dataclass the CLI, tests, and the benchmark harness
all construct the server from, so cross-field rules live in one place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import ServeError

#: Default coalescing window: long enough to collect a concurrent burst,
#: short enough to be invisible next to network latency.
DEFAULT_BATCH_WINDOW_MS = 2.0

#: Default byte budget for warm engines held by the registry.
DEFAULT_REGISTRY_BYTES = 256 << 20


@dataclass(frozen=True)
class ServeConfig:
    """A complete description of one serving process.

    Attributes:
        host: interface the HTTP listener binds.
        port: TCP port (0 lets the OS pick; tests and benchmarks use it).
        batch_window_ms: coalescing window for point coverage queries —
            requests arriving within it merge into one ``coverage_many``
            call; ``0`` disables batching and deduplication entirely (every
            request runs its own engine query).
        max_batch: flush a batch early once this many distinct patterns
            are pending (bounds worst-case batch latency and memory).
        registry_max_entries: warm engines kept in the registry before LRU
            eviction.
        registry_max_bytes: total index bytes the registry may keep warm.
        memory_budget_bytes: admission-control memory budget — requests
            whose packed index projects more resident bytes are rejected
            with a structured error.  ``None`` means half the available
            memory, probed once per process.
        latency_budget_ms: admission-control latency budget — requests
            whose projected single-scan time exceeds it are rejected.
        max_concurrent: heavy requests (identify / enhance / deliver /
            dataset registration) running at once; further ones queue.
        max_queue: heavy requests allowed to wait; beyond it requests are
            rejected as saturated instead of queueing unboundedly.
        result_cache_size: entries in the cross-request result cache
            (``0`` disables it).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS
    max_batch: int = 1024
    registry_max_entries: int = 8
    registry_max_bytes: int = DEFAULT_REGISTRY_BYTES
    memory_budget_bytes: Optional[int] = None
    latency_budget_ms: float = 250.0
    max_concurrent: int = 8
    max_queue: int = 64
    result_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ServeError(
                "bad_config",
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}",
            )
        if self.max_batch < 1:
            raise ServeError(
                "bad_config", f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.registry_max_entries < 1:
            raise ServeError(
                "bad_config",
                f"registry_max_entries must be >= 1, "
                f"got {self.registry_max_entries}",
            )
        if self.registry_max_bytes < 1:
            raise ServeError(
                "bad_config",
                f"registry_max_bytes must be >= 1, got {self.registry_max_bytes}",
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ServeError(
                "bad_config",
                f"memory_budget_bytes must be >= 1, "
                f"got {self.memory_budget_bytes}",
            )
        if self.latency_budget_ms <= 0:
            raise ServeError(
                "bad_config",
                f"latency_budget_ms must be > 0, got {self.latency_budget_ms}",
            )
        if self.max_concurrent < 1:
            raise ServeError(
                "bad_config",
                f"max_concurrent must be >= 1, got {self.max_concurrent}",
            )
        if self.max_queue < 0:
            raise ServeError(
                "bad_config", f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.result_cache_size < 0:
            raise ServeError(
                "bad_config",
                f"result_cache_size must be >= 0, got {self.result_cache_size}",
            )

    @property
    def batch_window_seconds(self) -> float:
        return self.batch_window_ms / 1000.0

    @classmethod
    def from_cli_args(cls, args: Any) -> "ServeConfig":
        """Lift an ``argparse`` namespace into a config."""
        defaults = cls()
        return cls(
            host=getattr(args, "host", None) or defaults.host,
            port=_or_default(args, "port", defaults.port),
            batch_window_ms=_or_default(
                args, "batch_window_ms", defaults.batch_window_ms
            ),
            max_batch=_or_default(args, "max_batch", defaults.max_batch),
            registry_max_entries=_or_default(
                args, "registry_entries", defaults.registry_max_entries
            ),
            registry_max_bytes=_or_default(
                args, "registry_bytes", defaults.registry_max_bytes
            ),
            memory_budget_bytes=getattr(args, "memory_budget_bytes", None),
            latency_budget_ms=_or_default(
                args, "latency_budget_ms", defaults.latency_budget_ms
            ),
            max_concurrent=_or_default(
                args, "max_concurrent", defaults.max_concurrent
            ),
            max_queue=_or_default(args, "max_queue", defaults.max_queue),
            result_cache_size=_or_default(
                args, "result_cache", defaults.result_cache_size
            ),
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (surfaced by the ``/stats`` endpoint)."""
        return dataclasses.asdict(self)


def _or_default(args: Any, name: str, default):
    value = getattr(args, name, None)
    return default if value is None else value
