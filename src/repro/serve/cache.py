"""Cross-request result cache for the serving layer.

The serving layer's one cache: it saves the whole request — coverage
counts, MUP sets, enhancement plans — across clients, and the batcher's
in-flight deduplication catches repeats that arrive before the first
answer is cached.  Keys embed the snapshot's content fingerprint, so a
delivery naturally orphans every stale entry (the new snapshot has a new
fingerprint); :meth:`invalidate` reclaims the orphans' space eagerly
instead of waiting for LRU churn.

Thread-safe: requests resolve cache hits on the event loop while heavy
work (and the benchmark harness) probes it from worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

#: Cache keys are ``(kind, fingerprint, *request)`` tuples.
Key = Tuple[Hashable, ...]

_MISSING = object()


class ResultCache:
    """A bounded, thread-safe LRU mapping request keys to responses."""

    def __init__(self, max_entries: int) -> None:
        self._max_entries = max(0, int(max_entries))
        self._entries: "OrderedDict[Key, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self._max_entries > 0

    def get(self, key: Key, default: Any = None) -> Any:
        if not self._max_entries:
            return default
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: Key, value: Any) -> None:
        if not self._max_entries:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed under ``fingerprint``; returns the count."""
        with self._lock:
            stale = [k for k in self._entries if k[1] == fingerprint]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def info(self) -> Dict[str, float]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hit_rate": (self._hits / total) if total else 0.0,
            }
