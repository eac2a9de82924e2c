"""Coverage-as-a-service: a persistent async serving layer.

The one-shot CLI pays the full index-build cost on every invocation; this
package keeps engines warm and serves the paper's three operations —
``identify`` (MUPs), ``label`` (coverage of posted patterns) and
``enhance`` (acquisition plans) — over HTTP/JSON, plus ``deliver`` for
incremental row deliveries with snapshot isolation.

Pieces (each its own module):

* :mod:`~repro.serve.registry` — warm-engine LRU registry + snapshots
* :mod:`~repro.serve.batcher` — request coalescing onto ``coverage_many``
* :mod:`~repro.serve.admission` — index-size budget + concurrency gates
* :mod:`~repro.serve.cache` — cross-request result cache
* :mod:`~repro.serve.service` — the facade the HTTP layer dispatches into
* :mod:`~repro.serve.http` — stdlib-only HTTP/1.1 JSON transport
"""

from repro.serve.admission import AdmissionController
from repro.serve.batcher import CoverageBatcher
from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.http import BackgroundServer, HttpServer, run_server
from repro.serve.registry import DatasetEntry, EngineRegistry, Snapshot
from repro.serve.service import CoverageService

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "CoverageBatcher",
    "CoverageService",
    "DatasetEntry",
    "EngineRegistry",
    "HttpServer",
    "ResultCache",
    "ServeConfig",
    "Snapshot",
    "run_server",
]
