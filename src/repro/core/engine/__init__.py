"""Pluggable coverage engines (Appendix A behind one interface).

Importing this package registers every backend; select one by name
(``"dense"`` / ``"packed"`` / ``"sharded"`` / ``"compressed"``) — or pass
a declarative
:class:`~repro.core.engine.config.EngineConfig`, or the name ``"auto"``
to let the workload-aware planner (:mod:`repro.core.engine.planner`)
choose — anywhere an ``engine=`` argument or the CLI ``--engine`` flag is
accepted.  The sharded backend spills its shards (under ``spill_dir=``
or the default spill root, within ``max_resident_bytes=``) to an
mmap-backed :class:`~repro.core.engine.mmapped.MmapShardStore` and fans
shard kernels out to socket workers (``workers=`` /
``worker_endpoints=``) or evaluates them serially.
"""

from repro.core.engine.base import (
    DEFAULT_ENGINE,
    DEFAULT_MASK_CACHE,
    ENGINES,
    CoverageEngine,
    EngineSpec,
    engine_name,
    register_engine,
    resolve_engine,
)
from repro.core.engine.compressed import (
    CHUNK_BITS,
    DEFAULT_ARRAY_CUTOFF,
    DEFAULT_RUN_CUTOFF,
    CompressedBitmap,
    CompressedEngine,
)
from repro.core.engine.dense import DenseBoolEngine
from repro.core.engine.distributed import (
    PROTOCOL_VERSION,
    DistributedPool,
    WorkerDied,
    serve_worker,
)
from repro.core.engine.mmapped import (
    MANIFEST_FORMAT,
    MANIFEST_FORMAT_V1,
    DeltaWriteResult,
    MmapShardStore,
    ShardStoreWriter,
    load_spill_dataset,
    shard_slice_fingerprint,
)
from repro.core.engine.packed import PackedBitsetEngine
from repro.core.engine.sharded import DEFAULT_SHARDS, ShardedEngine
from repro.core.engine.config import AUTO, BUILTIN_BACKENDS, EngineConfig
from repro.core.engine.planner import (
    QUERY_SHAPES,
    EnginePlan,
    WorkloadStats,
    available_memory_bytes,
    invalidate_stats_cache,
    plan_engine,
    set_available_memory_bytes,
    stats_cache_info,
)

__all__ = [
    "CoverageEngine",
    "DenseBoolEngine",
    "PackedBitsetEngine",
    "ShardedEngine",
    "CompressedEngine",
    "CompressedBitmap",
    "CHUNK_BITS",
    "DEFAULT_ARRAY_CUTOFF",
    "DEFAULT_RUN_CUTOFF",
    "MmapShardStore",
    "ShardStoreWriter",
    "DeltaWriteResult",
    "load_spill_dataset",
    "shard_slice_fingerprint",
    "MANIFEST_FORMAT",
    "MANIFEST_FORMAT_V1",
    "DistributedPool",
    "WorkerDied",
    "serve_worker",
    "PROTOCOL_VERSION",
    "EngineConfig",
    "EnginePlan",
    "WorkloadStats",
    "plan_engine",
    "available_memory_bytes",
    "set_available_memory_bytes",
    "stats_cache_info",
    "invalidate_stats_cache",
    "QUERY_SHAPES",
    "AUTO",
    "BUILTIN_BACKENDS",
    "ENGINES",
    "DEFAULT_ENGINE",
    "DEFAULT_MASK_CACHE",
    "DEFAULT_SHARDS",
    "EngineSpec",
    "engine_name",
    "register_engine",
    "resolve_engine",
]
