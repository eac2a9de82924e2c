"""Pluggable coverage engines (Appendix A behind one interface).

Importing this package registers both backends; select one by name
(``"packed"`` / ``"sharded"``) — or pass a declarative
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
    EnginePlan,
    WorkloadStats,
    available_memory_bytes,
    plan_engine,
    set_available_memory_bytes,
)

__all__ = [
    "CoverageEngine",
    "PackedBitsetEngine",
    "ShardedEngine",
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
