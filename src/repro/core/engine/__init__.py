"""Pluggable coverage engines (Appendix A behind one interface).

Importing this package registers the one backend, ``"packed"``
(:class:`~repro.core.engine.packed.PackedBitsetEngine`).  Anywhere an
``engine=`` argument or the CLI ``--engine`` flag is accepted, callers
may name it, pass a declarative
:class:`~repro.core.engine.config.EngineConfig`, or pass ``"auto"`` to
let the planner (:mod:`repro.core.engine.planner`) choose; the planner
picks ``packed`` and reports the index projections it decided on.
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
from repro.core.engine.packed import PackedBitsetEngine
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
    "EngineSpec",
    "engine_name",
    "register_engine",
    "resolve_engine",
]
