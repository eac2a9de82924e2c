"""Declarative engine configuration: every backend knob in one object.

Before this module, the engine knobs (backend name, shard count, worker
pool, spill directory, resident budget, mask-cache capacity) travelled as
loose keyword arguments duplicated across the oracle, the five MUP
algorithms, enhancement, the incremental index, and the CLI — and each
call site re-implemented (or forgot) the cross-field validity checks.
:class:`EngineConfig` collapses that sprawl into one frozen, validated,
serializable dataclass:

* **one vocabulary** — a config names the backend (``"dense"`` /
  ``"packed"`` / ``"sharded"``, or ``"auto"`` for the workload-aware
  planner in :mod:`repro.core.engine.planner`) and carries every option a
  built-in backend accepts; unset options (``None``) defer to the
  backend's own defaults;
* **one validator** — :meth:`validate` holds the cross-field rules the
  CLI used to hand-roll (sharded-only flags, value ranges, worker
  endpoints), so programmatic callers get the same clear
  :class:`~repro.exceptions.EngineError` messages as ``--engine`` users;
* **one serialization** — ``to_dict`` / ``from_dict`` round-trip losslessly
  (manifests, benchmark payloads) and :meth:`from_cli_args` lifts an
  ``argparse`` namespace straight into a validated config.

A config is also a **dataset-free engine factory**: calling it with a
dataset builds the configured engine, which is exactly the contract
:meth:`~repro.core.engine.base.CoverageEngine.template` promises — engine
templates now *are* ``EngineConfig`` instances for the registered
backends.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.engine.base import DEFAULT_ENGINE, ENGINES, CoverageEngine
from repro.core.engine.distributed import parse_endpoint
from repro.exceptions import EngineError

#: Pseudo-backend name: let the planner choose the real backend.
AUTO = "auto"

#: Backend names whose constructor options EngineConfig fully describes.
#: (Custom registered backends keep their own kwargs and bypass the
#: config-level option validation.)
BUILTIN_BACKENDS = (AUTO, "dense", "packed", "sharded")

#: Options that only the sharded backend (or the auto planner) consumes.
_SHARDED_ONLY = (
    "shards",
    "workers",
    "spill_dir",
    "max_resident_bytes",
    "worker_endpoints",
    "delta_spill",
)


@dataclass(frozen=True)
class EngineConfig:
    """A complete, validated description of one engine configuration.

    Attributes:
        backend: registry name of the backend, or ``"auto"`` to let the
            workload-aware planner choose one.
        shards: shard count (sharded backend; planner hint under auto).
        workers: spawn-local socket workers for shard fan-out; ``>= 2``
            fans out, anything else evaluates shards serially.
        spill_dir: spill root of the sharded backend (unset: the default
            spill root).
        max_resident_bytes: resident byte budget.  With ``backend="sharded"``
            this is the mmap loader's LRU budget; with ``backend="auto"`` it
            is the planner's **memory budget** — the planner escalates to
            the sharded backend when the projected packed index exceeds it.
        mask_cache_size: hot-mask LRU capacity (``None`` = backend default,
            ``0`` disables caching).
        worker_endpoints: ``host:port`` addresses of standing shard
            workers; unset, ``workers >= 2`` spawns local workers.
        delta_spill: let rebuilds over appended data reuse the previous
            spill directory via delta writes.

    Every field except ``backend`` defaults to ``None`` (= "backend
    default"); construction validates the combination and raises
    :class:`EngineError` on contradictions.
    """

    backend: str = DEFAULT_ENGINE
    shards: Optional[int] = None
    workers: Optional[int] = None
    spill_dir: Optional[str] = None
    max_resident_bytes: Optional[int] = None
    mask_cache_size: Optional[int] = None
    worker_endpoints: Optional[Tuple[str, ...]] = None
    delta_spill: Optional[bool] = None

    def __post_init__(self) -> None:
        # Normalize numerics up front so equality / round-trips are exact.
        for name in (
            "shards",
            "workers",
            "max_resident_bytes",
            "mask_cache_size",
        ):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))
        if self.spill_dir is not None:
            object.__setattr__(self, "spill_dir", os.fspath(self.spill_dir))
        if self.worker_endpoints is not None:
            object.__setattr__(
                self,
                "worker_endpoints",
                tuple(str(endpoint) for endpoint in self.worker_endpoints),
            )
        if self.delta_spill is not None:
            object.__setattr__(self, "delta_spill", bool(self.delta_spill))
        self.validate()

    # ------------------------------------------------------------------
    # validation (the single source of the cross-field rules)
    # ------------------------------------------------------------------
    @property
    def is_auto(self) -> bool:
        """True when the planner, not the caller, picks the backend."""
        return self.backend == AUTO

    def validate(self) -> None:
        """Check the configuration's cross-field validity.

        Raises :class:`EngineError` with the same messages for every
        caller — CLI flags, programmatic configs, deserialized dicts.
        """
        known = sorted(set(ENGINES) | {AUTO})
        if not isinstance(self.backend, str) or self.backend not in known:
            raise EngineError(
                f"unknown coverage engine {self.backend!r}; available: {known}"
            )
        if self.backend not in (AUTO, "sharded"):
            offending = [
                name for name in _SHARDED_ONLY if getattr(self, name) is not None
            ]
            if offending:
                raise EngineError(
                    f"{'/'.join(offending)} only apply to the sharded backend "
                    f"(--engine sharded) or the auto planner (--engine auto), "
                    f"not {self.backend!r}"
                )
        if self.shards is not None and self.shards < 1:
            raise EngineError(f"shard count must be >= 1, got {self.shards}")
        if self.workers is not None and self.workers < 1:
            raise EngineError(f"worker count must be >= 1, got {self.workers}")
        if self.mask_cache_size is not None and self.mask_cache_size < 0:
            raise EngineError(
                f"mask_cache_size must be >= 0, got {self.mask_cache_size}"
            )
        if self.max_resident_bytes is not None and self.max_resident_bytes < 1:
            raise EngineError(
                f"max_resident_bytes must be >= 1, got {self.max_resident_bytes}"
            )
        if self.worker_endpoints is not None:
            if not self.worker_endpoints:
                raise EngineError(
                    "worker_endpoints must list at least one host:port "
                    "address (or be unset for spawn-local workers)"
                )
            for endpoint in self.worker_endpoints:
                parse_endpoint(endpoint)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_options(cls, backend: str, **options: Any) -> "EngineConfig":
        """Build a config from a backend name plus constructor-style kwargs.

        Engine constructors and templates validate through this; unknown
        option names raise a clear :class:`EngineError` instead of a
        constructor ``TypeError``.
        """
        field_names = {f.name for f in dataclasses.fields(cls)} - {"backend"}
        unknown = sorted(set(options) - field_names)
        if unknown:
            raise EngineError(
                f"unknown engine option(s) {unknown} for backend {backend!r}; "
                f"known options: {sorted(field_names)}"
            )
        return cls(backend=backend, **options)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "EngineConfig":
        """Deserialize a :meth:`to_dict` payload (strict: unknown keys fail)."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - field_names)
        if unknown:
            raise EngineError(
                f"unknown EngineConfig field(s) {unknown}; "
                f"known fields: {sorted(field_names)}"
            )
        return cls(**dict(mapping))

    @classmethod
    def from_cli_args(cls, args: Any) -> "EngineConfig":
        """Lift an ``argparse`` namespace into a validated config.

        Reads the CLI's engine flags (``--engine --shards --workers
        --spill-dir --max-resident-bytes`` …); absent attributes count as
        unset, so partial namespaces (tests, embedders) work too.
        """
        return cls(
            backend=getattr(args, "engine", None) or AUTO,
            shards=getattr(args, "shards", None),
            workers=getattr(args, "workers", None),
            spill_dir=getattr(args, "spill_dir", None),
            max_resident_bytes=getattr(args, "max_resident_bytes", None),
            mask_cache_size=getattr(args, "mask_cache_size", None),
            worker_endpoints=getattr(args, "worker_endpoints", None),
            delta_spill=getattr(args, "delta_spill", None),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The config as a JSON-serializable dict (full field set)."""
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """Compact one-line rendering (set fields only)."""
        parts = [f"backend={self.backend}"]
        for field in dataclasses.fields(self):
            if field.name == "backend":
                continue
            value = getattr(self, field.name)
            if value is not None:
                parts.append(f"{field.name}={value}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # engine construction
    # ------------------------------------------------------------------
    def engine_options(self) -> Dict[str, Any]:
        """Constructor kwargs for the configured backend (set fields only).

        ``None`` fields are omitted so the backend's own defaults apply;
        non-sharded backends only ever receive ``mask_cache_size`` (the
        validator already rejected anything else).
        """
        options: Dict[str, Any] = {}
        if self.mask_cache_size is not None:
            options["mask_cache_size"] = self.mask_cache_size
        if self.backend == "sharded":
            for name in _SHARDED_ONLY:
                value = getattr(self, name)
                if value is not None:
                    options[name] = value
        return options

    def __call__(self, dataset: Any, **overrides: Any) -> "CoverageEngine":
        """Build the configured engine for ``dataset``.

        This makes a config a drop-in dataset-free factory — the contract
        of :meth:`~repro.core.engine.base.CoverageEngine.template` —
        so ``engine.template()(new_dataset)`` keeps working now that
        templates are configs.  ``overrides`` replace fields by name.
        """
        from repro.core.engine.base import resolve_engine

        config = dataclasses.replace(self, **overrides) if overrides else self
        return resolve_engine(config, dataset)
