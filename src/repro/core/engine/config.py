"""Declarative engine configuration: every engine knob in one object.

:class:`EngineConfig` is a frozen, validated, serializable dataclass that
the oracle, the MUP algorithms, enhancement, the incremental index, the
CLI and the serving layer all accept:

* **one vocabulary** — a config names the backend (``"packed"``, or
  ``"auto"`` for the planner in :mod:`repro.core.engine.planner`) and
  the hot-mask cache capacity; an unset option (``None``) defers to the
  backend's own default;
* **one validator** — :meth:`validate` raises the same clear
  :class:`~repro.exceptions.EngineError` for programmatic configs,
  deserialized dicts and ``--engine`` users;
* **one serialization** — ``to_dict`` / ``from_dict`` round-trip losslessly
  and :meth:`from_cli_args` lifts an ``argparse`` namespace straight into
  a validated config.

A config is also a **dataset-free engine factory**: calling it with a
dataset builds the configured engine, which is exactly the contract
:meth:`~repro.core.engine.base.CoverageEngine.template` promises — engine
templates *are* ``EngineConfig`` instances for the registered backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.engine.base import DEFAULT_ENGINE, ENGINES, CoverageEngine
from repro.exceptions import EngineError

#: Pseudo-backend name: let the planner choose the real backend.
AUTO = "auto"

#: Backend names whose constructor options EngineConfig fully describes.
#: (Custom registered backends keep their own kwargs and bypass the
#: config-level option validation.)
BUILTIN_BACKENDS = (AUTO, "packed")


@dataclass(frozen=True)
class EngineConfig:
    """A complete, validated description of one engine configuration.

    Attributes:
        backend: registry name of the backend, or ``"auto"`` to let the
            planner choose one.
        mask_cache_size: hot-mask LRU capacity (``None`` = backend default,
            ``0`` disables caching).

    Construction validates the combination and raises
    :class:`EngineError` on an unknown backend or a negative capacity.
    """

    backend: str = DEFAULT_ENGINE
    mask_cache_size: Optional[int] = None

    def __post_init__(self) -> None:
        # Normalize up front so equality / round-trips are exact.
        if self.mask_cache_size is not None:
            object.__setattr__(self, "mask_cache_size", int(self.mask_cache_size))
        self.validate()

    # ------------------------------------------------------------------
    # validation (the single source of the rules)
    # ------------------------------------------------------------------
    @property
    def is_auto(self) -> bool:
        """True when the planner, not the caller, picks the backend."""
        return self.backend == AUTO

    def validate(self) -> None:
        """Check the configuration's validity.

        Raises :class:`EngineError` with the same messages for every
        caller — CLI flags, programmatic configs, deserialized dicts.
        """
        known = sorted(set(ENGINES) | {AUTO})
        if not isinstance(self.backend, str) or self.backend not in known:
            raise EngineError(
                f"unknown coverage engine {self.backend!r}; available: {known}"
            )
        if self.mask_cache_size is not None and self.mask_cache_size < 0:
            raise EngineError(
                f"mask_cache_size must be >= 0, got {self.mask_cache_size}"
            )

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

        Reads ``--engine`` (and a ``mask_cache_size`` attribute when one is
        set); absent attributes count as unset, so partial namespaces
        (tests, embedders) work too.
        """
        return cls(
            backend=getattr(args, "engine", None) or AUTO,
            mask_cache_size=getattr(args, "mask_cache_size", None),
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

        ``None`` fields are omitted so the backend's own defaults apply.
        """
        if self.mask_cache_size is None:
            return {}
        return {"mask_cache_size": self.mask_cache_size}

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
