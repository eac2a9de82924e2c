"""The pluggable coverage-engine abstraction.

Appendix A reduces every coverage query to bitwise AND / population count
over per-attribute-value membership vectors.  A :class:`CoverageEngine`
owns those vectors for one dataset and answers three families of queries:

* **point** — ``match_mask`` / ``coverage`` for a single pattern;
* **incremental** — ``restrict`` one step down the pattern graph, reusing
  a parent's match mask;
* **batched** — ``count_many`` / ``coverage_many`` / ``restrict_children``
  answer a whole pattern-graph frontier in one vectorized pass, and
  ``restrict_children_many`` expands a whole level's sibling families at
  one attribute.

Masks are engine-specific opaque handles: callers obtain them from the
engine (``full_mask``, ``match_mask``, ``restrict``…), hand them back to
the engine, and never inspect them directly (``mask_to_bool`` converts
when row identities are needed).  Three backends are registered:

* ``dense`` — :class:`~repro.core.engine.dense.DenseBoolEngine`, unpacked
  boolean ndarrays (the reference/ablation baseline);
* ``packed`` — :class:`~repro.core.engine.packed.PackedBitsetEngine`,
  ``uint64`` word arrays with word-level popcount (8× smaller index,
  word-at-a-time ANDs);
* ``sharded`` — :class:`~repro.core.engine.sharded.ShardedEngine`, the
  packed index partitioned row-wise into K shards that live in an
  mmap-backed spill directory
  (:class:`~repro.core.engine.mmapped.MmapShardStore`) behind a
  byte-budgeted LRU loader; per-shard kernels run serially or on socket
  shard workers attached to those files by path, reduced in shard order.

The base class also layers a **hot-mask LRU cache** over ``match_mask``:
repeated frontier evaluations (PATTERN-BREAKER re-visits, enhancement
greedy's repeated target queries, incremental re-runs) hit the cache
instead of re-ANDing the index.  Masks handed out are private copies, so
callers may mutate them freely; ``cache_info`` exposes hit/miss counters
for the benchmarks.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import PatternError, ReproError

#: A mask is whatever the engine hands out; callers treat it as opaque.
Mask = Any

#: Registry of engine backends, keyed by their ``name``.
ENGINES: Dict[str, Type["CoverageEngine"]] = {}

#: Registry key used when no engine is specified.
DEFAULT_ENGINE = "dense"

#: Default capacity of the per-engine hot-mask LRU cache (0 disables it).
DEFAULT_MASK_CACHE = 1024

#: Byte budget for cached masks: the entry cap alone would let a dense
#: cache dwarf the index it fronts on wide datasets, so eviction also
#: keeps total cached mask bytes under this ceiling.
DEFAULT_MASK_CACHE_BYTES = 32 << 20

#: Most child-mask bytes one ``restrict_children_many`` pass builds.  The
#: array backends split a level into passes under this cap, so no block
#: (and no shard-worker frame) grows with the level's width.
CHILDREN_PASS_BYTES = 64 << 20


def children_passes(count: int, family_nbytes: int) -> Iterator[slice]:
    """Slices of a ``count``-long mask list for ``restrict_children_many``.

    ``family_nbytes`` is the size of one mask's sibling family; each slice
    builds at most :data:`CHILDREN_PASS_BYTES` of children (at least one
    family).
    """
    step = max(1, CHILDREN_PASS_BYTES // max(1, family_nbytes))
    for start in range(0, count, step):
        yield slice(start, start + step)


def register_engine(cls: Type["CoverageEngine"]) -> Type["CoverageEngine"]:
    """Class decorator registering an engine backend under ``cls.name``."""
    ENGINES[cls.name] = cls
    return cls


class CoverageEngine(ABC):
    """Answers coverage queries over one dataset's membership vectors.

    Subclasses build their inverted index over the dataset's *unique* value
    combinations (Appendix A aggregates duplicate tuples away) and choose
    the mask representation; the shared logic here handles pattern
    validation and the generic batched-coverage composition.
    """

    #: Registry key of the backend (set by subclasses).
    name: str = ""

    def __init__(
        self,
        dataset: Dataset,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
    ) -> None:
        self._dataset = dataset
        unique, counts = dataset.unique_rows()
        self._unique = unique
        self._counts = counts
        self._mask_cache: "OrderedDict[Tuple[int, ...], Mask]" = OrderedDict()
        self._mask_cache_size = max(0, int(mask_cache_size))
        self._mask_cache_nbytes = 0
        # Serializes every cache mutation: the serving layer answers
        # concurrent requests on one warm engine, and unsynchronized
        # insert/evict corrupts the byte accounting (and can evict the
        # entry just handed out mid-copy).  match_mask keeps a lock-free
        # fast path when caching is disabled.
        self._mask_cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # shared accessors
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def total(self) -> int:
        """Coverage of the root pattern = number of tuples ``n``."""
        return self._dataset.n

    @property
    def unique_count(self) -> int:
        """Number of distinct value combinations present in the data."""
        return len(self._unique)

    @property
    def unique_rows(self) -> np.ndarray:
        """The distinct value combinations the masks range over."""
        return self._unique

    def _check_pattern(self, pattern: Pattern) -> None:
        if len(pattern) != self._dataset.d:
            raise PatternError(
                f"pattern of length {len(pattern)} against d={self._dataset.d}"
            )
        for index in pattern.deterministic_indices():
            value = pattern[index]
            if not 0 <= value < self._dataset.cardinalities[index]:
                raise PatternError(
                    f"pattern {pattern} has out-of-range value {value} "
                    f"at attribute {index}"
                )

    # ------------------------------------------------------------------
    # abstract mask kernel
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def index_nbytes(self) -> int:
        """Bytes held by the inverted index (for memory accounting)."""

    @abstractmethod
    def full_mask(self) -> Mask:
        """Mask matching every unique combination (the root pattern)."""

    @abstractmethod
    def value_mask(self, attribute: int, value: int) -> Mask:
        """Inverted-index vector for ``attribute == value`` (do not mutate)."""

    @abstractmethod
    def restrict(self, mask: Mask, attribute: int, value: int) -> Mask:
        """``mask AND (attribute == value)`` — one child step down the graph."""

    @abstractmethod
    def restrict_children(self, mask: Mask, attribute: int) -> List[Mask]:
        """All of ``mask AND (attribute == v)`` in one vectorized pass.

        Returns one child mask per value of ``attribute``, in value order —
        the sibling family a traversal expands when it specializes one
        ``X`` element.
        """

    def restrict_children_many(
        self, masks: Sequence[Mask], attribute: int
    ) -> List[Mask]:
        """The sibling families of many masks at one attribute.

        Returns a flat, mask-major list: the ``c`` children of
        ``masks[0]`` in value order, then those of ``masks[1]``, and so
        on.  A level-wise traversal expands a whole level with one call
        per attribute instead of one :meth:`restrict_children` call per
        node.  This default loops :meth:`restrict_children`; the array
        backends override it with one batched AND per
        :func:`children_passes` slice.
        """
        children: List[Mask] = []
        for mask in masks:
            children.extend(self.restrict_children(mask, attribute))
        return children

    @abstractmethod
    def count(self, mask: Mask) -> int:
        """Total multiplicity of the combinations selected by ``mask``."""

    @abstractmethod
    def count_many(self, masks: Sequence[Mask]) -> np.ndarray:
        """Coverage of a whole frontier of masks in one vectorized pass."""

    @abstractmethod
    def mask_to_bool(self, mask: Mask) -> np.ndarray:
        """The mask as a boolean array over the unique combinations."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-held resources (worker pools, spill files…).

        A no-op for in-memory backends; the sharded engine overrides it.
        Consumers that rebuild engines (e.g. the incremental index) close
        the old one so spill directories and pools are reclaimed promptly
        instead of waiting for garbage collection.
        """

    def __enter__(self) -> "CoverageEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # mask copying (cache safety)
    # ------------------------------------------------------------------
    def copy_mask(self, mask: Mask) -> Mask:
        """A private copy of ``mask`` the caller may mutate.

        ``ndarray`` masks expose ``copy``; backends with composite handles
        override this.
        """
        return mask.copy()

    # ------------------------------------------------------------------
    # hot-mask LRU cache
    # ------------------------------------------------------------------
    @property
    def mask_cache_size(self) -> int:
        """Capacity of the hot-mask cache (0 = caching disabled)."""
        return self._mask_cache_size

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters and occupancy of the hot-mask cache.

        Counter values are ints; ``hit_rate`` is a float in ``[0, 1]``.
        """
        with self._mask_cache_lock:
            total = self.cache_hits + self.cache_misses
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "entries": len(self._mask_cache),
                "nbytes": self._mask_cache_nbytes,
                "max_size": self._mask_cache_size,
                "hit_rate": (self.cache_hits / total) if total else 0.0,
            }

    def clear_mask_cache(self) -> None:
        """Drop every cached mask and reset the hit/miss counters."""
        with self._mask_cache_lock:
            self._mask_cache.clear()
            self._mask_cache_nbytes = 0
            self.cache_hits = 0
            self.cache_misses = 0

    @staticmethod
    def _mask_nbytes(mask: Mask) -> int:
        """Approximate heap size of one cached mask."""
        return int(getattr(mask, "nbytes", 0))

    # ------------------------------------------------------------------
    # pattern-level queries (shared composition)
    # ------------------------------------------------------------------
    def _compute_match_mask(self, pattern: Pattern) -> Mask:
        """Build the match mask by chained restriction (backends override)."""
        mask = self.full_mask()
        for index in pattern.deterministic_indices():
            mask = self.restrict(mask, index, pattern[index])
        return mask

    def match_mask(self, pattern: Pattern) -> Mask:
        """Mask over unique combinations matching ``pattern`` (cached).

        The cache is keyed by the canonical pattern values; the engine keeps
        its own copy of every cached mask and hands out fresh copies, so
        callers may mutate the returned handle.
        """
        self._check_pattern(pattern)
        if not self._mask_cache_size:
            # Lock-free fast path: with caching disabled there is no shared
            # mutable state to guard.
            return self._compute_match_mask(pattern)
        key = pattern.values
        with self._mask_cache_lock:
            cached = self._mask_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._mask_cache.move_to_end(key)
                # Copy while holding the lock: a concurrent miss could
                # otherwise evict (and a backend with views into shared
                # storage invalidate) the entry just handed out.
                return self.copy_mask(cached)
            self.cache_misses += 1
        # The index scan runs outside the lock so concurrent misses compute
        # in parallel; losing that race just means inserting a value the
        # winner already cached.
        mask = self._compute_match_mask(pattern)
        with self._mask_cache_lock:
            if key not in self._mask_cache:
                self._mask_cache[key] = self.copy_mask(mask)
                self._mask_cache_nbytes += self._mask_nbytes(mask)
            # Evict by entry count and by byte budget (always keeping the
            # newest entry, so one huge mask degrades to a 1-entry cache
            # instead of thrashing).
            while len(self._mask_cache) > 1 and (
                len(self._mask_cache) > self._mask_cache_size
                or self._mask_cache_nbytes > DEFAULT_MASK_CACHE_BYTES
            ):
                _, evicted = self._mask_cache.popitem(last=False)
                self._mask_cache_nbytes -= self._mask_nbytes(evicted)
        return mask

    def coverage(self, pattern: Pattern) -> int:
        """Definition 2: number of tuples matching ``pattern``."""
        return self.count(self.match_mask(pattern))

    def coverage_many(
        self,
        patterns: Sequence[Pattern],
        memo: Optional[Dict[Tuple[int, ...], int]] = None,
    ) -> np.ndarray:
        """Coverage of many patterns, counted in one batched pass.

        Args:
            patterns: the frontier to count.
            memo: optional count-reuse table mapping ``pattern.values`` to
                a previously computed coverage count.  Patterns present in
                it skip the index scan entirely and fresh counts are added
                back, so callers that evaluate overlapping frontiers — the
                amortized threshold sweep counts each pattern once for an
                entire τ range, and attribute-subset projections share
                their wildcarded patterns — pay for each distinct pattern
                once per engine.  Coverage counts are a pure function of
                the dataset, never of τ or the backend, which is what
                makes the table safe to share across sweeps and (for one
                dataset) across engines.
        """
        if not patterns:
            return np.zeros(0, dtype=np.int64)
        if memo is None:
            return self.count_many([self.match_mask(p) for p in patterns])
        out = np.empty(len(patterns), dtype=np.int64)
        missing: List[Pattern] = []
        positions: List[int] = []
        for index, pattern in enumerate(patterns):
            cached = memo.get(pattern.values)
            if cached is None:
                missing.append(pattern)
                positions.append(index)
            else:
                out[index] = cached
        if missing:
            counts = self.count_many(
                [self.match_mask(p) for p in missing]
            )
            for position, pattern, count in zip(positions, missing, counts):
                out[position] = count
                memo[pattern.values] = int(count)
        return out

    # ------------------------------------------------------------------
    # rebuild support
    # ------------------------------------------------------------------
    def _template_options(self) -> Dict[str, Any]:
        """Constructor options :meth:`template` must carry onto a rebuild.

        Backends with extra constructor parameters (shard count, worker
        pool) extend this dict.
        """
        return {"mask_cache_size": self._mask_cache_size}

    def template(self) -> "EngineSpec":
        """A dataset-free factory that rebuilds an equivalently configured engine.

        Consumers that re-index after the dataset changes (e.g. the
        incremental MUP index) use this to carry an engine's configuration
        — cache capacity, shard count, worker pool — onto the new dataset,
        with none of the old dataset's masks or cached state.

        For the registered backends the template *is* a declarative
        :class:`~repro.core.engine.config.EngineConfig` (serializable, and
        still callable with a dataset); unregistered subclasses fall back
        to an opaque factory closure.
        """
        cls = type(self)
        options = self._template_options()
        if ENGINES.get(cls.name) is cls:
            from repro.core.engine.config import EngineConfig

            try:
                return EngineConfig.from_options(cls.name, **options)
            except ReproError:
                # Subclass-specific options the config doesn't know; keep
                # the closure fallback below.
                pass

        def build(dataset: Dataset, **overrides: Any) -> "CoverageEngine":
            return cls(dataset, **{**options, **overrides})

        build.engine_name = cls.name
        return build


#: Anything that names an engine: a registry key (or ``"auto"``), an
#: :class:`~repro.core.engine.config.EngineConfig`, a class, an instance, a
#: dataset-free factory (e.g. an engine ``template()``), or ``None`` for the
#: default.  Defined after the class so the alias holds the real type
#: (annotations referencing it resolve in any importing module).
EngineSpec = Union[
    None, str, Type[CoverageEngine], CoverageEngine, Callable[..., CoverageEngine]
]


def _build_from_config(config: Any, dataset: Dataset) -> CoverageEngine:
    """Build the engine an :class:`EngineConfig` describes.

    ``"auto"`` configs are resolved through the workload-aware planner
    first; everything else instantiates the named backend with the
    config's set options.
    """
    if config.is_auto:
        from repro.core.engine.planner import plan_engine

        config = plan_engine(dataset, config).config
    return ENGINES[config.backend](dataset, **config.engine_options())


def resolve_engine(spec: EngineSpec, dataset: Dataset) -> CoverageEngine:
    """Build (or pass through) the engine selected by ``spec``.

    Accepts an :class:`~repro.core.engine.config.EngineConfig` (the
    declarative form that carries every engine option), a registry name
    (``"dense"`` / ``"packed"`` / ``"sharded"``, or ``"auto"`` to let the
    planner choose), an engine class, a dataset-free
    factory callable (such as an engine's
    :meth:`~CoverageEngine.template`), an already-built instance (returned
    as-is), or ``None`` for the default.
    """
    if spec is None:
        spec = DEFAULT_ENGINE
    if isinstance(spec, CoverageEngine):
        if spec.dataset is not dataset:
            raise ReproError(
                f"engine was built for a different dataset "
                f"({spec.dataset!r} vs {dataset!r}); pass the engine class "
                f"or name to rebuild it"
            )
        return spec
    from repro.core.engine.config import BUILTIN_BACKENDS, EngineConfig

    if isinstance(spec, str) and spec in BUILTIN_BACKENDS:
        spec = EngineConfig(backend=spec)
    if isinstance(spec, EngineConfig):
        return _build_from_config(spec, dataset)
    if isinstance(spec, str):
        if spec not in ENGINES:
            raise ReproError(
                f"unknown coverage engine {spec!r}; "
                f"available: {sorted(ENGINES) + ['auto']}"
            )
        spec = ENGINES[spec]
    if (isinstance(spec, type) and issubclass(spec, CoverageEngine)) or (
        not isinstance(spec, type) and callable(spec)
    ):
        built = spec(dataset)
        if not isinstance(built, CoverageEngine):
            raise ReproError(
                f"engine factory {spec!r} returned {built!r}, "
                f"not a CoverageEngine"
            )
        return built
    raise ReproError(f"cannot interpret {spec!r} as a coverage engine")


def engine_name(spec: EngineSpec) -> str:
    """Canonical registry name of an engine spec (for non-dataset reuse).

    ``"auto"`` (as a name or an auto ``EngineConfig``) is returned verbatim
    — the concrete backend is only known once a dataset is planned.
    """
    if spec is None:
        return DEFAULT_ENGINE
    from repro.core.engine.config import AUTO, EngineConfig

    if isinstance(spec, EngineConfig):
        return spec.backend
    if isinstance(spec, str):
        if spec == AUTO:
            return AUTO
        if spec not in ENGINES:
            raise ReproError(
                f"unknown coverage engine {spec!r}; "
                f"available: {sorted(ENGINES) + ['auto']}"
            )
        return spec
    if isinstance(spec, CoverageEngine):
        return type(spec).name
    if isinstance(spec, type) and issubclass(spec, CoverageEngine):
        return spec.name
    name = getattr(spec, "engine_name", None)
    if isinstance(name, str) and name in ENGINES:
        # Dataset-free factories (engine templates) carry their backend name.
        return name
    raise ReproError(f"cannot interpret {spec!r} as a coverage engine")
