"""In-memory span tracer for the end-to-end benchmark.

Nothing here is imported by ``src/``: :func:`install` wraps, at class and
module level, the public entry points of each layer —

* ``core.coverage``: every public ``CoverageOracle`` method;
* ``core.engine``: the concrete engine classes' ``__init__`` (the index
  build), ``count``, ``count_many``, ``restrict_children`` and the shared
  ``match_mask``;
* ``core.dominance``: ``MupDominanceIndex`` queries;
* ``core.pattern``: ``Pattern.__init__`` (counted only — a span per call
  would cost more than the call);
* ``core.mups``, ``core.enhancement``, ``analysis.sweep``, ``data``:
  ``find_mups``, ``uncovered_at_level``, ``greedy_cover``, ``sweep_mups``
  and ``Dataset.unique_rows``.

Spans nest on a per-thread stack.  Each closed span adds its duration and
its self time (duration minus the time its child spans cover) to an
aggregate keyed by ``(span, parent)``, so the self times of all spans
under a root add up to the root's wall time exactly.  Op-level spans (one
per ``find_mups``, ``greedy_cover``…) are also kept whole, with their
start and end.

Wrappers test ``Tracer.enabled`` first, so a traced run can measure some
rounds with tracing off and report the overhead.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_perf = time.perf_counter

#: Span-name prefix -> layer, for the self-time breakdown.
LAYERS = (
    ("round", "bench"),
    ("data.", "data"),
    ("mups.", "core.mups"),
    ("dominance.", "core.dominance"),
    ("oracle.", "core.engine"),
    ("engine.", "core.engine"),
    ("enhancement.", "core.enhancement"),
    ("sweep.", "analysis.sweep"),
)


def layer_of(span: str) -> str:
    for prefix, layer in LAYERS:
        if span.startswith(prefix):
            return layer
    return "other"


class _ThreadState:
    __slots__ = ("names", "child", "agg", "counters")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.child: List[float] = []
        # (span, parent) -> [count, total seconds, self seconds]
        self.agg: Dict[tuple, List[float]] = {}
        self.counters: Dict[str, float] = {}


def add(counters: Dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


class Tracer:
    """Spans and counters kept in memory, merged across threads on dump."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        # Whole spans: [name, start, end, self seconds or None].
        self.records: List[list] = []
        self._patterns_built = itertools.count()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name`` while tracing is enabled.

        ``before(args)`` runs first and its return value reaches
        ``after(counters, args, result, token)``, which updates the calling
        thread's counters.  ``keep`` also records the span whole.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            names, child = state.names, state.child
            parent = names[-1] if names else None
            token = before(args) if before is not None else None
            names.append(name)
            child.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                elapsed = end - start
                names.pop()
                inner = child.pop()
                if child:
                    child[-1] += elapsed
                slot = state.agg.get((name, parent))
                if slot is None:
                    state.agg[(name, parent)] = [1, elapsed, elapsed - inner]
                else:
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed - inner
            if after is not None:
                after(state.counters, args, result, token)
            if keep:
                tracer.records.append([name, start, end, elapsed - inner])
            return result

        return wrapper

    def region(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn(*args, **kwargs)`` as a kept span named ``name``."""
        return self.wrap(name, fn, keep=True)(*args, **kwargs)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Everything recorded, merged across threads (JSON-ready)."""
        agg: Dict[tuple, List[float]] = {}
        counters: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (count, total, own) in list(state.agg.items()):
                slot = agg.setdefault(key, [0, 0.0, 0.0])
                slot[0] += count
                slot[1] += total
                slot[2] += own
            for key, value in list(state.counters.items()):
                add(counters, key, value)
        # Reading the shared counter advances it by one; a traced process
        # dumps once, at its end.
        counters["pattern.built"] = next(self._patterns_built)
        return {
            "spans": [
                {"span": name, "parent": parent, "count": int(c),
                 "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(
                    agg.items(), key=lambda item: -item[1][2]
                )
            ],
            "counters": counters,
            "records": [
                {"span": r[0], "start": r[1], "end": r[2], "self_s": r[3]}
                for r in self.records
            ],
        }


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (modules import these functions by name)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module docstring).

    Call once per process, after importing the modules whose globals
    should see the wrappers.
    """
    import repro  # noqa: F401  (binds the re-exported names to patch)
    import repro.analysis.sweep as sweep_module
    import repro.core.enhancement.expansion as expansion_module
    import repro.core.enhancement.greedy as greedy_module
    import repro.core.mups.base as mups_module
    from repro.core.coverage import CoverageOracle
    from repro.core.dominance import MupDominanceIndex
    from repro.core.engine import ENGINES, CoverageEngine
    from repro.core.pattern import Pattern
    from repro.data.dataset import Dataset

    # core.pattern: counted only.
    pattern_init = Pattern.__init__
    built = tracer._patterns_built

    def counted_init(self, values):
        if tracer.enabled:
            next(built)
        pattern_init(self, values)

    Pattern.__init__ = counted_init

    # data
    Dataset.unique_rows = tracer.wrap("data.unique_rows", Dataset.unique_rows)

    # core.coverage (the oracle facade); __init__ is where the engine is
    # planned and built, so it records the backend the planner chose.
    def after_oracle_init(counters, args, result, token):
        add(counters, f"engine.builds.{type(args[0].engine).name}", 1)

    for method in (
        "full_mask", "value_mask", "restrict_mask", "restrict_children",
        "match_mask", "coverage_of_mask", "coverage_of_masks", "coverage",
        "coverage_many", "is_covered", "matching_rows",
    ):
        setattr(
            CoverageOracle, method,
            tracer.wrap(f"oracle.{method}", getattr(CoverageOracle, method)),
        )
    CoverageOracle.__init__ = tracer.wrap(
        "oracle.__init__", CoverageOracle.__init__,
        after=after_oracle_init, keep=True,
    )

    # core.engine
    mask_nbytes = CoverageEngine._mask_nbytes

    def after_count(counters, args, result, token):
        add(counters, "engine.masks_counted", 1)
        add(counters, "engine.bytes_scanned", mask_nbytes(args[1]))

    def after_count_many(counters, args, result, token):
        masks = args[1]
        if len(masks):
            add(counters, "engine.masks_counted", len(masks))
            # One engine's masks share one size.
            add(counters, "engine.bytes_scanned",
                mask_nbytes(masks[0]) * len(masks))

    def after_restrict_children(counters, args, result, token):
        add(counters, "engine.bytes_scanned",
            mask_nbytes(args[1]) * len(result))

    def before_match_mask(args):
        return args[0].cache_hits

    def after_match_mask(counters, args, result, token):
        engine = args[0]
        if engine.mask_cache_size:
            add(counters, "engine.mask_cache_lookups", 1)
            add(counters, "engine.mask_cache_hits", engine.cache_hits - token)

    CoverageEngine.match_mask = tracer.wrap(
        "engine.match_mask", CoverageEngine.match_mask,
        before=before_match_mask, after=after_match_mask,
    )
    hooks = {
        "count": after_count,
        "count_many": after_count_many,
        "restrict_children": after_restrict_children,
        "__init__": None,
    }
    for cls in set(ENGINES.values()):
        for method, after in hooks.items():
            if method in cls.__dict__:
                setattr(cls, method, tracer.wrap(
                    f"engine.{method}", cls.__dict__[method], after=after
                ))

    # core.dominance
    def after_dominance(counters, args, result, token):
        add(counters, "dominance.queries", 1)
        if result:
            add(counters, "dominance.hits", 1)

    for method in ("dominates_any", "dominated_by_any"):
        setattr(MupDominanceIndex, method, tracer.wrap(
            f"dominance.{method}", getattr(MupDominanceIndex, method),
            after=after_dominance,
        ))

    # core.mups: one kept span per identification.
    def after_find_mups(counters, args, result, token):
        stats = result.stats
        add(counters, "mups.nodes_generated", stats.nodes_generated)
        add(counters, "mups.coverage_evaluations", stats.coverage_evaluations)
        add(counters, "mups.pruned", stats.pruned)

    original = mups_module.find_mups
    _replace_everywhere(original, tracer.wrap(
        "mups.find_mups", original, after=after_find_mups, keep=True
    ))

    # analysis.sweep
    def after_sweep(counters, args, result, token):
        add(counters, "sweep.evaluations", result.stats.coverage_evaluations)

    original = sweep_module.sweep_mups
    _replace_everywhere(original, tracer.wrap(
        "sweep.sweep_mups", original, after=after_sweep, keep=True
    ))

    # core.enhancement
    def after_expand(counters, args, result, token):
        add(counters, "enhancement.targets", len(result))

    def after_greedy(counters, args, result, token):
        add(counters, "enhancement.nodes_visited", result.nodes_visited)

    original = expansion_module.uncovered_at_level
    _replace_everywhere(original, tracer.wrap(
        "enhancement.uncovered_at_level", original,
        after=after_expand, keep=True,
    ))
    original = greedy_module.greedy_cover
    _replace_everywhere(original, tracer.wrap(
        "enhancement.greedy_cover", original, after=after_greedy, keep=True
    ))
