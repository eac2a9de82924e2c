"""Efficient greedy hitting-set for coverage enhancement (§IV-B, Algs. 4–5).

The targets (uncovered patterns at level λ) form the sets of a hitting-set
instance whose universe is the value combinations.  The classic greedy
approximation repeatedly picks the combination hitting the most un-hit
targets; doing that naively scans an exponential universe, so the paper
builds, per attribute value, an inverted index over the targets (a target
survives value ``v`` on attribute ``i`` iff its element there is ``v`` or
``X``) and finds the best combination with a threshold-pruned DFS over the
attribute-assignment tree (Algorithm 4), consulting the validation oracle
before generating each child.  The index is one ``uint64`` word matrix per
attribute, a row per value and a bit per target, so a tree node ANDs its
mask into the matrix and popcounts all its children in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import Stopwatch
from repro.core.engine import EngineSpec, engine_name
from repro.core.enhancement.expansion import uncovered_at_level
from repro.core.enhancement.oracle import ValidationOracle
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.bitset import popcount_words
from repro.data.dataset import Dataset
from repro.exceptions import EnhancementError, ReproError


@dataclass(frozen=True)
class EnhancementResult:
    """Output of a coverage-enhancement run (Problem 2).

    Attributes:
        combinations: the value combinations to collect, in pick order.
        generalized: per pick, the most general pattern whose matching
            combinations all hit the same targets (§IV-B implementation
            note) — extra freedom for the data collector.
        targets: how many target patterns had to be hit.
        unhittable: targets no valid combination can hit (ruled out by the
            validation oracle); they require human attention.
        iterations: greedy picks performed.
        nodes_visited: tree nodes expanded by Algorithm 4 across all picks.
        seconds: wall-clock time.
    """

    combinations: Tuple[Tuple[int, ...], ...]
    generalized: Tuple[Pattern, ...]
    targets: int
    unhittable: Tuple[Pattern, ...] = ()
    iterations: int = 0
    nodes_visited: int = 0
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.combinations)

    def rows(self) -> np.ndarray:
        """The collected combinations as an ``(m, d)`` array for appending."""
        if not self.combinations:
            return np.zeros((0, 0), dtype=np.int32)
        return np.asarray(self.combinations, dtype=np.int32)

    def describe(self, schema) -> str:
        """Human-readable acquisition plan."""
        lines = [f"Collect {len(self.combinations)} value combination(s):"]
        for combo, general in zip(self.combinations, self.generalized):
            rendered = ", ".join(
                f"{schema.names[i]}={schema.value_label(i, v)}"
                for i, v in enumerate(combo)
            )
            lines.append(f"  - {rendered}")
            if general.level < len(combo):
                lines.append(f"    (any tuple matching {general.describe(schema)})")
        if self.unhittable:
            lines.append(
                f"  ! {len(self.unhittable)} target(s) cannot be hit by any "
                f"valid combination"
            )
        return "\n".join(lines)


def _pack(flags: np.ndarray) -> np.ndarray:
    """A ``(k, m)`` bool matrix as ``(k, ⌈m/64⌉)`` little-endian ``uint64`` words."""
    words = np.zeros((len(flags), -(-flags.shape[1] // 64)), dtype=np.uint64)
    packed = np.packbits(flags, axis=1, bitorder="little")
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    return words


def _set_bits(words: np.ndarray, m: int) -> np.ndarray:
    """Positions of the set bits among the first ``m`` of one word row."""
    return np.flatnonzero(
        np.unpackbits(words.view(np.uint8), count=m, bitorder="little")
    )


def _target_index(targets: Sequence[Pattern], space: PatternSpace) -> List[np.ndarray]:
    """Inverted indices from attribute values to target patterns (§IV-B).

    Attribute ``i`` gets a ``(c_i, ⌈m/64⌉)`` ``uint64`` matrix over the
    ``m`` targets, the word layout of the packed engine: bit ``j`` of row
    ``v`` is set iff target ``j`` can still be hit after fixing attribute
    ``i`` to ``v`` (its element there is ``v`` or ``X``).
    """
    elements = np.array(
        [target.values for target in targets], dtype=np.int64
    ).reshape(len(targets), space.d)
    return [
        _pack((column == X) | (column == np.arange(cardinality)[:, np.newaxis]))
        for column, cardinality in zip(elements.T, space.cardinalities)
    ]


def _hit_count_search(
    index: List[np.ndarray],
    filter_mask: np.ndarray,
    validation: ValidationOracle,
    counters: Dict[str, int],
) -> Tuple[Optional[Tuple[int, ...]], Optional[np.ndarray]]:
    """Algorithm 4: best valid combination for the current filter.

    Returns ``(combination, hits)``: the combination and the words of the
    filtered targets it hits, or ``(None, None)`` when no valid
    combination hits any remaining target.
    """
    d = len(index)
    best_count = 0
    best: Tuple[Optional[Tuple[int, ...]], Optional[np.ndarray]] = (None, None)

    def recurse(level: int, mask: np.ndarray, prefix: List[int]) -> None:
        nonlocal best_count, best
        counters["nodes"] += 1
        # Every value's child mask and hit count in one pass.
        children = index[level] & mask
        counts = popcount_words(children).sum(axis=1).tolist()
        candidates = []
        for value, count in enumerate(counts):
            prefix.append(value)
            invalid = validation.invalidates_prefix(prefix)
            prefix.pop()
            if not invalid:
                candidates.append((count, value))
        if level == d - 1:
            for count, value in candidates:
                if count > best_count:
                    best_count = count
                    best = tuple(prefix + [value]), children[value]
            return
        # Explore children best-first; prune once the upper bound (remaining
        # potential hits) cannot beat the best known combination.
        candidates.sort(key=lambda item: -item[0])
        for count, value in candidates:
            if count <= best_count:
                break
            prefix.append(value)
            recurse(level + 1, children[value], prefix)
            prefix.pop()

    recurse(0, filter_mask, [])
    return best


def greedy_cover(
    targets: Sequence[Pattern],
    space: PatternSpace,
    validation: Optional[ValidationOracle] = None,
    engine: EngineSpec = None,
) -> EnhancementResult:
    """Algorithm 5: greedy hitting set over the given target patterns.

    Args:
        targets: uncovered patterns to hit (e.g. from
            :func:`~repro.core.enhancement.expansion.uncovered_at_level`).
        space: the pattern space.
        validation: the human-configured validation oracle; defaults to
            permissive.  A rule on an attribute the space lacks raises
            :class:`~repro.exceptions.ValidationError`.
        engine: accepted for interface parity with ``find_mups``; the
            target index reads no engine, but a value that is not an
            :class:`~repro.core.engine.EngineSpec` still raises
            :class:`~repro.exceptions.ReproError`.

    Returns:
        An :class:`EnhancementResult`; targets that no *valid* combination
        can hit are reported in ``unhittable`` rather than looping forever.
    """
    validation = validation or ValidationOracle.permissive()
    watch = Stopwatch()
    for target in targets:
        space.validate(target)
    validation.check_space(space)
    _check_engine_spec(engine)
    targets = list(targets)
    m = len(targets)
    index = _target_index(targets, space)
    remaining = _pack(np.ones((1, m), dtype=bool))[0]
    combos: List[Tuple[int, ...]] = []
    generalized: List[Pattern] = []
    counters = {"nodes": 0}
    iterations = 0

    while remaining.any():
        iterations += 1
        best_combo, hits = _hit_count_search(index, remaining, validation, counters)
        if best_combo is None:
            break
        # Generalize (§IV-B implementation note): keep the combination's
        # value only where some hit target pins it; if every hit target has
        # X on an attribute, any value there hits the same set.
        general_values = list(best_combo)
        hit_targets = [targets[j] for j in _set_bits(hits, m)]
        for attribute in range(space.d):
            if all(t[attribute] == X for t in hit_targets):
                general_values[attribute] = X
        combos.append(best_combo)
        generalized.append(Pattern(general_values))
        remaining &= ~hits

    unhittable = tuple(targets[j] for j in _set_bits(remaining, m))
    return EnhancementResult(
        combinations=tuple(combos),
        generalized=tuple(generalized),
        targets=m,
        unhittable=unhittable,
        iterations=iterations,
        nodes_visited=counters["nodes"],
        seconds=watch.elapsed(),
    )


def _check_engine_spec(engine: EngineSpec) -> None:
    """Raise :class:`ReproError` unless ``engine`` is an engine spec.

    An unnamed factory callable is a valid spec that has no registry name.
    """
    try:
        engine_name(engine)
    except ReproError:
        if isinstance(engine, str) or not callable(engine):
            raise


def enhance_coverage(
    dataset: Dataset,
    mups: Sequence[Pattern],
    level: int,
    threshold: int,
    validation: Optional[ValidationOracle] = None,
    copies: Optional[int] = None,
    engine: EngineSpec = None,
) -> Tuple[EnhancementResult, Dataset]:
    """End-to-end Problem 2: plan the acquisition and apply it.

    Args:
        dataset: the dataset to enhance.
        mups: its material MUPs.
        level: the target maximum covered level λ.
        threshold: the coverage threshold τ (each planned combination is
            added ``copies`` times so hit targets actually reach τ).
        validation: optional validation oracle.
        copies: how many tuples to collect per planned combination; defaults
            to ``threshold`` (enough to cover any previously empty target).
        engine: accepted for interface parity, as in :func:`greedy_cover`.

    Returns:
        ``(result, enhanced dataset)``.
    """
    copies = threshold if copies is None else copies
    if copies < 1:
        raise EnhancementError(f"copies must be >= 1, got {copies}")
    space = PatternSpace.for_dataset(dataset)
    targets = uncovered_at_level(mups, space, level)
    result = greedy_cover(targets, space, validation, engine=engine)
    new_rows: List[Tuple[int, ...]] = []
    for combo in result.combinations:
        new_rows.extend([combo] * copies)
    enhanced = dataset.append_rows(new_rows)
    return result, enhanced
