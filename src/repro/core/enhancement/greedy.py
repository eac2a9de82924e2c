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

The index is built from the targets' ``(m, d)`` lattice digit matrix (0
for ``X``, ``v + 1`` for ``v``).  Targets that come as the
:class:`~repro.core.lattice.PatternCodes` of the space's own lattice, as
:func:`~repro.core.enhancement.expansion.uncovered_at_level` returns them,
give their digits directly and are never decoded, except the unhittable
ones; any other sequence of patterns is validated and converted.  Beside
the index sits one ``(d, ⌈m/64⌉)`` word matrix of the targets that fix
each attribute, so generalizing a pick is one AND with its hit words.

When the universe is small, GREEDY picks from the combination grid
instead: a word-major ``(⌈m/64⌉, Π c_i)`` ``uint64`` matrix holding each
combination's hit mask over the targets, ANDed from the index one
attribute at a time with cells in combination-index order (attribute 0
the most significant digit).  Each cell keeps an exact count of the un-hit
targets it hits; a pick subtracts the popcounts of only the target words
it hit.  Validity is one mask over the grid
(:meth:`~repro.core.enhancement.oracle.ValidationOracle.valid_combinations`).
Counts only fall, so a cell that is invalid or hits no un-hit target can
never be picked again.  The grid drops such dead cells' columns whenever
they are half of it, so a pick reads at most twice as many cells as are
live, a number that follows the targets left rather than ``Π c_i``.
The grid is built when it fits ``_GRID_BYTES``; Algorithm 4 searches the
tree over that (the paper's Figures 16 and 18 reach 2^35 combinations).

Both return the same pick.  Call the number of un-hit targets a tree
node's prefix can still hit its count, and let M be the highest count of a
valid leaf (there is no pick when M = 0).  Algorithm 4 tries an inner
node's children by (−count, value) and a last-level node's by value, and
stops trying children once their count is at most the best leaf count
found so far.

* Counts only fall going down, so every ancestor of a valid M-leaf has
  count ≥ M.  Until an M-leaf is found the best count is below M, so a
  subtree holding a valid M-leaf is never pruned before one is found.
* The oracle refuses a prefix only when a rule is already satisfied by
  the prefix, and then every leaf below it is invalid: no valid leaf is
  cut off.

So the search meets the valid M-leaves in the order of its unpruned
(−count, value) DFS, takes the first it meets (its count beats every
count before it), and keeps it, since no leaf beats M.  The grid finds
that leaf directly: among the valid cells of count M it narrows, one
level at a time, to the child with the highest prefix count and then the
lowest value, and ends at the lowest last value.  It computes prefix
counts only for those ancestors of the M-cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import Stopwatch, product_int
from repro.core.engine import EngineSpec, check_engine
from repro.core.enhancement.expansion import uncovered_at_level, validated_elements
from repro.core.enhancement.oracle import ValidationOracle
from repro.core.lattice import PatternCodes
from repro.core.mups.base import check_threshold
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.bitset import popcount_words
from repro.data.dataset import Dataset
from repro.exceptions import EnhancementError


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
        nodes_visited: tree nodes expanded by Algorithm 4 across all picks;
            when the picks come from the combination grid, the ``Π c_i``
            grid cells scored (once, when the grid is built).
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


#: Largest combination grid GREEDY builds, in bytes: ``Π c_i · (⌈m/64⌉ + 4)
#: · 8`` for ``m`` targets, the grid's words plus four ``int64``-sized
#: arrays per cell (the hit counts and one pass's temporaries).  Over it,
#: Algorithm 4 searches the tree.  A memory bound, not a speed crossover:
#: on every measured input under it the grid was at most 0.012 s slower
#: than the tree search (5 level-3 targets over 10^6 combinations, where
#: building the grid is the cost; 0.004 s with 20) and up to 32x faster
#: (2,209 BlueNile targets; 15x on 12,234 AirBnB ones).
_GRID_BYTES = 64 << 20

#: Grid bytes one numpy pass over the grid reads at a time, which bounds
#: the passes' temporaries.
_PASS_BYTES = 1 << 20


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


def _target_index(digits: np.ndarray, space: PatternSpace) -> List[np.ndarray]:
    """Inverted indices from attribute values to target patterns (§IV-B).

    Attribute ``i`` gets a ``(c_i, ⌈m/64⌉)`` ``uint64`` matrix over the
    ``m`` targets (rows of the lattice digit matrix ``digits``), the word
    layout of the packed engine: bit ``j`` of row ``v`` is set iff target
    ``j`` can still be hit after fixing attribute ``i`` to ``v`` (its
    element there is ``v`` or ``X``, digit ``v + 1`` or 0).
    """
    return [
        _pack((column == 0) | (column == np.arange(1, cardinality + 1)[:, np.newaxis]))
        for column, cardinality in zip(digits.T, space.cardinalities)
    ]


class _CombinationGrid:
    """Every value combination's hit mask over the targets, with an exact
    count of the un-hit targets it hits.

    Only the live combinations, the valid ones that hit an un-hit target,
    can be picked.  The grid keeps their columns and at most as many
    others: when half its columns are no longer live it drops those, in
    place.

    Args:
        index: the target index (:func:`_target_index`).
        cardinalities: the space's ``c_i``.
        validation: classifies every combination once.
        remaining: the un-hit targets' words.
    """

    def __init__(
        self,
        index: List[np.ndarray],
        cardinalities: Sequence[int],
        validation: ValidationOracle,
        remaining: np.ndarray,
    ) -> None:
        self._index = index
        self._cardinalities = tuple(cardinalities)
        self.cells = product_int(self._cardinalities)
        step = max(1, _PASS_BYTES // (8 * self.cells))
        words = len(remaining)
        self._grid = np.empty((words, self.cells), dtype=np.uint64)
        counts = np.zeros(self.cells, dtype=np.int64)
        for start in range(0, words, step):
            block = slice(start, start + step)
            masks = index[0][:, block].T
            for rows in index[1:]:
                masks = (
                    masks[:, :, np.newaxis] & rows[:, block].T[:, np.newaxis, :]
                ).reshape(len(masks), -1)
            self._grid[block] = masks
            counts += popcount_words(masks & remaining[block, np.newaxis]).sum(
                axis=0, dtype=np.int64
            )
        # An invalid combination is never live.
        counts[~validation.valid_combinations(self._cardinalities)] = 0
        # The combination in each grid column, ascending, and its count.
        self._cells, self._counts = np.arange(self.cells), counts
        self._drop_dead_columns()

    def pick(
        self, remaining: np.ndarray
    ) -> Tuple[Optional[Tuple[int, ...]], Optional[np.ndarray]]:
        """Algorithm 4's pick for the un-hit targets in ``remaining``.

        Returns ``(combination, hits)`` like :func:`_hit_count_search`, and
        takes the hit targets out of every kept combination's count.
        """
        best = self._counts.max(initial=0)
        if best <= 0:
            return None, None
        cell = self._first_in_search_order(
            self._cells[self._counts == best], remaining
        )
        hits = self._grid[:, np.searchsorted(self._cells, cell)] & remaining
        rows = np.flatnonzero(hits)
        step = max(1, _PASS_BYTES // (8 * len(self._cells)))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            # One expression, so each temporary is freed once it is read.
            self._counts -= popcount_words(
                self._grid[block] & hits[block, np.newaxis]
            ).sum(axis=0, dtype=np.int64)
        self._drop_dead_columns()
        combination = np.unravel_index(cell, self._cardinalities)
        return tuple(int(value) for value in combination), hits

    def _drop_dead_columns(self) -> None:
        """When at most half the columns are live, keep only those.

        In place: the word rows move left within the grid's buffer, a
        block at a time, and no block lands past the next block's start.
        """
        live = self._counts > 0
        if 2 * np.count_nonzero(live) > len(live):
            return
        keep = np.flatnonzero(live)
        words = len(self._grid)
        buffer = self._grid.reshape(-1)
        step = max(1, _PASS_BYTES // (8 * max(len(keep), 1)))
        for start in range(0, words, step):
            stop = min(start + step, words)
            buffer[start * len(keep) : stop * len(keep)] = np.take(
                self._grid[start:stop], keep, axis=1
            ).ravel()
        self._grid = buffer[: words * len(keep)].reshape(words, len(keep))
        self._cells, self._counts = self._cells[keep], self._counts[keep]

    def _first_in_search_order(self, cells: np.ndarray, remaining: np.ndarray) -> int:
        """The first of the tied ``cells`` (ascending) in Algorithm 4's
        search order: per level the child with the highest prefix count,
        then the lowest value; at the last level the lowest value."""
        stride = self.cells
        mask = remaining
        for rows, cardinality in zip(self._index[:-1], self._cardinalities):
            if len(cells) == 1:
                break
            stride //= cardinality
            values = cells // stride % cardinality
            children = np.flatnonzero(np.bincount(values, minlength=cardinality))
            counts = popcount_words(rows[children] & mask).sum(axis=1)
            # argmax takes the first highest count: the lowest value.
            value = children[np.argmax(counts)]
            cells = cells[values == value]
            mask = mask & rows[value]
        # The cells left differ at most in their last value.
        return int(cells[0])


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
            :func:`~repro.core.enhancement.expansion.uncovered_at_level`,
            whose codes are read without decoding when their lattice's
            cardinalities are ``space``'s; any other sequence is validated
            against ``space`` first).
        space: the pattern space.
        validation: the human-configured validation oracle; defaults to
            permissive.  A rule on an attribute the space lacks raises
            :class:`~repro.exceptions.ValidationError`.
        engine: checked by :func:`~repro.core.engine.check_engine` and
            otherwise unused: the target index reads no engine.

    Returns:
        An :class:`EnhancementResult`; targets that no *valid* combination
        can hit are reported in ``unhittable`` rather than looping forever.
    """
    validation = validation or ValidationOracle.permissive()
    watch = Stopwatch()
    coded = (
        isinstance(targets, PatternCodes)
        and targets.lattice.cardinalities == space.cardinalities
    )
    if coded:
        # Codes of this space's lattice: in range by construction.
        digits = targets.digits()
    else:
        targets = list(targets)
        digits = validated_elements(targets, space) + 1
    validation.check_space(space)
    check_engine(engine)
    m = len(digits)
    index = _target_index(digits, space)
    # fixed[i]: the targets with a value (not X) at attribute i.
    fixed = _pack((digits != 0).T)
    del digits
    remaining = _pack(np.ones((1, m), dtype=bool))[0]
    grid = None
    if m and space.combination_count() * (len(remaining) + 4) * 8 <= _GRID_BYTES:
        grid = _CombinationGrid(index, space.cardinalities, validation, remaining)
    combos: List[Tuple[int, ...]] = []
    generalized: List[Pattern] = []
    counters = {"nodes": grid.cells if grid is not None else 0}
    iterations = 0

    while remaining.any():
        iterations += 1
        if grid is None:
            best_combo, hits = _hit_count_search(index, remaining, validation, counters)
        else:
            best_combo, hits = grid.pick(remaining)
        if best_combo is None:
            break
        # Generalize (§IV-B implementation note): keep the combination's
        # value only where some hit target pins it; if every hit target has
        # X on an attribute, any value there hits the same set.
        pinned = (fixed & hits).any(axis=1)
        combos.append(best_combo)
        generalized.append(Pattern(np.where(pinned, best_combo, X).tolist()))
        remaining &= ~hits

    unhit = _set_bits(remaining, m)
    if coded:
        unhittable = tuple(targets.lattice.decode(targets.codes[unhit]))
    else:
        unhittable = tuple(targets[j] for j in unhit)
    return EnhancementResult(
        combinations=tuple(combos),
        generalized=tuple(generalized),
        targets=m,
        unhittable=unhittable,
        iterations=iterations,
        nodes_visited=counters["nodes"],
        seconds=watch.elapsed(),
    )


def enhance_coverage(
    dataset: Dataset,
    mups: Sequence[Pattern],
    level: int,
    threshold: int,
    validation: Optional[ValidationOracle] = None,
    copies: Optional[int] = None,
) -> Tuple[EnhancementResult, Dataset]:
    """End-to-end Problem 2: plan the acquisition and apply it.

    Args:
        dataset: the dataset to enhance.
        mups: its material MUPs.
        level: the target maximum covered level λ.
        threshold: the coverage threshold τ (each planned combination is
            added ``copies`` times so hit targets actually reach τ), an
            integer ≥ 1 as :func:`~repro.core.mups.base.check_threshold`
            takes it.
        validation: optional validation oracle.
        copies: how many tuples to collect per planned combination, a
            non-boolean integer ≥ 1; defaults to ``threshold`` (enough to
            cover any previously empty target).

    Returns:
        ``(result, enhanced dataset)``.
    """
    threshold = check_threshold(threshold)
    if copies is None:
        copies = threshold
    elif isinstance(copies, bool) or not isinstance(copies, Integral) or copies < 1:
        raise EnhancementError(f"copies must be an integer >= 1, got {copies!r}")
    space = PatternSpace.for_dataset(dataset)
    targets = uncovered_at_level(mups, space, level)
    result = greedy_cover(targets, space, validation)
    new_rows: List[Tuple[int, ...]] = []
    for combo in result.combinations:
        new_rows.extend([combo] * copies)
    enhanced = dataset.append_rows(new_rows)
    return result, enhanced
