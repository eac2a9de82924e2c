"""The pattern graph and its Rule 1 / Rule 2 traversal trees (§III-B).

:class:`PatternSpace` binds attribute cardinalities to the pattern algebra:
child/parent generation, the Rule 1 tree (top-down, each node generated once
by specializing only to the right of the right-most deterministic element)
and the Rule 2 forest (bottom-up, each node generated once by X-ing out
value-0 elements to the right of the right-most ``X``), node/edge counting,
and descendant expansion, the reference for coverage enhancement's
(Appendix C).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from repro._util import product_int
from repro.core.pattern import Pattern, X
from repro.exceptions import PatternError


class PatternSpace:
    """All patterns over attributes with the given cardinalities.

    Args:
        cardinalities: ``c_i`` per attribute; every deterministic value of
            attribute ``i`` must lie in ``[0, c_i)``.
    """

    def __init__(self, cardinalities: Sequence[int]) -> None:
        cardinalities = tuple(int(c) for c in cardinalities)
        if not cardinalities:
            raise PatternError("need at least one attribute")
        for i, c in enumerate(cardinalities):
            if c < 1:
                raise PatternError(f"attribute {i} has cardinality {c} < 1")
        self._cardinalities = cardinalities

    @classmethod
    def for_dataset(cls, dataset) -> "PatternSpace":
        """Space matching a :class:`~repro.data.Dataset`'s schema."""
        return cls(dataset.schema.cardinalities)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return self._cardinalities

    @property
    def d(self) -> int:
        return len(self._cardinalities)

    def root(self) -> Pattern:
        """The level-0 all-``X`` pattern."""
        return Pattern.root(self.d)

    def validate(self, pattern: Pattern) -> Pattern:
        """Check a pattern fits this space; returns it for chaining."""
        if len(pattern) != self.d:
            raise PatternError(
                f"pattern {pattern} has length {len(pattern)}, expected {self.d}"
            )
        for i, value in enumerate(pattern):
            if value != X and not 0 <= value < self._cardinalities[i]:
                raise PatternError(
                    f"pattern {pattern} has value {value} at attribute {i} "
                    f"with cardinality {self._cardinalities[i]}"
                )
        return pattern

    # ------------------------------------------------------------------
    # counting (§III-B analysis)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total nodes ``Π (c_k + 1)``."""
        return product_int(c + 1 for c in self._cardinalities)

    def combination_count(self) -> int:
        """Total full value combinations ``Π c_k`` (the level-``d`` width)."""
        return product_int(self._cardinalities)

    def edge_count(self) -> int:
        """Total parent-child edges.

        Each node ``P`` has ``Σ_{i ∈ A_P} c_i`` edges to level ``ℓ(P)+1``;
        summing over all nodes gives, for uniform cardinality ``c``,
        ``c · d · (c+1)^{d-1}`` (verified in tests against Figure 2's 54).
        """
        total = 0
        for pattern in self.all_patterns():
            total += sum(
                self._cardinalities[i] for i in pattern.nondeterministic_indices()
            )
        return total

    def level_width(self, level: int) -> int:
        """Number of nodes at a level: ``Σ over index sets of Π c_i``."""
        if not 0 <= level <= self.d:
            raise PatternError(f"level {level} out of range [0, {self.d}]")
        total = 0
        for subset in itertools.combinations(range(self.d), level):
            total += product_int(self._cardinalities[i] for i in subset)
        return total

    def value_count(self, pattern: Pattern) -> int:
        """Definition 7: number of value combinations matching ``pattern``."""
        self.validate(pattern)
        return product_int(
            self._cardinalities[i] for i in pattern.nondeterministic_indices()
        )

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def all_patterns(self) -> Iterator[Pattern]:
        """Every pattern in the space (exponential; for tests/naive only)."""
        choices = [[X] + list(range(c)) for c in self._cardinalities]
        for values in itertools.product(*choices):
            yield Pattern(values)

    def all_combinations(self) -> Iterator[Tuple[int, ...]]:
        """Every full value combination (the level-``d`` leaves)."""
        return itertools.product(*[range(c) for c in self._cardinalities])

    def combinations_matching(self, pattern: Pattern) -> Iterator[Tuple[int, ...]]:
        """All full value combinations matching ``pattern``."""
        self.validate(pattern)
        choices = [
            range(self._cardinalities[i]) if value == X else (value,)
            for i, value in enumerate(pattern)
        ]
        return itertools.product(*choices)

    # ------------------------------------------------------------------
    # graph navigation
    # ------------------------------------------------------------------
    def children(self, pattern: Pattern) -> Iterator[Pattern]:
        """All children: replace one ``X`` with each value of its attribute."""
        for index in pattern.nondeterministic_indices():
            for value in range(self._cardinalities[index]):
                yield pattern.with_value(index, value)

    def rule1_children(self, pattern: Pattern) -> List[Pattern]:
        """Rule 1: specialize only ``X``s right of the right-most
        deterministic element, so each node is generated exactly once in the
        top-down traversal (Theorem 3)."""
        start = pattern.rightmost_deterministic() + 1
        result = []
        for index in range(start, self.d):
            if pattern[index] == X:
                for value in range(self._cardinalities[index]):
                    result.append(pattern.with_value(index, value))
        return result

    def rule1_parent(self, pattern: Pattern) -> Optional[Pattern]:
        """The unique Rule-1 generator: right-most deterministic element → X."""
        index = pattern.rightmost_deterministic()
        if index < 0:
            return None
        return pattern.with_value(index, X)

    def rule2_parents(self, pattern: Pattern) -> List[Pattern]:
        """Rule 2: in the bottom-up traversal, a node generates the patterns
        obtained by X-ing out deterministic *value-0* elements right of its
        right-most ``X`` (Theorem 4)."""
        start = pattern.rightmost_nondeterministic() + 1
        result = []
        for index in range(start, self.d):
            if pattern[index] == 0:
                result.append(pattern.with_value(index, X))
        return result

    def rule2_child(self, pattern: Pattern) -> Optional[Pattern]:
        """The unique Rule-2 generator: right-most ``X`` → value 0."""
        index = pattern.rightmost_nondeterministic()
        if index < 0:
            return None
        return pattern.with_value(index, 0)

    def sibling_family(self, pattern: Pattern, index: int) -> List[Pattern]:
        """The ``c_i`` children of ``pattern`` specializing attribute ``index``.

        These partition the matches of ``pattern`` disjointly — the identity
        PATTERN-COMBINER uses to combine coverages upward
        (``cov(1XX) = cov(1X0) + cov(1X1)``).
        """
        if pattern[index] != X:
            raise PatternError(
                f"attribute {index} of {pattern} is already deterministic"
            )
        return [
            pattern.with_value(index, value)
            for value in range(self._cardinalities[index])
        ]

    # ------------------------------------------------------------------
    # descendant expansion (Appendix C)
    # ------------------------------------------------------------------
    def descendants_at_level(self, pattern: Pattern, level: int) -> Iterator[Pattern]:
        """All descendants of ``pattern`` at exactly ``level``.

        Appendix C: replace ``level - ℓ(P)`` non-deterministic elements with
        concrete values, in all ways.  Yields ``pattern`` itself when already
        at ``level``.  This is the pattern-level reference and has no
        production caller:
        :func:`~repro.core.enhancement.expansion.uncovered_at_level` expands
        MUPs with a level walk over lattice codes.
        """
        self.validate(pattern)
        gap = level - pattern.level
        if gap < 0:
            raise PatternError(
                f"pattern {pattern} at level {pattern.level} has no "
                f"descendants at level {level}"
            )
        if gap == 0:
            yield pattern
            return
        free = pattern.nondeterministic_indices()
        for subset in itertools.combinations(free, gap):
            value_ranges = [range(self._cardinalities[i]) for i in subset]
            for values in itertools.product(*value_ranges):
                current = pattern
                for index, value in zip(subset, values):
                    current = current.with_value(index, value)
                yield current

    def random_pattern(self, rng, level: Optional[int] = None) -> Pattern:
        """A uniformly random pattern (optionally of a fixed level); tests."""
        d = self.d
        if level is None:
            level = int(rng.integers(0, d + 1))
        if not 0 <= level <= d:
            raise PatternError(f"level {level} out of range [0, {d}]")
        positions = rng.choice(d, size=level, replace=False)
        values = [X] * d
        for index in positions:
            values[int(index)] = int(rng.integers(0, self._cardinalities[int(index)]))
        return Pattern(values)
