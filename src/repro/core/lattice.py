"""The pattern graph as integer codes, one numpy array per level (§III-B).

A pattern is one mixed-radix integer: attribute ``i`` is a digit of radix
``c_i + 1`` in which ``X`` is digit 0 and value ``v`` is digit ``v + 1``,
and attribute 0 is the most significant digit.  Codes therefore sort
exactly like :class:`~repro.core.pattern.Pattern` (``X`` before every
value), and a lattice level — the patterns of one graph level that a
level-wise traversal holds at once — is a code array that numpy moves as a
whole.  Digits, parents, Rule-1 children, Rule-2 generators, sibling
families and sorted membership are each a few vectorized passes over the
level instead of one Python object per node; ``Pattern`` objects are built
only for the answers (:meth:`PatternLattice.decode`).

Codes are ``int64`` while the space has fewer than ``2**63`` nodes and
Python ints in an ``object`` array beyond that (45 binary attributes
already need it).  The dtype is fixed once per space and both run the same
code.  :class:`~repro.core.pattern_graph.PatternSpace` keeps the
pattern-level version of every move here as the readable reference.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace

#: Spaces with at least this many nodes code patterns as Python ints.
_INT64_NODES = 2**63


class PatternLattice:
    """Integer codes for the patterns of one :class:`PatternSpace`.

    Every method takes and returns code arrays of :attr:`dtype`; "rows"
    are positions in the code array a method was given.
    """

    def __init__(self, space: PatternSpace) -> None:
        self.cardinalities: Tuple[int, ...] = space.cardinalities
        self.d = space.d
        self.dtype = np.dtype(
            np.int64 if space.node_count() < _INT64_NODES else object
        )
        # weights[i]: the place value of attribute i's digit, Π_{j>i}(c_j+1).
        weights = [1] * self.d
        for i in range(self.d - 2, -1, -1):
            weights[i] = weights[i + 1] * (self.cardinalities[i + 1] + 1)
        self.weights: Tuple[int, ...] = tuple(weights)
        self._weight_array = np.array(weights, dtype=self.dtype)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def root(self) -> np.ndarray:
        """Level 0: the all-``X`` pattern, whose code is 0."""
        return np.zeros(1, dtype=self.dtype)

    def encode(self, patterns: Iterable[Pattern]) -> np.ndarray:
        """The code of each pattern (``X`` = -1 is digit 0)."""
        return np.array(
            [
                sum((v + 1) * weight for v, weight in zip(p, self.weights))
                for p in patterns
            ],
            dtype=self.dtype,
        )

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """The ``(k, d)`` digit matrix: 0 for ``X``, ``v + 1`` for ``v``."""
        out = np.empty((len(codes), self.d), dtype=np.int64)
        for i, (weight, cardinality) in enumerate(
            zip(self.weights, self.cardinalities)
        ):
            out[:, i] = (codes // weight) % (cardinality + 1)
        return out

    def decode(self, codes: np.ndarray) -> List[Pattern]:
        """The patterns the codes stand for, in array order."""
        return [Pattern(values) for values in (self.digits(codes) - 1).tolist()]

    def combination_index(self, rows: np.ndarray) -> np.ndarray:
        """Row-major position of each full value combination (a ``(k, d)``
        value array) in the ``Π c_i`` combination grid."""
        index = np.zeros(len(rows), dtype=np.int64)
        for i, cardinality in enumerate(self.cardinalities):
            index = index * cardinality + rows[:, i]
        return index

    def combination_codes(self, index: np.ndarray) -> np.ndarray:
        """Codes of the full value combinations at grid positions ``index``.

        Ascending positions give ascending codes.
        """
        index = np.asarray(index, dtype=np.int64)
        codes = np.zeros(len(index), dtype=self.dtype)
        for i in range(self.d - 1, -1, -1):
            cardinality = self.cardinalities[i]
            digit = (index % cardinality + 1).astype(self.dtype)
            codes += digit * self.weights[i]
            index = index // cardinality
        return codes

    # ------------------------------------------------------------------
    # graph moves, vectorized over a level
    # ------------------------------------------------------------------
    def family(self, codes: np.ndarray, attribute: int) -> np.ndarray:
        """The ``(k, c)`` sibling family of each code at ``attribute``.

        Row ``r`` sets the (``X``) digit of ``attribute`` to each value in
        turn: :meth:`PatternSpace.sibling_family`, and the Rule-1 children
        of a node whose right-most deterministic element is left of
        ``attribute``.
        """
        values = np.arange(1, self.cardinalities[attribute] + 1)
        steps = values.astype(self.dtype) * self.weights[attribute]
        return codes[:, np.newaxis] + steps[np.newaxis, :]

    def parents(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every parent: each deterministic digit set to 0.

        Returns ``(rows, parents)``: ``parents[t]`` is a parent of
        ``codes[rows[t]]``, grouped by row in attribute order (the order
        of :meth:`Pattern.parents`).
        """
        digits = self.digits(codes)
        rows, attributes = np.nonzero(digits)
        step = digits[rows, attributes].astype(self.dtype)
        return rows, codes[rows] - step * self._weight_array[attributes]

    def rule1_children(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Rule 1 (Theorem 3), grouped by the attribute it specializes.

        Yields ``(attribute, rows, children)`` for each attribute some code
        specializes: ``children[r]`` is the sibling family of
        ``codes[rows[r]]`` at ``attribute``, one child per value.  A code
        specializes every attribute right of its right-most deterministic
        digit.
        """
        last = _rightmost(self.digits(codes) != 0)
        for attribute in range(self.d):
            rows = np.flatnonzero(last < attribute)
            if len(rows):
                yield attribute, rows, self.family(codes[rows], attribute)

    def rule2_parents(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Rule 2 (Theorem 4), grouped by pivot attribute.

        A code generates the parent that X-es out pivot ``j`` when its
        digit at ``j`` is 1 (value 0) and no digit at or right of ``j`` is
        ``X``.  Yields ``(pivot, rows, parents)`` for each pivot with a
        generator; the parent's right-most ``X`` is the pivot, so
        ``family(parents, pivot)`` is the disjoint child family whose
        coverages sum to the parent's.
        """
        digits = self.digits(codes)
        last_x = _rightmost(digits == 0)
        for pivot in range(self.d):
            rows = np.flatnonzero((digits[:, pivot] == 1) & (last_x < pivot))
            if len(rows):
                yield pivot, rows, codes[rows] - self.weights[pivot]


def index_of(sorted_codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in ``sorted_codes``, -1 where absent.

    ``queries`` may have any shape; the result has the same one.
    """
    if not len(sorted_codes):
        return np.full(np.shape(queries), -1, dtype=np.int64)
    position = np.minimum(
        np.searchsorted(sorted_codes, queries), len(sorted_codes) - 1
    )
    return np.where(sorted_codes[position] == queries, position, -1)


def contains(sorted_codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query is in ``sorted_codes`` (same shape as queries)."""
    return index_of(sorted_codes, queries) >= 0


def _rightmost(flags: np.ndarray) -> np.ndarray:
    """Index of the last True of each row of a ``(k, d)`` array, else -1."""
    last = flags.shape[1] - 1 - np.argmax(flags[:, ::-1], axis=1)
    return np.where(flags.any(axis=1), last, -1)
