"""The pattern graph as integer codes, one numpy array per level (§III-B).

A pattern is one mixed-radix integer: attribute ``i`` is a digit of radix
``c_i + 1`` in which ``X`` is digit 0 and value ``v`` is digit ``v + 1``,
and attribute 0 is the most significant digit.  Codes therefore sort
exactly like :class:`~repro.core.pattern.Pattern` (``X`` before every
value), and a lattice level — the patterns of one graph level that a
level-wise traversal holds at once — is a code array that numpy moves as a
whole.  Digits, parents, children, Rule-1 children, Rule-2 generators,
sibling families and sorted membership are each a few vectorized passes
over the level instead of one Python object per node; ``Pattern`` objects
are built only for the answers, when a reader asks for them
(:class:`PatternCodes`, :meth:`PatternLattice.decode`).

:func:`walk_levels` is PATTERN-BREAKER's level-wise traversal (§III-C)
over these codes, shared by PATTERN-BREAKER, DEEPDIVER, the hierarchy
searches and the threshold sweep over the cube cap, and
:class:`GroupCounter` counts its levels, a bounded chunk of whole
attribute subsets at a time: the candidates of a level that fix the same
attribute subset ``S`` are all counted by one group-by of the unique rows
on ``S``, the group-by behind iceberg-cube computation (Beyer &
Ramakrishnan, SIGMOD 1999), with no match mask and no engine call.
:class:`CoverageCube` is the full cube instead (Gray et al., ICDE 1996):
every code's count and smallest parent count in two arrays.

One rule, :func:`cube_fits`, says when a space is small enough for the
cube.  Then the threshold sweep reads its answer from the cube, and
:func:`walk_dataset` reads PATTERN-BREAKER's walk off a cube built for
the call by whole-cube masks.  By induction on the level, the covered
candidates of a level are all of its covered patterns (a covered
pattern's parents are covered, because coverage only falls going down),
so the walk generates a pattern iff its Rule-1 parent is covered and
counts it iff its smallest parent count reaches τ.  Larger spaces run
:func:`walk_levels`.

Codes are ``int64`` while the space has fewer than ``2**63`` nodes and
Python ints in an ``object`` array beyond that (45 binary attributes
already need it).  The dtype is fixed once per space and both run the same
code.  :class:`~repro.core.pattern_graph.PatternSpace` keeps the
pattern-level version of every move here as the readable reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import SearchStats, Stopwatch, product_int
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, combination_index
from repro.exceptions import PatternError

#: Spaces with at least this many nodes code patterns as Python ints.
_INT64_NODES = 2**63

#: Minimum over no parents (the root's).
UNBOUNDED = np.iinfo(np.int64).max

#: A subset's key space is tallied with ``bincount`` up to this many slots
#: per unique row (plus a constant); larger ones sort the rows instead.
_BINCOUNT_SLOTS_PER_ROW = 4
_BINCOUNT_MIN_SLOTS = 256

#: Most row keys one ``bincount`` pass builds over several subsets.
_PASS_ENTRIES = 1 << 19

#: :func:`walk_levels` prunes and counts a level in chunks of whole
#: attribute subsets, at most this many candidates each unless one subset
#: alone holds more.
_CHUNK_CANDIDATES = 1 << 15

#: Largest space, in patterns, read from a :class:`CoverageCube` (16 bytes
#: a cell: 16 MiB plus one pass's temporaries); larger spaces are walked
#: level by level and counted by group-by.  A speed crossover: the cube
#: costs every cell and the group-by walk what the data holds.  On sparse
#: data the group-by walk was faster from 1.4M cells up, both for the
#: threshold sweep and for PATTERN-BREAKER's walk.
_CUBE_CELLS = 1 << 20

#: :meth:`PatternLattice.decode` turns this many digits into values per
#: numpy pass.  Against one pass per whole column (2-vCPU x86 VM) it took
#: 13.9 against 13.8 ms for 8,975 codes of 11 attributes, 214 against
#: 294 ms for 126,000 codes of 13, and 10 against 13 µs for 8 codes of 3.
_DECODE_DIGITS = 1 << 12

#: Under a level cap the group-by walk visits at most the patterns within
#: the cap, each costing it about as much as this many cube cells, so the
#: cube is read only when it has at most this many cells per such
#: pattern.  On the sweep's measured inputs the walk won at every ratio
#: from 153 up, and the cube at all but one (a sparse input, by 8%) from
#: 121 down.
_CELLS_PER_CAPPED_PATTERN = 128


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
        self._radices = np.array([c + 1 for c in self.cardinalities])

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
        # A chunk of codes at a time: one broadcast pass each, and little
        # transient memory beside the patterns being built.  Floor division
        # and modulo make every digit >= 0 and tolist() gives Python ints,
        # so each value is a valid element and Pattern.__init__'s check is
        # skipped.
        patterns: List[Pattern] = []
        step = max(1, _DECODE_DIGITS // self.d)
        for start in range(0, len(codes), step):
            chunk = codes[start : start + step, np.newaxis]
            columns = (chunk // self._weight_array % self._radices - 1).T.tolist()
            patterns.extend(map(Pattern._trusted, zip(*columns)))
        return patterns

    def from_digits(self, digits: np.ndarray) -> np.ndarray:
        """The code of each row of a ``(k, d)`` digit matrix."""
        # One column at a time: no (k, d) temporary of the code dtype.
        codes = np.zeros(len(digits), dtype=self.dtype)
        for i, weight in enumerate(self.weights):
            codes += digits[:, i].astype(self.dtype) * weight
        return codes

    def combination_index(self, rows: np.ndarray) -> np.ndarray:
        """Row-major position of each full value combination (a ``(k, d)``
        value array) in the ``Π c_i`` combination grid."""
        return combination_index(rows, self.cardinalities)

    def combination_digits(self, index: np.ndarray, dtype=np.int64) -> np.ndarray:
        """The ``(k, d)`` digit matrix of the full value combinations at
        grid positions ``index``, in ``dtype`` and column-major order (each
        attribute's digits contiguous).

        Ascending positions have ascending codes.
        """
        index = np.asarray(index, dtype=np.int64)
        digits = np.empty((len(index), self.d), dtype=dtype, order="F")
        for i in range(self.d - 1, -1, -1):
            index, value = np.divmod(index, self.cardinalities[i])
            digits[:, i] = value + 1
        return digits

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
        return self._parents(codes, self.digits(codes))

    def _parents(
        self, codes: np.ndarray, digits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        rows, attributes = np.nonzero(digits)
        step = digits[rows, attributes].astype(self.dtype)
        return rows, codes[rows] - step * self._weight_array[attributes]

    def children(self, codes: np.ndarray) -> np.ndarray:
        """Every child of every code: each ``X`` digit set to each value of
        its attribute (:meth:`PatternSpace.children`).

        Grouped by attribute, then code, then value, so one code's children
        come in :meth:`PatternSpace.children` order.
        """
        digits = self.digits(codes)
        return np.concatenate(
            [
                self.family(codes[digits[:, attribute] == 0], attribute).ravel()
                for attribute in range(self.d)
            ]
        )

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
        return self._rule1_children(codes, self.digits(codes))

    def _rule1_children(
        self, codes: np.ndarray, digits: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        last = _rightmost(digits != 0)
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
        return self._rule2_parents(codes, digits, _rightmost(digits == 0))

    def _rule2_parents(
        self, codes: np.ndarray, digits: np.ndarray, last_x: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        for pivot in range(self.d):
            rows = np.flatnonzero((digits[:, pivot] == 1) & (last_x < pivot))
            if len(rows):
                yield pivot, rows, codes[rows] - self.weights[pivot]


class PatternCodes(Sequence[Pattern]):
    """The sorted pattern list of ascending, unique codes of one lattice.

    An immutable sequence that reads like the sorted ``List[Pattern]`` it
    stands for: ``len``, iteration, int and slice indexing (a slice is a
    list), membership, and ``==`` against lists.  Two ``PatternCodes`` are
    equal when their patterns are, whatever the cardinalities of their
    lattices; a tuple is never equal to one, as it is never equal to a
    list.  Unhashable, like a list.

    The codes are checked once, in numpy: ascending, unique and within
    the lattice.  The patterns are decoded on first read and kept.
    Consumers that work on codes read :attr:`codes` or :meth:`digits`
    instead and decode nothing.
    """

    __slots__ = ("_lattice", "_codes", "_patterns")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, lattice: PatternLattice, codes: np.ndarray) -> None:
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise PatternError(f"pattern codes must be 1-D, got shape {codes.shape}")
        if codes.dtype != lattice.dtype:
            if len(codes) and codes.dtype.kind not in "iu":
                raise PatternError(f"pattern codes must be integers, got {codes.dtype}")
            codes = codes.astype(lattice.dtype)
        if len(codes):
            if not (codes[1:] > codes[:-1]).all():
                raise PatternError("pattern codes must be ascending and unique")
            size = product_int(c + 1 for c in lattice.cardinalities)
            if codes[0] < 0 or codes[-1] >= size:
                raise PatternError(f"pattern codes must lie in [0, {size})")
        codes = codes.view()
        codes.flags.writeable = False
        self._lattice = lattice
        self._codes = codes
        self._patterns: Optional[List[Pattern]] = None

    @property
    def lattice(self) -> PatternLattice:
        return self._lattice

    @property
    def codes(self) -> np.ndarray:
        """The ascending codes, a read-only array of the lattice's dtype."""
        return self._codes

    def digits(self) -> np.ndarray:
        """The ``(m, d)`` digit matrix of the codes (:meth:`PatternLattice.digits`)."""
        return self._lattice.digits(self._codes)

    def _decoded(self) -> List[Pattern]:
        if self._patterns is None:
            self._patterns = self._lattice.decode(self._codes)
        return self._patterns

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._decoded())

    def __getitem__(self, index):
        return self._decoded()[index]

    def __contains__(self, pattern: object) -> bool:
        if not isinstance(pattern, Pattern) or len(pattern) != self._lattice.d:
            return False
        code = 0
        for value, cardinality, weight in zip(
            pattern, self._lattice.cardinalities, self._lattice.weights
        ):
            if not X <= value < cardinality:
                return False
            code += (value + 1) * weight
        position = int(np.searchsorted(self._codes, code))
        return position < len(self._codes) and bool(self._codes[position] == code)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PatternCodes):
            if len(self) != len(other):
                return False
            if self._lattice.cardinalities == other._lattice.cardinalities:
                return np.array_equal(self._codes, other._codes)
            # Digits, not codes: over other cardinalities a pattern has
            # another code.
            return not len(self) or np.array_equal(self.digits(), other.digits())
        if isinstance(other, list):
            return self._decoded() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PatternCodes({self._decoded()!r})"


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


class GroupCounter:
    """Coverage of lattice patterns by grouping the unique rows.

    The patterns that fix the same attribute subset ``S`` share one
    group-by of the unique rows on ``S``: every row and pattern is keyed
    in ``S``'s own mixed radix (``Π_{i∈S} c_i`` keys) and multiplicities
    are summed per key — by one ``bincount`` over many subsets while the
    key spaces are small, else by one sort and two ``searchsorted`` calls
    per subset.  ``rows`` are value combinations of the lattice's
    attributes with their ``multiplicities``, and may repeat (a projection
    of a dataset's :meth:`~repro.data.Dataset.unique_rows`).
    """

    def __init__(
        self, lattice: PatternLattice, rows: np.ndarray, multiplicities: np.ndarray
    ) -> None:
        self._cardinalities = np.asarray(lattice.cardinalities, dtype=np.int64)
        columns = np.asarray(rows, dtype=np.int64).reshape(-1, lattice.d)
        self._columns = np.ascontiguousarray(columns.T)
        self._weights = np.asarray(multiplicities, dtype=np.int64)
        self._bits = _subset_bits(lattice.d)

    def __call__(self, digits: np.ndarray) -> np.ndarray:
        """The coverage of each row of a ``(k, d)`` digit matrix."""
        counts = np.zeros(len(digits), dtype=np.int64)
        width = len(self._weights)
        deterministic = digits != 0
        sizes = deterministic.sum(axis=1)
        for size in np.unique(sizes).tolist() if width else ():
            rows = np.flatnonzero(sizes == size)
            _, first, group = np.unique(
                deterministic[rows] @ self._bits, return_index=True, return_inverse=True
            )
            subsets = np.nonzero(deterministic[rows[first]])[1]
            subsets = subsets.reshape(len(first), size)
            values = digits[rows[:, np.newaxis], subsets[group]] - 1
            slots = np.prod(self._cardinalities[subsets], axis=1, dtype=float)
            small = slots <= _BINCOUNT_SLOTS_PER_ROW * width + _BINCOUNT_MIN_SLOTS
            order = np.argsort(group, kind="stable")
            bounds = np.r_[0, np.cumsum(np.bincount(group))]
            for subset in np.flatnonzero(~small).tolist():
                members = order[bounds[subset] : bounds[subset + 1]]
                counts[rows[members]] = self._sorted(subsets[subset], values[members])
            # The small subsets, in passes of a bounded number of row keys.
            small = np.flatnonzero(small)
            step = max(1, _PASS_ENTRIES // (width + _BINCOUNT_MIN_SLOTS))
            for start in range(0, len(small), step):
                ids = small[start : start + step]
                local = np.full(len(subsets), -1)
                local[ids] = np.arange(len(ids))
                members = np.flatnonzero(local[group] >= 0)
                counts[rows[members]] = self._tally(
                    subsets[ids], values[members], local[group[members]]
                )
        return counts

    def _tally(
        self, subsets: np.ndarray, values: np.ndarray, local: np.ndarray
    ) -> np.ndarray:
        """One ``bincount`` over same-size subsets, each keyed into its own
        slot range of one table; ``values[r]`` belongs to ``subsets[local[r]]``."""
        cards = self._cardinalities[subsets]
        slots = cards.prod(axis=1)
        base = np.cumsum(slots) - slots
        row_keys = np.zeros((len(subsets), len(self._weights)), dtype=np.int64)
        keys = np.zeros(len(values), dtype=np.int64)
        for j in range(subsets.shape[1]):
            row_keys *= cards[:, j, None]
            row_keys += self._columns[subsets[:, j]]
            keys = keys * cards[local, j] + values[:, j]
        row_keys += base[:, None]
        table = np.bincount(
            row_keys.ravel(),
            weights=np.tile(self._weights, len(subsets)),
            minlength=int(slots.sum()),
        )
        return table[keys + base[local]].astype(np.int64)

    def _sorted(self, subset: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One subset: sort the row keys, then two binary searches per
        pattern over the cumulative multiplicities."""
        cards = self._cardinalities[subset].tolist()
        # Python-int keys where the subset's key space passes int64.
        big = np.prod(cards, dtype=float) >= 2.0**62
        row_keys = np.zeros(len(self._weights), dtype=object if big else np.int64)
        keys = np.zeros(len(values), dtype=row_keys.dtype)
        for j, cardinality in enumerate(cards):
            row_keys = row_keys * cardinality + self._columns[subset[j]]
            keys = keys * cardinality + values[:, j]
        order = np.argsort(row_keys, kind="stable")
        cumulative = np.r_[0, np.cumsum(self._weights[order])]
        row_keys = row_keys[order]
        high = np.searchsorted(row_keys, keys, side="right")
        return cumulative[high] - cumulative[np.searchsorted(row_keys, keys)]


class CoverageCube:
    """Every pattern's coverage and smallest parent count, indexed by code.

    The full data cube of Gray et al. (*Data Cube*, ICDE 1996) over one
    :class:`PatternLattice`: ``counts[code]`` is the pattern's coverage and
    ``floors[code]`` its smallest parent count (:data:`UNBOUNDED` for the
    root).  ``X`` is digit 0 and attribute 0 the most significant digit, so
    the C-order flat index of a ``(c_0 + 1, …, c_{d−1} + 1)`` array is the
    lattice code.  Built in 2d passes over that array: the rows' counts
    fill the bottom cells, then for each attribute the ``X`` slice becomes
    the sum of the value slices (every cell then holds its coverage), then
    for each attribute the floors of the value slices take the minimum with
    the ``X`` slice, the parent that X-es that attribute out.

    ``rows`` are value combinations of the lattice's attributes with their
    ``multiplicities``, and may repeat (a projection of a dataset's
    :meth:`~repro.data.Dataset.unique_rows`): repeats are summed by one
    weighted ``bincount``, exact while ``n < 2**53``.  The two arrays take
    16 bytes per cell, :attr:`size` cells whatever the data holds.
    """

    def __init__(
        self, lattice: PatternLattice, rows: np.ndarray, multiplicities: np.ndarray
    ) -> None:
        self.lattice = lattice
        self.size = product_int(c + 1 for c in lattice.cardinalities)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, lattice.d)
        counts = np.bincount(
            lattice.from_digits(rows + 1),
            weights=np.asarray(multiplicities, dtype=np.float64),
            minlength=self.size,
        ).astype(np.int64)
        for view in self._axes(counts):
            view[:, 0] = view[:, 1:].sum(axis=1)
        floors = np.full(self.size, UNBOUNDED)
        for cells, view in zip(self._axes(floors), self._axes(counts)):
            np.minimum(cells[:, 1:], view[:, :1], out=cells[:, 1:])
        self.counts: np.ndarray = counts
        self.floors: np.ndarray = floors

    def levels(self) -> np.ndarray:
        """Each cell's level, its number of deterministic digits (``int8``:
        a cube of ``d`` attributes has at least ``2**d`` cells)."""
        levels = np.zeros(self.size, dtype=np.int8)
        for view in self._axes(levels):
            view[:, 1:] += 1
        return levels

    def _axes(self, cells: np.ndarray) -> Iterator[np.ndarray]:
        """For each attribute, a ``(before, c + 1, after)`` view of a flat
        cell array whose middle axis is that attribute's digit."""
        before = 1
        for cardinality, weight in zip(self.lattice.cardinalities, self.lattice.weights):
            yield cells.reshape(before, cardinality + 1, weight)
            before *= cardinality + 1


def cube_fits(cardinalities: Sequence[int], max_level: Optional[int] = None) -> bool:
    """Whether a space over ``cardinalities`` is read from a
    :class:`CoverageCube` rather than walked and counted by group-by.

    The rule of :func:`~repro.analysis.sweep.sweep_mups` and of
    :func:`walk_dataset`: at most :data:`_CUBE_CELLS` cells and, under a
    level cap, at most :data:`_CELLS_PER_CAPPED_PATTERN` cells for each
    pattern within the cap.
    """
    # Python ints: 45 binary attributes already pass 2**63 cells.
    cells = product_int(c + 1 for c in cardinalities)
    return cells <= _CUBE_CELLS and (
        max_level is None
        or cells
        <= _CELLS_PER_CAPPED_PATTERN * _patterns_within(cardinalities, max_level)
    )


def _patterns_within(cardinalities: Sequence[int], max_level: int) -> int:
    """How many patterns over ``cardinalities`` have level ≤ ``max_level``.

    ``widths[k]`` counts the patterns of level ``k`` over the attributes
    seen so far; each attribute adds its ``c`` values to every pattern of
    one level lower.
    """
    widths = [1]
    for cardinality in cardinalities:
        widths = [a + cardinality * b for a, b in zip(widths + [0], [0] + widths)]
    return sum(widths[: max_level + 1])


@dataclass(frozen=True)
class LevelWalk:
    """What one level walk counted.

    ``codes[r]`` is a counted candidate, ``counts[r]`` its coverage and
    ``min_parent[r]`` its smallest parent count (:data:`UNBOUNDED` for the
    root).  :func:`walk_levels` lists the rows level by level, each level
    in attribute-subset order; a walk of the cube (:func:`walk_dataset`)
    lists them in code order.  Both walks of one space give the same rows.
    """

    lattice: PatternLattice
    threshold: int
    codes: np.ndarray
    counts: np.ndarray
    min_parent: np.ndarray
    stats: SearchStats

    def mups(self) -> PatternCodes:
        """The MUPs, sorted and decoded on first read: the candidates below
        the threshold (every parent of a candidate is covered)."""
        below = self.codes[self.counts < self.threshold]
        return PatternCodes(self.lattice, np.sort(below))


def walk_levels(
    lattice: PatternLattice,
    count: Callable[[np.ndarray], np.ndarray],
    threshold: int,
    max_level: Optional[int] = None,
) -> LevelWalk:
    """PATTERN-BREAKER's level-wise traversal (§III-C, Algorithm 1).

    Level by level from the root: prune every candidate with a parent that
    was uncovered or pruned, count the rest with ``count`` (a ``(k, d)``
    ``int64`` digit matrix in, coverages out, e.g. a
    :class:`GroupCounter`), and break the covered ones into their Rule-1
    children (Theorem 3: each node is generated once) until
    ``max_level``.

    Memory stays bounded on wide levels.  A level's digits are ``int8``
    when every digit fits, and its candidates are sorted by attribute
    subset, then pruned and counted in chunks of whole subsets
    (:data:`_CHUNK_CANDIDATES`): only a chunk's parents and ``int64``
    digits exist at once, and each subset still reaches ``count`` in one
    call per level.  Within a level, :attr:`LevelWalk.codes` come in
    subset order.
    """
    watch = Stopwatch()
    depth = lattice.d if max_level is None else min(max_level, lattice.d)
    stats = SearchStats()
    narrow = max(lattice.cardinalities) <= np.iinfo(np.int8).max
    codes = lattice.root()
    digits = np.zeros((1, lattice.d), dtype=np.int8 if narrow else np.int64)
    found = [(codes[:0], np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for level in range(depth + 1):
        if not len(codes):
            break
        stats.nodes_generated += len(codes)
        order, cuts = _subset_chunks(digits)
        codes, digits = codes[order], digits[order]
        del order
        kept = []
        for start, stop in zip(cuts, cuts[1:]):
            chunk, chunk_digits = codes[start:stop], digits[start:stop]
            wide = chunk_digits.astype(np.int64)
            floor = np.full(len(chunk), UNBOUNDED)
            if level:
                # Each candidate has `level` parents; one missing from the
                # covered codes was uncovered or pruned.  The parent arrays,
                # `level` times the chunk, are dropped before counting.
                parents = lattice._parents(chunk, wide)[1]
                position = index_of(covered_codes, parents).reshape(-1, level)
                del parents
                alive = (position >= 0).all(axis=1)
                stats.pruned += len(chunk) - int(alive.sum())
                chunk, chunk_digits, wide = chunk[alive], chunk_digits[alive], wide[alive]
                floor = covered_counts[position[alive]].min(axis=1)
                del position
            counts = np.asarray(count(wide), dtype=np.int64)
            stats.coverage_evaluations += len(chunk)
            found.append((chunk, counts, floor))
            covered = counts >= threshold
            kept.append((chunk[covered], counts[covered], chunk_digits[covered]))

        codes, counts, digits = (np.concatenate(column) for column in zip(*kept))
        del kept
        order = np.argsort(codes)
        covered_codes, covered_counts = codes[order], counts[order]
        del order, counts
        if level == depth:
            break
        codes, digits = _rule1_level(lattice, codes, digits)

    stats.seconds = watch.elapsed()
    codes, counts, floors = (np.concatenate(column) for column in zip(*found))
    return LevelWalk(lattice, threshold, codes, counts, floors, stats)


def walk_dataset(
    dataset: Dataset, threshold: int, max_level: Optional[int] = None
) -> LevelWalk:
    """PATTERN-BREAKER's level walk over a dataset's pattern space.

    A space that :func:`cube_fits` is read off a :class:`CoverageCube`
    built from the unique rows for this call (:func:`_walk_cube`); a
    larger one is walked by :func:`walk_levels`, counted by a
    :class:`GroupCounter` over the unique rows.

    Both give the same :class:`LevelWalk` rows and counters.  By induction
    on the level, the group-by walk's covered codes are every covered
    pattern of their level.  A covered pattern's parents are covered too,
    because coverage only falls going down, so they are all covered codes
    of the level above: the pattern is generated from its Rule-1 parent,
    survives pruning and is counted covered.  Hence a candidate's parent
    is missing from the covered codes iff that parent is uncovered, iff
    the candidate's floor (its smallest parent count) is below τ, and the
    smallest parent count the group-by walk reads is the floor.

    So within the level cap a pattern other than the root is generated iff
    its Rule-1 parent (its right-most deterministic digit set to ``X``) is
    covered.  The counted patterns are the cells whose floor reaches τ,
    since every parent of such a cell is covered, and the pruned ones are
    the rest of the generated.  A covered pattern below the cap generates
    ``c_i`` children at each attribute ``i`` right of its right-most
    deterministic digit, so ``nodes_generated`` is 1 + Σ_i c_i · #{covered
    cells below the cap whose digits from ``i`` on are all ``X``}:
    ``Π_{j<i} (c_j + 1)`` cells for attribute ``i``, about cells / c in
    all.  The two walks list the rows in different orders (see
    :class:`LevelWalk`).
    """
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))
    rows, multiplicities = dataset.unique_rows()
    if cube_fits(lattice.cardinalities, max_level):
        return _walk_cube(lattice, rows, multiplicities, threshold, max_level)
    count = GroupCounter(lattice, rows, multiplicities)
    return walk_levels(lattice, count, threshold, max_level)


def _walk_cube(
    lattice: PatternLattice,
    rows: np.ndarray,
    multiplicities: np.ndarray,
    threshold: int,
    max_level: Optional[int],
) -> LevelWalk:
    """:func:`walk_levels`' rows, in code order, and counters read from a
    :class:`CoverageCube` by whole-cube masks, with no level generated (see
    :func:`walk_dataset`).  The cube's build is timed with the walk."""
    watch = Stopwatch()
    cube = CoverageCube(lattice, rows, multiplicities)
    depth = lattice.d if max_level is None else min(max_level, lattice.d)
    # Uncapped, every cell is within the cap and every slice below it, and
    # skipping the level array saves 0.7 of 5.0 ms on identify-airbnb's
    # input (2-vCPU x86 VM, medians of 15 paired rounds, IQRs < 0.4 ms).
    levels = cube.levels() if depth < lattice.d else None
    counted = cube.floors >= threshold
    if levels is not None:
        counted &= levels <= depth
    generated = 1
    for cardinality, counts in zip(lattice.cardinalities, cube._axes(cube.counts)):
        # The cells whose digits from this attribute on are all X.
        breaking = counts[:, 0, 0] >= threshold
        if levels is not None:
            breaking &= levels.reshape(counts.shape)[:, 0, 0] < depth
        generated += cardinality * int(np.count_nonzero(breaking))
    codes = np.flatnonzero(counted)
    stats = SearchStats(generated, len(codes), pruned=generated - len(codes))
    stats.seconds = watch.elapsed()
    return LevelWalk(
        lattice, threshold, codes, cube.counts[codes], cube.floors[codes], stats
    )


def _rule1_level(
    lattice: PatternLattice, codes: np.ndarray, digits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The next level of a walk: every Rule-1 child of every code, with
    its digits (of ``digits``' dtype)."""
    children = [(codes[:0], digits[:0])]
    for attribute, rows, family in lattice._rule1_children(codes, digits):
        block = np.repeat(digits[rows], family.shape[1], axis=0)
        block[:, attribute] = np.tile(np.arange(1, family.shape[1] + 1), len(rows))
        children.append((family.ravel(), block))
    return tuple(np.concatenate(column) for column in zip(*children))


def _subset_bits(d: int) -> np.ndarray:
    """Bit ``i`` of an attribute subset's key is attribute ``i`` (Python
    ints past 63 attributes)."""
    return np.array([1 << i for i in range(d)], dtype=np.int64 if d < 64 else object)


def _subset_chunks(digits: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Sort a level's candidates by attribute subset and cut them into
    chunks of whole subsets.

    Returns ``(order, cuts)``: ``digits[order]`` groups the candidates by
    subset, and chunk ``j`` is ``[cuts[j], cuts[j + 1])`` of that order,
    at most :data:`_CHUNK_CANDIDATES` candidates unless it is one larger
    subset.
    """
    keys = (digits != 0) @ _subset_bits(digits.shape[1])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ends = np.r_[np.flatnonzero(keys[1:] != keys[:-1]) + 1, len(keys)]
    cuts = [0]
    while cuts[-1] < len(keys):
        # The last subset end within reach, else the next subset whole.
        first = np.searchsorted(ends, cuts[-1], side="right")
        last = np.searchsorted(ends, cuts[-1] + _CHUNK_CANDIDATES, side="right") - 1
        cuts.append(int(ends[max(first, last)]))
    return order, cuts


def _rightmost(flags: np.ndarray) -> np.ndarray:
    """Index of the last True of each row of a ``(k, d)`` array, else -1."""
    last = flags.shape[1] - 1 - np.argmax(flags[:, ::-1], axis=1)
    return np.where(flags.any(axis=1), last, -1)
