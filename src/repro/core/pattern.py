"""Patterns over categorical attributes (§II, Definitions 1–5 and 7).

A pattern is a vector of length ``d`` whose elements are either a concrete
attribute value or ``X`` (unspecified, "non-deterministic").  Patterns are
immutable and hashable so they can live in sets and dict keys — the MUP
algorithms rely on that heavily.

``X`` is represented internally by ``-1``; the string form uses the letter
``X`` exactly as the paper prints patterns (``1XX0``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.exceptions import PatternError

#: The non-deterministic ("unspecified") element marker.
X: int = -1


class Pattern:
    """An immutable pattern vector (Definition 1).

    Construct with :meth:`of`, :meth:`from_string`, or :meth:`root`; the raw
    constructor accepts an iterable of ints where ``X`` (= -1) marks
    non-deterministic elements.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(int(v) for v in values)
        for value in values:
            if value < X:
                raise PatternError(f"invalid pattern element {value}")
        self._values = values
        self._hash = hash(values)

    @classmethod
    def _trusted(cls, values: Tuple[int, ...]) -> "Pattern":
        """A pattern from a tuple of Python ints already known to be ≥ ``X``.

        Skips ``__init__``'s per-element conversion and check; only
        :meth:`~repro.core.lattice.PatternLattice.decode`, whose values are
        digits minus one, calls it.
        """
        pattern = object.__new__(cls)
        pattern._values = values
        pattern._hash = hash(values)
        return pattern

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *values: Union[int, None, str]) -> "Pattern":
        """Convenience constructor: ``Pattern.of(1, X, X, 0)``.

        ``None`` and ``"X"``/``"x"`` are accepted as aliases for ``X``.
        """
        normalized = []
        for value in values:
            if value is None or (isinstance(value, str) and value.upper() == "X"):
                normalized.append(X)
            else:
                normalized.append(int(value))
        return cls(normalized)

    @classmethod
    def from_string(cls, text: str) -> "Pattern":
        """Parse the paper's compact form, e.g. ``"1XX0"``.

        Only single-digit values are supported (cardinality ≤ 10), which
        covers every example in the paper; use :meth:`of` otherwise.
        """
        values = []
        for ch in text:
            if ch.upper() == "X":
                values.append(X)
            elif ch.isdigit():
                values.append(int(ch))
            else:
                raise PatternError(f"invalid pattern character {ch!r} in {text!r}")
        return cls(values)

    @classmethod
    def root(cls, d: int) -> "Pattern":
        """The all-``X`` pattern at level 0 (matches everything)."""
        if d < 1:
            raise PatternError(f"pattern length must be >= 1, got {d}")
        return cls([X] * d)

    @classmethod
    def from_tuple_row(cls, row: Sequence[int]) -> "Pattern":
        """The fully deterministic pattern equal to a value combination."""
        return cls(row)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> Tuple[int, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> int:
        return self._values[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._values == other._values

    def __lt__(self, other: "Pattern") -> bool:
        # Deterministic ordering for stable, reproducible outputs.
        return self._values < other._values

    def __repr__(self) -> str:
        return f"Pattern({self})"

    def __str__(self) -> str:
        return "".join("X" if v == X else str(v) for v in self._values)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of deterministic elements, the paper's ``ℓ(P)``."""
        return sum(1 for v in self._values if v != X)

    def is_deterministic(self, index: int) -> bool:
        """True if element ``index`` carries a concrete value."""
        return self._values[index] != X

    def deterministic_indices(self) -> Tuple[int, ...]:
        """Positions carrying concrete values."""
        return tuple(i for i, v in enumerate(self._values) if v != X)

    def nondeterministic_indices(self) -> Tuple[int, ...]:
        """Positions carrying ``X`` (the paper's ``A_P``)."""
        return tuple(i for i, v in enumerate(self._values) if v == X)

    @property
    def is_root(self) -> bool:
        """True for the all-``X`` pattern."""
        return all(v == X for v in self._values)

    @property
    def is_leaf(self) -> bool:
        """True when fully deterministic (a single value combination)."""
        return all(v != X for v in self._values)

    def rightmost_deterministic(self) -> int:
        """Index of the right-most deterministic element, or -1 (Rule 1)."""
        for index in range(len(self._values) - 1, -1, -1):
            if self._values[index] != X:
                return index
        return -1

    def rightmost_nondeterministic(self) -> int:
        """Index of the right-most ``X`` element, or -1 (Rule 2)."""
        for index in range(len(self._values) - 1, -1, -1):
            if self._values[index] == X:
                return index
        return -1

    # ------------------------------------------------------------------
    # matching and dominance (Definitions 1, 4, and the dominance notion)
    # ------------------------------------------------------------------
    def matches(self, row: Sequence[int]) -> bool:
        """Definition 1: ``M(t, P)`` — every deterministic element agrees."""
        if len(row) != len(self._values):
            raise PatternError(
                f"row of length {len(row)} against pattern of length {len(self._values)}"
            )
        return all(v == X or v == row[i] for i, v in enumerate(self._values))

    def covers(self, other: "Pattern") -> bool:
        """True if every combination matching ``other`` matches ``self``.

        Reflexive; ``dominates`` is the strict version used by the paper.
        """
        if len(other) != len(self._values):
            raise PatternError("patterns of different lengths are incomparable")
        return all(v == X or v == other[i] for i, v in enumerate(self._values))

    def dominates(self, other: "Pattern") -> bool:
        """Strict dominance: ``self`` is a proper generalization of ``other``."""
        return self != other and self.covers(other)

    def is_parent_of(self, other: "Pattern") -> bool:
        """Definition 4: parent = ``other`` with one deterministic element X'd."""
        return other.level == self.level + 1 and self.covers(other)

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def parents(self) -> Iterator["Pattern"]:
        """All parents (one deterministic element replaced with ``X``)."""
        for index in self.deterministic_indices():
            yield self.with_value(index, X)

    def with_value(self, index: int, value: int) -> "Pattern":
        """A copy with element ``index`` set to ``value`` (or ``X``)."""
        if not 0 <= index < len(self._values):
            raise PatternError(f"index {index} out of range")
        values = list(self._values)
        values[index] = value
        return Pattern(values)

    def merge_intersection(self, other: "Pattern") -> "Pattern":
        """Element-wise generalization: keep a value only where both agree.

        Used by the GREEDY implementation note (§IV-B): the intersection of
        the patterns a combination hits yields a more general collection
        recipe.
        """
        if len(other) != len(self._values):
            raise PatternError("patterns of different lengths cannot merge")
        return Pattern(
            a if a == b else X for a, b in zip(self._values, other._values)
        )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def describe(self, schema) -> str:
        """Human-readable rendering against a :class:`~repro.data.Schema`.

        Example: ``race=hispanic, marital_status=widowed``.
        """
        parts = []
        for index in self.deterministic_indices():
            parts.append(
                f"{schema.names[index]}={schema.value_label(index, self._values[index])}"
            )
        return ", ".join(parts) if parts else "(any)"


def parse_patterns(texts: Iterable[str]) -> Tuple[Pattern, ...]:
    """Parse several compact pattern strings at once (test convenience)."""
    return tuple(Pattern.from_string(t) for t in texts)
