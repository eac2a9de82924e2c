"""MUP dominance index (Definition 9, Appendix B).

The index answers two questions of the set of MUPs discovered so far:

* does pattern ``P`` **dominate** some MUP (``P`` is a proper ancestor)?
* is ``P`` **dominated by** some MUP (``P`` is a proper descendant)?

Appendix B answers both with inverted indices: one bit vector per attribute
value plus one per-attribute vector for MUPs carrying ``X`` there, combined
with bitwise AND/OR and an early stop as soon as no surviving word is left.
Columns are MUPs, packed 64 per ``uint64`` word so a query over tens of
thousands of MUPs costs a few hundred word operations.  The index keeps
the OR already applied, as two tables with one row per attribute digit
(``X`` is digit 0 and value ``v`` digit ``v + 1``, the encoding of
:mod:`repro.core.lattice`):

* ``covers`` row ``(i, g)``: the MUPs whose element ``i`` covers digit
  ``g`` — ``X`` or the same value;
* ``covered`` row ``(i, g)``: the MUPs whose element ``i`` digit ``g``
  covers — every MUP for ``X``, else the same value.

A MUP covers ``P`` when its column survives the AND of ``P``'s ``covers``
rows, and ``P`` covers it when its column survives the AND of ``P``'s
``covered`` rows.  Both hold only for ``P``'s own column, so dropping the
columns that survive both makes the answers strict.

No search queries the index: in the Rule-1 order DEEPDIVER's dominance
question is "has an uncovered parent", which PATTERN-BREAKER's level walk
answers (see :mod:`repro.core.mups.diver`).  The index stays a public
structure over a set of MUPs, and the linear scans below are its
reference and the Appendix B ablation's baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.pattern import Pattern, X
from repro.exceptions import PatternError

_INITIAL_WORDS = 8  # 512 MUP columns


class MupDominanceIndex:
    """Incremental dominance index over a growing set of MUPs."""

    def __init__(self, cardinalities: Sequence[int]) -> None:
        self._cardinalities = tuple(int(c) for c in cardinalities)
        if not self._cardinalities:
            raise PatternError("need at least one attribute")
        d = len(self._cardinalities)
        sizes = np.array(self._cardinalities, dtype=np.int64)
        # Table row of attribute i's digit g: _offsets[i] + g.
        self._offsets = np.r_[0, np.cumsum(sizes + 1)[:-1]]
        # Each row's attribute and digit, for add().
        self._row_attribute = np.repeat(np.arange(d), sizes + 1)
        self._row_digit = np.arange(int((sizes + 1).sum())) - self._offsets[
            self._row_attribute
        ]
        self._size = 0
        self._words = _INITIAL_WORDS
        # _bits[row, 0]: the covers table; _bits[row, 1]: covered, whose X
        # rows hold every column added so far.
        self._bits = np.zeros((len(self._row_digit), 2, self._words), np.uint64)
        self._mups: List[Pattern] = []
        self._column_of: Dict[Pattern, int] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._mups)

    def patterns(self) -> List[Pattern]:
        """The MUPs added so far, in insertion order."""
        return list(self._mups)

    def _grow(self) -> None:
        self._words *= 2
        grown = np.zeros(self._bits.shape[:-1] + (self._words,), dtype=np.uint64)
        grown[..., : self._bits.shape[-1]] = self._bits
        self._bits = grown

    def _digits(self, pattern: Pattern) -> np.ndarray:
        """The pattern's digits, validated against the index's schema."""
        if len(pattern) != len(self._cardinalities):
            raise PatternError(
                f"pattern of length {len(pattern)} in a "
                f"{len(self._cardinalities)}-attribute index"
            )
        for i, value in enumerate(pattern):
            if value != X and not 0 <= value < self._cardinalities[i]:
                raise PatternError(f"value {value} out of range for attribute {i}")
        return np.array(pattern.values, dtype=np.int64) + 1

    def add(self, mup: Pattern) -> None:
        """Register a newly discovered MUP (idempotent for duplicates)."""
        digits = self._digits(mup)
        if mup in self._column_of:
            return
        if self._size == self._words * 64:
            self._grow()
        column = self._size
        word, bit = divmod(column, 64)
        flag = np.uint64(1 << bit)
        own = digits[self._row_attribute]
        covers = (own == 0) | (own == self._row_digit)
        self._bits[covers, 0, word] |= flag
        # Its own digit rows, and every X row, of `covered`.
        rows = np.concatenate((self._offsets, self._offsets + digits))
        self._bits[rows, 1, word] |= flag
        self._mups.append(mup)
        self._column_of[mup] = column
        self._size += 1

    def extend(self, mups: Iterable[Pattern]) -> None:
        for mup in mups:
            self.add(mup)

    # ------------------------------------------------------------------
    # queries (Appendix B)
    # ------------------------------------------------------------------
    def _start_mask(self, pattern: Pattern) -> np.ndarray:
        """All columns but the pattern's own, so dominance stays strict."""
        mask = self._bits[0, 1].copy()
        column = self._column_of.get(pattern)
        if column is not None:
            word, bit = divmod(column, 64)
            mask[word] &= np.uint64((~(1 << bit)) & 0xFFFFFFFFFFFFFFFF)
        return mask

    def dominates_any(self, pattern: Pattern) -> bool:
        """True if ``pattern`` strictly dominates some stored MUP.

        AND together the value vectors of the deterministic elements of
        ``pattern``; a surviving column is a MUP agreeing with ``pattern``
        everywhere ``pattern`` is deterministic, i.e. dominated by it.
        """
        rows = self._offsets + self._digits(pattern)
        if self._size == 0:
            return False
        mask = self._start_mask(pattern)
        for index in pattern.deterministic_indices():
            np.bitwise_and(mask, self._bits[rows[index], 1], out=mask)
            if not mask.any():
                return False
        return bool(mask.any())

    def dominated_by_any(self, pattern: Pattern) -> bool:
        """True if some stored MUP strictly dominates ``pattern``.

        For ``X`` elements of ``pattern`` the MUP must have ``X`` too; for
        deterministic elements the MUP may carry the same value or ``X``
        (the OR of the two vectors, per Appendix B, kept in ``covers``).
        """
        rows = self._offsets + self._digits(pattern)
        if self._size == 0:
            return False
        mask = self._start_mask(pattern)
        for row in rows.tolist():
            np.bitwise_and(mask, self._bits[row, 0], out=mask)
            if not mask.any():
                return False
        return bool(mask.any())

    def contains(self, pattern: Pattern) -> bool:
        """Exact membership test."""
        return pattern in self._column_of


def dominated_by_any_scan(mups: Sequence[Pattern], pattern: Pattern) -> bool:
    """Linear-scan reference for :meth:`MupDominanceIndex.dominated_by_any`.

    Used in tests and as the ablation baseline for Appendix B.
    """
    return any(m.dominates(pattern) for m in mups)


def dominates_any_scan(mups: Sequence[Pattern], pattern: Pattern) -> bool:
    """Linear-scan reference for :meth:`MupDominanceIndex.dominates_any`."""
    return any(pattern.dominates(m) for m in mups)
