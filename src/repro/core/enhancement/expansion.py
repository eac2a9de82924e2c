"""Expansion of MUPs into the hitting-set targets ``M_λ`` (Appendix C).

Covering only the MUPs does not guarantee a maximum covered level of λ:
a MUP at level 2 can be "hit" by a single combination while most of its
level-3 children stay empty.  Appendix C therefore expands every MUP of
level ≤ λ into its descendants at *exactly* level λ; covering all of those
covers every pattern at level ≤ λ as well.

The expansion is a level walk over :class:`~repro.core.lattice.PatternLattice`
codes (:func:`walk_descendants`): level ``k + 1`` is every child of level
``k`` plus the MUPs at level ``k + 1``, deduplicated by one sort and an
adjacent-difference mask, so each level holds exactly the MUPs' descendants
at that level.  The MUPs are checked and encoded from one element matrix
(:func:`validated_elements`, which GREEDY builds for targets given as
patterns), and the last level is returned as its codes, a
:class:`~repro.core.lattice.PatternCodes`: GREEDY reads their digits and
decodes only the targets it cannot hit, and any other reader decodes them
into :class:`~repro.core.pattern.Pattern` objects on first read.
:meth:`PatternSpace.descendants_at_level
<repro.core.pattern_graph.PatternSpace.descendants_at_level>` is the
pattern-level reference.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.lattice import PatternCodes, PatternLattice
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.exceptions import EnhancementError


def uncovered_at_level(
    mups: Iterable[Pattern],
    space: PatternSpace,
    level: int,
    limit: Optional[int] = None,
) -> PatternCodes:
    """The set of uncovered patterns at exactly ``level`` (the paper's M_λ).

    Every uncovered pattern at ``level`` is a descendant of (or is) some MUP
    with level ≤ ``level``, because all ancestors of a MUP are covered.
    MUPs deeper than ``level`` are ignored: the patterns above them at
    ``level`` are covered.

    Args:
        mups: the material MUPs of the dataset; all are validated against
            ``space`` before any is expanded.
        space: the pattern space (for cardinalities).
        level: the target λ, an integer in ``[0, d]``.
        limit: safety cap on the number of targets; more than ``limit``
            distinct targets raise :class:`EnhancementError`.

    Returns:
        The target patterns, sorted and deduplicated, as the codes of
        ``space``'s lattice (decoded on first read).
    """
    level = _integer("level", level)
    if not 0 <= level <= space.d:
        raise EnhancementError(f"level {level} out of range [0, {space.d}]")
    limit = None if limit is None else _integer("limit", limit)
    if limit is not None and limit < 0:
        raise EnhancementError(f"limit must be >= 0, got {limit}")
    elements = validated_elements(list(mups), space)
    lattice = PatternLattice(space)
    shallow = (elements != X).sum(axis=1) <= level
    codes = lattice.from_digits(elements[shallow] + 1)
    for k, targets in walk_descendants(lattice, codes, level):
        # Every level-k pattern has a level-λ descendant, and each target
        # has C(λ, k) ancestors at level k: a wider level k proves the cap
        # is exceeded before the walk reaches λ.
        if limit is not None and len(targets) > limit * math.comb(level, k):
            raise EnhancementError(
                f"more than {limit} targets at level {level}; "
                f"raise the limit or lower λ"
            )
    return PatternCodes(lattice, targets)


def validated_elements(patterns: Sequence[Pattern], space: PatternSpace) -> np.ndarray:
    """The patterns' elements as an ``(m, d)`` ``int64`` matrix.

    Raises the :class:`~repro.exceptions.PatternError` that
    ``space.validate`` raises for the first pattern, in input order, that
    does not fit the space.
    """
    values = [pattern.values for pattern in patterns]
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    if (lengths != space.d).any():
        first = int(np.argmax(lengths != space.d))
        validated_elements(patterns[:first], space)  # an earlier bad value comes first
        space.validate(patterns[first])
    try:
        elements = np.fromiter(
            chain.from_iterable(values), dtype=np.int64, count=len(values) * space.d
        ).reshape(len(values), space.d)
    except OverflowError:
        # A value past int64 is out of every attribute's range.
        for pattern in patterns:
            space.validate(pattern)
        raise
    out_of_range = (elements != X) & (
        (elements < 0) | (elements >= np.asarray(space.cardinalities))
    )
    if out_of_range.any():
        space.validate(patterns[int(np.argmax(out_of_range.any(axis=1)))])
    return elements


def walk_descendants(
    lattice: PatternLattice,
    codes: np.ndarray,
    last: int,
    keep: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """The descendants of ``codes`` (themselves included), level by level.

    ``codes`` lie at levels ≤ ``last``.  Yields ``(k, level)`` for every
    ``k`` from the shallowest code's level to ``last`` (only ``last`` when
    ``codes`` is empty): ``level`` is the sorted unique descendants at
    level ``k``, every child of level ``k - 1`` plus the codes at level
    ``k``.  ``keep`` maps a code array to a mask of the codes to keep; it
    must keep every parent of a code it keeps, since a dropped code's
    descendants are never generated.
    """
    depth = (lattice.digits(codes) != 0).sum(axis=1)
    level = codes[:0]
    for k in range(int(depth.min(initial=last)), last + 1):
        level = np.concatenate([lattice.children(level), codes[depth == k]])
        if keep is not None:
            level = level[keep(level)]
        # np.unique's hash path for int64 is several times slower than a
        # sort; this is its sorted output, for int64 and object codes alike.
        level = np.sort(level)
        if len(level) > 1:
            level = level[np.r_[True, level[1:] != level[:-1]]]
        yield k, level


def _integer(name: str, value: object) -> int:
    """``value`` as a Python int: numpy integers pass, ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise EnhancementError(f"{name} must be an integer, got {value!r}")
    return int(value)
