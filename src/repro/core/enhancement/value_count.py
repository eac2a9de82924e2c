"""Value-count variant of coverage enhancement (Definition 7, §II/§IV).

Instead of a maximum covered level, the owner may require that every
uncovered pattern whose *value count* (number of value combinations matching
it) is at least ``v`` be covered.  The proposed solution is identical once
the target set is enumerated, which is what this module does.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.enhancement.expansion import walk_descendants
from repro.core.lattice import PatternCodes, PatternLattice
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.exceptions import EnhancementError


def targets_by_value_count(
    mups: Iterable[Pattern],
    space: PatternSpace,
    min_value_count: int,
) -> PatternCodes:
    """Enumerate uncovered patterns with value count ≥ ``min_value_count``.

    The uncovered patterns are exactly the patterns covered by some MUP
    (including the MUPs themselves); specializing a pattern only shrinks its
    value count, so the enumeration walks the MUPs' descendants level by
    level (:func:`~repro.core.enhancement.expansion.walk_descendants`) and
    drops every pattern whose count falls below the bound, with all of its
    descendants.  Returns the targets sorted, as lattice codes
    (:class:`~repro.core.lattice.PatternCodes`, decoded on first read).
    """
    if min_value_count < 1:
        raise EnhancementError(
            f"min_value_count must be >= 1, got {min_value_count}"
        )
    mups = [space.validate(mup) for mup in mups]
    lattice = PatternLattice(space)
    # Value counts in the lattice dtype: Python ints where Π c_i passes int64.
    cardinalities = np.array(lattice.cardinalities, dtype=lattice.dtype)

    def keep(codes: np.ndarray) -> np.ndarray:
        free = lattice.digits(codes) == 0
        return np.where(free, cardinalities, 1).prod(axis=1) >= min_value_count

    levels = walk_descendants(lattice, lattice.encode(mups), space.d, keep)
    # Levels share no code, so the sorted union has no repeats.
    return PatternCodes(
        lattice, np.sort(np.concatenate([codes for _, codes in levels]))
    )
