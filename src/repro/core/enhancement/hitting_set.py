"""Direct (naive) implementation of the greedy hitting-set (§IV-A, §V-C4).

Materializes the whole universe of valid value combinations and, at every
iteration, scans it to find the combination hitting the most un-hit targets.
This is the baseline Figure 17 shows timing out everywhere except the
smallest setting; it also provides an independent reference implementation
for tests (both greedy variants must pick equally-sized covers when tie
breaking is irrelevant).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import Stopwatch
from repro.core.enhancement.greedy import EnhancementResult
from repro.core.enhancement.oracle import ValidationOracle
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.exceptions import EnhancementError

#: The naive algorithm materializes the full combination universe; refuse
#: spaces where that is plainly hopeless.
_MAX_UNIVERSE = 2_000_000


def naive_greedy_cover(
    targets: Sequence[Pattern],
    space: PatternSpace,
    validation: Optional[ValidationOracle] = None,
    cost_fn=None,
) -> EnhancementResult:
    """Greedy hitting set by exhaustive scan (the paper's naive baseline).

    Args:
        targets: uncovered patterns to hit.
        space: the pattern space.
        validation: optional validation oracle.
        cost_fn: optional acquisition-cost function over value combinations
            (§IV motivates minimizing collection cost); when given, each
            iteration picks the combination maximizing newly-hit targets
            per unit cost instead of raw hit count.
    """
    validation = validation or ValidationOracle.permissive()
    watch = Stopwatch()
    if space.combination_count() > _MAX_UNIVERSE:
        raise EnhancementError(
            f"universe of {space.combination_count()} combinations is too "
            f"large for the naive algorithm; use greedy_cover"
        )
    for target in targets:
        space.validate(target)
    validation.check_space(space)

    universe: List[Tuple[int, ...]] = [
        combo
        for combo in space.all_combinations()
        if validation.is_valid_values(combo)
    ]
    m = len(targets)
    # hit_matrix[k, j] == True iff universe[k] matches targets[j].
    hit_matrix = np.zeros((len(universe), m), dtype=bool)
    for j, target in enumerate(targets):
        deterministic = target.deterministic_indices()
        column = np.ones(len(universe), dtype=bool)
        for index in deterministic:
            values = np.fromiter(
                (combo[index] for combo in universe), dtype=np.int64, count=len(universe)
            )
            np.logical_and(column, values == target[index], out=column)
        hit_matrix[:, j] = column

    costs = None
    if cost_fn is not None:
        costs = np.asarray([float(cost_fn(combo)) for combo in universe])
        if (costs <= 0).any():
            raise EnhancementError("cost_fn must return positive costs")

    remaining = np.ones(m, dtype=bool)
    combos: List[Tuple[int, ...]] = []
    generalized: List[Pattern] = []
    iterations = 0
    nodes = 0
    while remaining.any():
        iterations += 1
        gains = hit_matrix[:, remaining].sum(axis=1)
        nodes += len(universe)
        if costs is not None:
            best = int(np.argmax(np.where(gains > 0, gains / costs, -1.0)))
        else:
            best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        combo = universe[best]
        hits = np.logical_and(hit_matrix[best], remaining)
        hit_targets = [targets[j] for j in np.nonzero(hits)[0]]
        general_values = list(combo)
        for attribute in range(space.d):
            if all(t[attribute] == X for t in hit_targets):
                general_values[attribute] = X
        combos.append(combo)
        generalized.append(Pattern(general_values))
        np.logical_and(remaining, np.logical_not(hits), out=remaining)

    unhittable = tuple(targets[j] for j in np.nonzero(remaining)[0])
    return EnhancementResult(
        combinations=tuple(combos),
        generalized=tuple(generalized),
        targets=m,
        unhittable=unhittable,
        iterations=iterations,
        nodes_visited=nodes,
        seconds=watch.elapsed(),
    )
