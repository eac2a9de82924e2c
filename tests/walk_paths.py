"""Both of PATTERN-BREAKER's level walks, for the tests that pin a search.

``walk_dataset`` walks a coverage cube when the space passes
``cube_fits`` and groups the unique rows otherwise.  ``on_cube`` lifts the
rule's per-pattern limit under a level cap, so every space under the cell
cap (all that these tests draw) walks the cube; ``grouped`` sets the cell
cap to 0, so every space is counted by group-by.  ``spy_counts`` records
which of the two count structures each walk builds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.lattice as lattice_module


def counters(stats):
    return (
        stats.nodes_generated,
        stats.coverage_evaluations,
        stats.dominance_checks,
        stats.pruned,
    )


def by_code(walk):
    """A walk's (code, count, min parent) rows, in code order."""
    order = np.argsort(walk.codes)
    return (
        walk.codes[order].tolist(),
        walk.counts[order].tolist(),
        walk.min_parent[order].tolist(),
    )


def on_cube(search, *args, **kwargs):
    """``search(*args, **kwargs)`` on the cube whatever the level cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_module, "_CELLS_PER_CAPPED_PATTERN", 10**9)
        return search(*args, **kwargs)


def grouped(search, *args, **kwargs):
    """``search(*args, **kwargs)`` with the cube's cell cap at 0, so the
    walk counts every level by group-by."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_module, "_CUBE_CELLS", 0)
        return search(*args, **kwargs)


def on_both_walks(search, *args, **kwargs):
    """``search(*args, **kwargs)`` on the cube and by group-by: both must
    return the same MUP list and counters.  Returns the first."""
    cube = on_cube(search, *args, **kwargs)
    forced = grouped(search, *args, **kwargs)
    assert forced.mups == cube.mups
    assert counters(forced.stats) == counters(cube.stats)
    return cube


def spy_counts(monkeypatch):
    """Record which of the two count structures ``walk_dataset`` builds."""
    made = []
    for name in ("CoverageCube", "GroupCounter"):
        structure = getattr(lattice_module, name)

        def build(*args, structure=structure):
            made.append(structure.__name__)
            return structure(*args)

        monkeypatch.setattr(lattice_module, name, build)
    return made
