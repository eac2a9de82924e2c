"""The readers of a threshold sweep, pinned to the eager reference.

A :class:`~repro.analysis.sweep.SweepResult` keeps its frontier as code
arrays and decodes patterns only for what a reader returns.
``tests/sweep_reference.py`` decodes the whole frontier up front and
answers every reader from :class:`SweepPoint` rows, as the sweep once
did.  Both must give the same ``frontier``, ``mups_at`` at every τ in
range, ``mup_counts()``, ``breakpoints()`` and sensitivity report, on the
coverage cube and on the level walk.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import repro.core.lattice as lattice_module
from repro.analysis.sweep import sweep_mups, threshold_sensitivity
from repro.data.airbnb import load_airbnb
from repro.data.dataset import Dataset, Schema
from repro.data.scenarios import SCENARIO_FAMILIES, scenario_dataset
from repro.exceptions import ReproError
from sweep_reference import reference_sensitivity, reference_sweep

#: Each path's patch: the cube whatever the level cap (every space drawn
#: here is under the cell cap), or the walk, with the cell cap at 0.
PATHS = {
    "cube": ("_CELLS_PER_CAPPED_PATTERN", 10**9),
    "walk": ("_CUBE_CELLS", 0),
}


@st.composite
def cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d)
    )
    n = draw(st.integers(min_value=0, max_value=48))
    dataset = scenario_dataset(
        draw(st.sampled_from(SCENARIO_FAMILIES)),
        n,
        tuple(cardinalities),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    thresholds = draw(
        st.lists(
            st.integers(min_value=1, max_value=n + 3), min_size=1, max_size=4
        )
    )
    attributes = draw(
        st.none()
        | st.lists(
            st.integers(min_value=0, max_value=d - 1),
            min_size=1,
            max_size=d,
            unique=True,
        )
    )
    max_level = draw(st.none() | st.integers(min_value=0, max_value=d))
    return dataset, thresholds, attributes, max_level


def _empty():
    return Dataset(Schema.of(["a", "b"], [2, 3]), np.zeros((0, 2), dtype=np.int32))


def _check_readers(dataset, thresholds, attributes, max_level, seed):
    sweep = sweep_mups(dataset, thresholds, attributes=attributes, max_level=max_level)
    reference = reference_sweep(dataset, thresholds, attributes, max_level)
    for tau in range(sweep.tau_min, sweep.tau_max + 1):
        found, expected = sweep.mups_at(tau), reference.mups_at(tau)
        assert found.mups == expected.mups, tau
        assert (found.threshold, found.max_level) == (tau, sweep.max_level)
    assert sweep.mup_counts() == reference.mup_counts()
    assert sweep.breakpoints() == reference.breakpoints()
    assert sweep.frontier == reference.frontier
    report = threshold_sensitivity(
        dataset,
        thresholds,
        attributes=attributes,
        max_level=max_level,
        bootstrap=2,
        seed=seed,
        sweep=sweep,
    )
    expected = reference_sensitivity(
        dataset, thresholds, attributes, max_level, bootstrap=2, seed=seed
    )
    assert report.as_dict() == expected.as_dict()
    assert report.support == expected.support


@pytest.mark.parametrize("path", sorted(PATHS))
@given(case=cases(), seed=st.integers(min_value=0, max_value=2**16))
@example(case=(_empty(), [1, 3], None, None), seed=0)
@example(case=(_empty(), [2], [1], 0), seed=0)
@example(  # τ above n: the root is on the frontier
    case=(scenario_dataset("zipf", 12, (3, 2), seed=5), [2, 13, 15], None, None),
    seed=1,
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_readers_match_the_eager_reference(path, case, seed):
    name, value = PATHS[path]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_module, name, value)
        _check_readers(*case, seed)


def test_a_frontier_holding_the_root_is_read_alike():
    dataset = scenario_dataset("zipf", 12, (3, 2), seed=5)
    sweep = sweep_mups(dataset, [2, 15])
    root = sweep.frontier[0]
    assert (root.coverage, root.min_parent_coverage) == (12, None)
    assert root.pattern in sweep.mups_at(13)
    assert sweep.breakpoints()[0].disappears_above is None


@pytest.fixture
def decoded(monkeypatch):
    """How many patterns ``PatternLattice.decode`` has returned."""
    calls = []
    decode = lattice_module.PatternLattice.decode

    def counting(self, codes):
        patterns = decode(self, codes)
        calls.append(len(patterns))
        return patterns

    monkeypatch.setattr(lattice_module.PatternLattice, "decode", counting)
    return calls


@pytest.mark.parametrize("path", sorted(PATHS))
def test_readers_decode_only_what_they_return(path, decoded, monkeypatch):
    monkeypatch.setattr(lattice_module, *PATHS[path])
    dataset = load_airbnb(n=3_000, d=8)
    sweep = sweep_mups(dataset, [3, 30, 90])
    assert sum(decoded) == 0
    assert sum(sweep.mup_counts().values()) > 0
    assert sum(decoded) == 0
    # Each frontier row is decoded once: a reader decodes only the
    # patterns it returns that no earlier reader did.
    seen = set()
    for tau in (3, 30, 31, 90):
        decoded.clear()
        result = sweep.mups_at(tau)
        assert len(result) > 0
        assert sum(decoded) == len(result.as_set() - seen)
        seen |= result.as_set()
    assert len(seen) < sum(len(sweep.mups_at(tau)) for tau in (3, 30, 31, 90))
    decoded.clear()
    frontier = sweep.frontier
    assert sweep.frontier is frontier
    assert sum(decoded) == len(frontier) - len(seen)
    decoded.clear()
    assert sweep.mups_at(30).mups == tuple(
        point.pattern for point in frontier if point.is_mup_at(30)
    )
    assert sum(decoded) == 0


def test_equality_compares_patterns_not_codes():
    """Swept on attribute 0 alone, datasets whose attribute 1 has other
    cardinalities have equal frontiers under different codes."""
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]], dtype=np.int32)
    narrow = Dataset(Schema.of(["a", "b"], [2, 2]), rows)
    wide = Dataset(Schema.of(["a", "b"], [2, 5]), rows)
    first = sweep_mups(narrow, [1, 3], attributes=[0])
    second = sweep_mups(wide, [1, 3], attributes=[0])
    assert first._codes.tolist() != second._codes.tolist()
    assert first != second  # the stats' seconds differ
    assert first == dataclasses.replace(second, stats=first.stats)
    assert first.frontier == second.frontier
    other = sweep_mups(narrow, [1, 4], attributes=[0])
    assert first != dataclasses.replace(other, stats=first.stats)


def test_sensitivity_rejects_a_sweep_of_other_cardinalities():
    rows = np.array([[0, 0], [1, 1]], dtype=np.int32)
    sweep = sweep_mups(Dataset(Schema.of(["a", "b"], [2, 2]), rows), [1, 2])
    other = Dataset(Schema.of(["a", "b"], [2, 3]), rows)
    with pytest.raises(ReproError, match="cardinalities"):
        threshold_sensitivity(other, [1, 2], sweep=sweep)
