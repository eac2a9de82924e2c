"""Property suite pinning the amortized threshold sweep.

Three families of guarantees:

* **Equivalence** — ``sweep_mups(...).mups_at(τ)`` is bit-identical to an
  independent ``find_mups`` run at every τ in the swept range, on every
  coverage-engine spec (packed / auto / a prebuilt engine), over
  scenario-generated datasets (zipf marginals, latent-factor correlation,
  planted MUPs with known ground truth);
* **Monotonicity** — as τ grows the uncovered space only grows, so every
  MUP at a smaller τ is dominated-by-or-equal-to some MUP at any larger τ
  (the frontier nests upward);
* **Breakpoints** — each frontier pattern's τ* interval endpoints are
  exact: the pattern is a MUP at ``appears_at`` and ``disappears_above``
  and not a MUP just outside them.

The sweep reads a coverage cube when the swept space fits its private
caps and walks the lattice otherwise.  The equivalence legs run both
paths (a cell cap of 0 forces the walk), and a fourth family pins the two
paths to each other: identical frontier rows and MUP sets, with and
without an attribute subset, at every level cap from 0 to ``d`` (its cube
leg lifts the level-cap rule, so tight caps read the cube too).

The normal-suite legs run a fixed-seed (derandomized) profile; the
``-m slow`` job layers a deeper randomized sweep on top.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.core.lattice as lattice_module
from repro.analysis.sweep import sweep_mups
from repro.core.engine import CoverageEngine
from repro.core.mups import find_mups
from repro.core.pattern import Pattern, X
from repro.data.scenarios import (
    SCENARIO_FAMILIES,
    planted_mup_dataset,
    scenario_dataset,
    zipfian_cardinalities,
)

#: Engine specs the equivalence leg sweeps: both names, and (built per
#: dataset by :func:`_spec`) a prebuilt engine.
BACKENDS = (
    "packed",
    "auto",
    pytest.param(lambda dataset: CoverageEngine(dataset), id="prebuilt"),
)


def _spec(backend, dataset):
    """``backend`` as an engine spec for ``dataset``."""
    return backend(dataset) if callable(backend) else backend


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
@st.composite
def sweep_cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        cardinalities = zipfian_cardinalities(
            d,
            seed=draw(st.integers(min_value=0, max_value=64)),
            max_cardinality=6,
        )
    else:
        cardinalities = tuple(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=5),
                    min_size=d,
                    max_size=d,
                )
            )
        )
    family = draw(st.sampled_from(SCENARIO_FAMILIES))
    n = draw(st.integers(min_value=0, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    dataset = scenario_dataset(
        family,
        n,
        cardinalities,
        seed=seed,
        skew=draw(st.sampled_from([0.6, 1.1, 2.0])),
        correlation=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    thresholds = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(2, n + 2)),
            min_size=1,
            max_size=5,
        )
    )
    return dataset, sorted(set(thresholds))


@st.composite
def path_cases(draw):
    dataset, thresholds = draw(sweep_cases())
    d = dataset.d
    attributes = None
    if draw(st.booleans()):
        attributes = draw(
            st.lists(
                st.integers(min_value=0, max_value=d - 1),
                min_size=1,
                max_size=d,
                unique=True,
            )
        )
    max_level = draw(st.none() | st.integers(min_value=0, max_value=d))
    return dataset, thresholds, attributes, max_level


@st.composite
def planted_cases(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    cardinalities = tuple(
        draw(
            st.lists(
                st.integers(min_value=2, max_value=4), min_size=d, max_size=d
            )
        )
    )
    # One planted pattern with 1..d deterministic values keeps the
    # non-domination precondition trivially satisfied.
    level = draw(st.integers(min_value=1, max_value=d))
    indices = draw(
        st.permutations(list(range(d))).map(lambda p: sorted(p[:level]))
    )
    values = [X] * d
    for index in indices:
        values[index] = draw(
            st.integers(min_value=0, max_value=cardinalities[index] - 1)
        )
    threshold = draw(st.integers(min_value=1, max_value=4))
    dataset = planted_mup_dataset(
        cardinalities,
        [Pattern(values)],
        threshold=threshold,
        n=draw(st.integers(min_value=0, max_value=64)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return dataset, Pattern(values), threshold


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _walked_sweep(*args, **kwargs):
    """``sweep_mups`` with the cube's cap at 0, so the lattice is walked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_module, "_CUBE_CELLS", 0)
        return sweep_mups(*args, **kwargs)


def _cube_sweep(*args, **kwargs):
    """``sweep_mups`` reading the cube whatever the level cap (every
    space drawn here is under the cell cap)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_module, "_CELLS_PER_CAPPED_PATTERN", 10**9)
        return sweep_mups(*args, **kwargs)


def _check_equivalence(dataset, thresholds, backend):
    spec = _spec(backend, dataset)
    sweeps = {
        "cube": sweep_mups(dataset, thresholds, engine=spec),
        "walk": _walked_sweep(dataset, thresholds, engine=spec),
    }
    lo, hi = min(thresholds), max(thresholds)
    # Every integer τ in the closed range, not only the queried settings:
    # the frontier intervals claim to classify all of them.
    for tau in range(lo, hi + 1):
        independent = find_mups(dataset, threshold=tau, engine=spec)
        for path, sweep in sweeps.items():
            amortized = sweep.mups_at(tau)
            assert amortized.mups == independent.mups, (path, backend, tau)
            assert amortized.threshold == independent.threshold


def _check_paths_agree(dataset, thresholds, attributes, max_level):
    cube = _cube_sweep(dataset, thresholds, attributes=attributes, max_level=max_level)
    walk = _walked_sweep(
        dataset, thresholds, attributes=attributes, max_level=max_level
    )
    swept = range(dataset.d) if attributes is None else attributes
    cells = 1
    for attribute in swept:
        cells *= dataset.schema.cardinalities[attribute] + 1
    # The cube path ran, and its counters are its cells.
    assert (
        cube.stats.nodes_generated,
        cube.stats.coverage_evaluations,
        cube.stats.pruned,
    ) == (cells, cells, 0)

    def rows(sweep):
        return [
            (point.pattern, point.coverage, point.min_parent_coverage)
            for point in sweep.frontier
        ]

    assert rows(cube) == rows(walk)
    for tau in range(cube.tau_min, cube.tau_max + 1):
        assert cube.mups_at(tau).mups == walk.mups_at(tau).mups, tau


def _check_nesting(dataset, thresholds):
    sweep = sweep_mups(dataset, thresholds)
    previous = None
    for tau in range(sweep.tau_min, sweep.tau_max + 1):
        current = sweep.mups_at(tau).mups
        if previous is not None:
            for mup in previous:
                assert any(q.covers(mup) for q in current), (tau, mup)
        previous = current


def _check_breakpoints(dataset, thresholds):
    sweep = sweep_mups(dataset, thresholds)
    lo, hi = sweep.tau_min, sweep.tau_max
    for point in sweep.frontier:
        start = point.appears_at
        assert point.is_mup_at(max(start, lo))
        if lo <= start - 1:
            assert not point.is_mup_at(start - 1)
        stop = point.disappears_above
        if stop is not None:
            assert point.is_mup_at(min(stop, hi)) or stop < lo
            if stop + 1 <= hi:
                assert not point.is_mup_at(stop + 1)
        # Cross-check interval membership against the classified sets.
        for tau in range(lo, hi + 1):
            in_set = point.pattern in sweep.mups_at(tau)
            assert in_set == point.is_mup_at(tau), (point, tau)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@given(sweep_cases())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_sweep_matches_independent_runs(backend, case):
    """Bit-identical MUP sets at every τ in range, on every backend."""
    dataset, thresholds = case
    _check_equivalence(dataset, thresholds, backend)


@given(sweep_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sweep_frontier_nests_upward(case):
    """Every MUP at τ is covered by some MUP at τ+1 (frontier moves up)."""
    dataset, thresholds = case
    _check_nesting(dataset, thresholds)


@given(sweep_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sweep_breakpoints_are_exact(case):
    """τ* endpoints match the classified MUP sets exactly."""
    dataset, thresholds = case
    _check_breakpoints(dataset, thresholds)


@given(planted_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sweep_recovers_planted_mups(case):
    """Constructed ground truth: the planted pattern is in the MUP set."""
    dataset, planted, threshold = case
    sweep = sweep_mups(dataset, [threshold])
    assert planted in sweep.mups_at(threshold)
    # And the independent run agrees (the construction is algorithm-free).
    assert planted in find_mups(dataset, threshold=threshold)


@given(path_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cube_and_walk_sweep_alike(case):
    """Identical frontier rows and MUP sets on the cube and the walk."""
    _check_paths_agree(*case)


@pytest.mark.parametrize("attributes", [None, (0, 2), (1,)], ids=["all", "0-2", "1"])
@pytest.mark.parametrize("max_level", [None, 0, 1, 2, 3])
def test_cube_and_walk_sweep_alike_at_every_level_cap(attributes, max_level):
    dataset = scenario_dataset("zipf", 80, (3, 4, 2), seed=7)
    _check_paths_agree(dataset, [1, 3, 6, 40], attributes, max_level)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@given(sweep_cases())
@settings(max_examples=50, deadline=None)
def test_sweep_matches_independent_runs_deep(backend, case):
    """Slow-job profile: a deeper randomized equivalence sweep."""
    dataset, thresholds = case
    _check_equivalence(dataset, thresholds, backend)


@pytest.mark.slow
@given(path_cases())
@settings(max_examples=300, deadline=None)
def test_cube_and_walk_sweep_alike_deep(case):
    """Slow-job profile: a deeper randomized sweep of the two paths."""
    _check_paths_agree(*case)
