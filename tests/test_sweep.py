"""Unit tests for the amortized threshold sweep and sensitivity reports."""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.lattice as lattice_module
from repro.analysis.sweep import (
    SweepPoint,
    parse_tau_range,
    sweep_mups,
    threshold_sensitivity,
)
from repro.analysis.thresholds import threshold_sweep
from repro.core.mups import find_mups
from repro.core.pattern import Pattern, X
from repro.data.airbnb import load_airbnb
from repro.data.compas import load_compas
from repro.data.dataset import Dataset, Schema
from repro.data.sampling import bootstrap_resample
from repro.data.scenarios import planted_mup_dataset, scenario_dataset
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import ReproError

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def dataset():
    return scenario_dataset("zipf", 80, (3, 4, 2), seed=7)


# ----------------------------------------------------------------------
# tau-range parsing
# ----------------------------------------------------------------------
def test_parse_tau_range_forms():
    assert parse_tau_range("5") == (5,)
    assert parse_tau_range("2:6") == (2, 3, 4, 5, 6)
    assert parse_tau_range("2:10:3") == (2, 5, 8)
    assert parse_tau_range("9,1,5,5") == (1, 5, 9)
    assert parse_tau_range(" 3:4 ") == (3, 4)


@pytest.mark.parametrize(
    "text", ["", "a:b", "2:10:0", "2:10:-1", "5:2", "1:2:3:4", "x", "2,a"]
)
def test_parse_tau_range_rejects(text):
    with pytest.raises(ReproError):
        parse_tau_range(text)


# ----------------------------------------------------------------------
# sweep_mups basics
# ----------------------------------------------------------------------
def test_sweep_rejects_bad_inputs(dataset):
    with pytest.raises(ReproError):
        sweep_mups(dataset, [])
    with pytest.raises(ReproError):
        sweep_mups(dataset, [0])
    with pytest.raises(ReproError):
        sweep_mups(dataset, [2], attributes=[])
    with pytest.raises(ReproError):
        sweep_mups(dataset, [2], attributes=[3])
    with pytest.raises(ReproError):
        sweep_mups(dataset, [2], max_level=-1)


@pytest.mark.parametrize("cap", [-1, 1.5, True])
def test_max_level_must_be_a_non_negative_integer(dataset, cap):
    with pytest.raises(ReproError, match="max_level"):
        sweep_mups(dataset, [2], max_level=cap)


def test_mups_at_outside_range_raises(dataset):
    sweep = sweep_mups(dataset, [3, 6])
    with pytest.raises(ReproError):
        sweep.mups_at(2)
    with pytest.raises(ReproError):
        sweep.mups_at(7)


def test_sweep_covers_interior_thresholds(dataset):
    """Any integer τ between the extremes is answerable, queried or not."""
    sweep = sweep_mups(dataset, [2, 8])
    for tau in range(2, 9):
        assert sweep.mups_at(tau).mups == find_mups(dataset, threshold=tau).mups


def test_empty_dataset_root_is_the_only_mup():
    empty = Dataset(
        Schema.of(["a", "b"], [2, 3]),
        __import__("numpy").zeros((0, 2), dtype=__import__("numpy").int32),
    )
    sweep = sweep_mups(empty, [1, 5])
    for tau in (1, 3, 5):
        assert sweep.mups_at(tau).mups == (Pattern.root(2),)


def test_sweep_amortizes_coverage_work(dataset):
    """One sweep counts each pattern once; independent runs re-count per τ."""
    thresholds = [2, 3, 5, 8]
    sweep = sweep_mups(dataset, thresholds)
    independent = sum(
        find_mups(dataset, threshold=tau).stats.coverage_evaluations
        for tau in thresholds
    )
    assert sweep.stats.coverage_evaluations < independent


def test_projection_matches_projected_dataset(dataset):
    attrs = (0, 2)
    sweep = sweep_mups(dataset, [1, 2, 4], attributes=attrs)
    assert sweep.attributes == attrs
    projected = Dataset(
        dataset.schema.project(list(attrs)), dataset.rows[:, attrs].copy()
    )
    for tau in (1, 2, 3, 4):
        reference = find_mups(projected, threshold=tau)
        embedded = []
        for pattern in reference.mups:
            values = [X] * dataset.d
            for j, a in enumerate(attrs):
                values[a] = pattern[j]
            embedded.append(Pattern(values))
        assert sweep.mups_at(tau).mups == tuple(sorted(embedded))


def test_projection_widens_into_object_codes():
    """45 binary attributes code patterns as Python ints; a projection onto
    four of them (three runs of consecutive attributes) widens into them."""
    wide = random_categorical_dataset(200, (2,) * 45, seed=3, skew=1.5)
    attrs = [0, 5, 6, 44]
    sweep = sweep_mups(wide, [3, 20], attributes=attrs)
    assert sweep._lattice.dtype == object and len(sweep._codes)
    flat = sweep_mups(wide.project(attrs), [3, 20])
    assert sweep._lattice.digits(sweep._codes)[:, attrs].tolist() == (
        flat._lattice.digits(flat._codes).tolist()
    )
    assert sweep.mup_counts() == flat.mup_counts()


@pytest.mark.parametrize("max_level", [None, 2], ids=["uncapped", "capped"])
@pytest.mark.parametrize("path", ["cube", "walk"])
def test_projected_sweep_is_the_projected_dataset_widened(path, max_level, monkeypatch):
    """On the cube, and walked in chunks of at most two candidates with the
    cube's cell cap at 0: a projected sweep keeps ``X`` outside the swept
    attributes, and its frontier and counters are those of the projected
    dataset's sweep, with the codes widened to full width."""
    data = random_categorical_dataset(300, (3, 2, 4, 2, 3), seed=9, skew=1.1)
    attrs = [0, 2, 3]
    if path == "walk":
        monkeypatch.setattr(lattice_module, "_CUBE_CELLS", 0)
        monkeypatch.setattr(lattice_module, "_CHUNK_CANDIDATES", 2)
    sweep = sweep_mups(data, [9, 30], attributes=attrs, max_level=max_level)
    flat = sweep_mups(data.project(attrs), [9, 30], max_level=max_level)
    digits = sweep._lattice.digits(sweep._codes)
    assert not digits[:, [1, 4]].any()
    assert digits[:, attrs].any()
    widened = np.zeros((len(flat._codes), data.d), dtype=np.int64)
    widened[:, attrs] = flat._lattice.digits(flat._codes)
    assert sweep._codes.tolist() == sweep._lattice.from_digits(widened).tolist()
    assert sweep._counts.tolist() == flat._counts.tolist()
    assert sweep._floors.tolist() == flat._floors.tolist()
    sweep.stats.seconds = flat.stats.seconds = 0.0
    assert sweep.stats == flat.stats
    # The cube counts all 4 · 5 · 3 cells; the walk prunes.
    assert (sweep.stats.pruned == 0) == (path == "cube")


def test_max_level_matches_capped_run(dataset):
    sweep = sweep_mups(dataset, [2, 5], max_level=1)
    for tau in (2, 4, 5):
        capped = find_mups(dataset, threshold=tau, max_level=1)
        assert sweep.mups_at(tau).mups == capped.mups
        assert sweep.mups_at(tau).max_level == 1


@pytest.mark.parametrize(
    "max_level,reads_cube",
    [(None, True), (10, True), (4, True), (3, True), (2, False), (0, False)],
)
def test_the_level_cap_chooses_the_path(max_level, reads_cube):
    """3**10 = 59,049 cells: the cube under no cap or a loose one, the walk
    once the cap leaves over 128 cells per pattern within it (level ≤ 2:
    201 patterns, 294 cells each; level ≤ 3: 1,161 patterns, 51 each)."""
    dataset = load_airbnb(n=3_000, d=10)
    sweep = sweep_mups(dataset, [3, 90], max_level=max_level)
    assert (sweep.stats.coverage_evaluations == 3**10) == reads_cube
    for tau in (3, 30, 90):
        assert sweep.mups_at(tau).mups == find_mups(
            dataset, threshold=tau, max_level=max_level
        ).mups


def test_sweep_point_interval():
    point = SweepPoint(Pattern.of(1, X), coverage=3, min_parent_coverage=7)
    assert point.appears_at == 4
    assert point.disappears_above == 7
    assert not point.is_mup_at(3)
    assert point.is_mup_at(4)
    assert point.is_mup_at(7)
    assert not point.is_mup_at(8)
    root = SweepPoint(Pattern.root(2), coverage=10, min_parent_coverage=None)
    assert root.is_mup_at(11) and not root.is_mup_at(10)
    assert root.disappears_above is None


def test_planted_patterns_guaranteed(dataset):
    planted = [Pattern.of(0, X, 1), Pattern.of(X, 2, X)]
    constructed = planted_mup_dataset((2, 4, 3), planted, threshold=3, seed=9)
    sweep = sweep_mups(constructed, [3])
    mups = set(sweep.mups_at(3).mups)
    assert set(planted) <= mups


# ----------------------------------------------------------------------
# threshold_sweep rides the amortized engine
# ----------------------------------------------------------------------
def test_threshold_sweep_matches_find_mups(dataset):
    rows = threshold_sweep(dataset, [6, 2, 4])
    assert [r.threshold for r in rows] == [6, 2, 4]
    for row in rows:
        reference = find_mups(dataset, threshold=row.threshold)
        assert row.mup_count == len(reference)
        assert row.max_covered_level == reference.max_covered_level(dataset.d)


def test_threshold_sweep_rejects_unknown_algorithm(dataset):
    with pytest.raises(ReproError):
        threshold_sweep(dataset, [2], algorithm="nope")


# ----------------------------------------------------------------------
# bootstrap + sensitivity
# ----------------------------------------------------------------------
def test_bootstrap_resample_is_deterministic(dataset):
    a = bootstrap_resample(dataset, seed=[3, 1])
    b = bootstrap_resample(dataset, seed=[3, 1])
    c = bootstrap_resample(dataset, seed=[3, 2])
    assert (a.rows == b.rows).all()
    assert a.n == dataset.n
    assert a.content_fingerprint() == b.content_fingerprint()
    assert a.content_fingerprint() != c.content_fingerprint()


def test_bootstrap_resample_empty():
    import numpy as np

    empty = Dataset(Schema.of(["a"], [2]), np.zeros((0, 1), dtype=np.int32))
    assert bootstrap_resample(empty, seed=1).n == 0


def test_sensitivity_report_structure(dataset):
    report = threshold_sensitivity(dataset, [2, 4, 8], bootstrap=4, seed=3)
    assert report.thresholds == (2, 4, 8)
    assert set(report.counts) == {2, 4, 8}
    # Diffs reconstruct the set walk: |mups(t2)| = |mups(t1)| + in - out.
    sweep = sweep_mups(dataset, [2, 4, 8])
    for previous, current in [(2, 4), (4, 8)]:
        delta = len(report.appeared[current]) - len(report.disappeared[current])
        assert report.counts[current] == report.counts[previous] + delta
        assert set(report.appeared[current]) == (
            sweep.mups_at(current).as_set() - sweep.mups_at(previous).as_set()
        )
    # Support tables cover exactly the base MUP sets, values in [0, 1].
    assert report.bootstrap_replicates == 4
    for tau in report.thresholds:
        assert set(report.support[tau]) == sweep.mups_at(tau).as_set()
        assert all(0.0 <= s <= 1.0 for s in report.support[tau].values())
        assert report.novel_rate[tau] >= 0.0
    stable = report.stable_mups(4, min_support=0.0)
    assert set(stable) == sweep.mups_at(4).as_set()


def test_sensitivity_deterministic_in_seed(dataset):
    first = threshold_sensitivity(dataset, [2, 5], bootstrap=3, seed=11)
    second = threshold_sensitivity(dataset, [2, 5], bootstrap=3, seed=11)
    assert first.as_dict() == second.as_dict()


def test_sensitivity_rejects_negative_bootstrap(dataset):
    with pytest.raises(ReproError):
        threshold_sensitivity(dataset, [2], bootstrap=-1)


@pytest.mark.parametrize(
    "arguments",
    [
        dict(thresholds=[3, 5]),
        dict(thresholds=[2, 8]),
        dict(thresholds=[2, 8], attributes=[0, 2]),
        dict(thresholds=[2, 8], attributes=[0, 1], max_level=1),
    ],
    ids=["thresholds-and-attributes", "attributes", "other-attributes", "max_level"],
)
def test_sensitivity_rejects_a_sweep_of_another_analysis(dataset, arguments):
    sweep = sweep_mups(dataset, [2, 8], attributes=[0, 1])
    with pytest.raises(ReproError, match="passed sweep"):
        threshold_sensitivity(dataset, sweep=sweep, bootstrap=2, **arguments)


def test_sensitivity_reuses_a_matching_sweep(dataset):
    """Arguments are compared in normalized form."""
    sweep = sweep_mups(dataset, [2, 8], attributes=[1, 0], max_level=2)
    reused = threshold_sensitivity(
        dataset, [8, 2, 2], attributes=(0, 1), max_level=2, bootstrap=2, sweep=sweep
    )
    fresh = threshold_sensitivity(
        dataset, [2, 8], attributes=[0, 1], max_level=2, bootstrap=2
    )
    assert reused.as_dict() == fresh.as_dict()


def test_stable_mups_requires_bootstrap(dataset):
    report = threshold_sensitivity(dataset, [2])
    with pytest.raises(ReproError):
        report.stable_mups(2)


# ----------------------------------------------------------------------
# golden fixtures: COMPAS / Airbnb sensitivity reports
# ----------------------------------------------------------------------
def test_golden_sensitivity_compas():
    expected = json.loads((FIXTURES / "sensitivity_compas.json").read_text())
    report = threshold_sensitivity(
        load_compas(n=400), [5, 10, 20, 40], bootstrap=3, seed=7
    )
    assert report.as_dict() == expected


def test_golden_sensitivity_airbnb():
    expected = json.loads((FIXTURES / "sensitivity_airbnb.json").read_text())
    report = threshold_sensitivity(
        load_airbnb(n=400, d=6), [2, 5, 10], bootstrap=3, seed=7
    )
    assert report.as_dict() == expected
