"""Thresholds are integers at every library entry point.

τ is a non-boolean integer ≥ 1 (numpy integers included) and a threshold
rate a finite, non-boolean real ≥ 0.  Anything else raises ``ReproError``
rather than being truncated: ``cov < 2.9`` means τ = 3, so running at
``int(2.9) = 2`` would answer the wrong question.  Each entry point gets a
table of rejected forms and one of accepted forms; accepted forms answer
exactly what the plain ``int`` answers.  ``enhance_coverage`` holds the
number of copies it collects per combination to the same rule, and raises
``EnhancementError`` for anything but an integer ≥ 1.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.sweep import sweep_mups, threshold_sensitivity
from repro.analysis.thresholds import threshold_sweep
from repro.core.enhancement import enhance_coverage
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups import find_mups
from repro.data.scenarios import scenario_dataset
from repro.exceptions import EnhancementError, ReproError

NAN, INF = float("nan"), float("inf")

#: Not an integer τ; the sweep entry points take each inside a list.
BAD_TAUS = [2.9, 3.0, np.float64(2.5), Fraction(5, 2), Decimal(3), True, "3", NAN]
BAD_IDS = ["2.9", "3.0", "np.float64", "Fraction", "Decimal", "True", "str", "nan"]

#: Integer τ in every accepted form; each must answer as τ = 3.
GOOD_TAUS = [3, np.int64(3), np.int32(3), np.uint8(3)]
GOOD_IDS = ["int", "np.int64", "np.int32", "np.uint8"]


@pytest.fixture(scope="module")
def dataset():
    return scenario_dataset("zipf", 80, (3, 4, 2), seed=7)


# ----------------------------------------------------------------------
# find_mups (resolve_threshold)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_find_mups_rejects(dataset, tau):
    with pytest.raises(ReproError, match="threshold"):
        find_mups(dataset, threshold=tau)


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_find_mups_accepts(dataset, tau):
    result = find_mups(dataset, threshold=tau)
    assert type(result.threshold) is int
    assert result.mups == find_mups(dataset, threshold=3).mups


@pytest.mark.parametrize(
    "rate",
    [NAN, INF, -INF, -0.5, True, "0.1", np.bool_(True)],
    ids=["nan", "inf", "-inf", "negative", "True", "str", "np.bool_"],
)
def test_find_mups_rejects_rate(dataset, rate):
    with pytest.raises(ReproError, match="threshold_rate"):
        find_mups(dataset, threshold_rate=rate)


@pytest.mark.parametrize(
    "rate,tau",
    [
        (0, 1),
        (0.0, 1),
        (0.05, 4),
        (np.float64(0.05), 4),
        (np.float32(0.5), 40),
        (Fraction(1, 20), 4),
        (1, 80),
    ],
    ids=["0", "0.0", "0.05", "np.float64", "np.float32", "Fraction", "1"],
)
def test_find_mups_accepts_rate(dataset, rate, tau):
    result = find_mups(dataset, threshold_rate=rate)
    assert result.threshold == tau and type(result.threshold) is int
    assert result.mups == find_mups(dataset, threshold=tau).mups


# ----------------------------------------------------------------------
# sweep_mups, SweepResult.mups_at, stable_mups, threshold_sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_sweep_rejects(dataset, tau):
    with pytest.raises(ReproError, match="threshold"):
        sweep_mups(dataset, [tau, 5])


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_sweep_accepts(dataset, tau):
    sweep = sweep_mups(dataset, [5, tau])
    assert sweep.thresholds == (3, 5)
    assert all(type(t) is int for t in sweep.thresholds)
    assert sweep.frontier == sweep_mups(dataset, [3, 5]).frontier


def test_sweep_accepts_a_numpy_array(dataset):
    sweep = sweep_mups(dataset, np.array([5, 3]))
    assert sweep.thresholds == (3, 5)
    assert all(type(t) is int for t in sweep.thresholds)


@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_mups_at_rejects(dataset, tau):
    sweep = sweep_mups(dataset, [1, 5])
    with pytest.raises(ReproError, match="threshold"):
        sweep.mups_at(tau)


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_mups_at_accepts(dataset, tau):
    sweep = sweep_mups(dataset, [1, 5])
    result = sweep.mups_at(tau)
    assert type(result.threshold) is int
    assert result.mups == sweep.mups_at(3).mups


@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_stable_mups_rejects(dataset, tau):
    report = threshold_sensitivity(dataset, [1, 2, 3], bootstrap=2, seed=1)
    with pytest.raises(ReproError, match="threshold"):
        report.stable_mups(tau)


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_stable_mups_accepts(dataset, tau):
    report = threshold_sensitivity(dataset, [1, 2, 3], bootstrap=2, seed=1)
    assert report.stable_mups(tau, 0.0) == report.stable_mups(3, 0.0)


@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_threshold_sweep_rejects(dataset, tau):
    with pytest.raises(ReproError, match="threshold"):
        threshold_sweep(dataset, [5, tau])


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_threshold_sweep_accepts(dataset, tau):
    rows = threshold_sweep(dataset, [5, tau])
    assert [row.threshold for row in rows] == [5, 3]
    assert all(type(row.threshold) is int for row in rows)
    assert rows == threshold_sweep(dataset, [5, 3])


# ----------------------------------------------------------------------
# IncrementalMupIndex
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_incremental_index_rejects(dataset, tau):
    with pytest.raises(ReproError, match="threshold"):
        IncrementalMupIndex(dataset, threshold=tau)


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_incremental_index_accepts(dataset, tau):
    index = IncrementalMupIndex(dataset, threshold=tau)
    assert index.threshold == 3 and type(index.threshold) is int
    assert index.mups() == IncrementalMupIndex(dataset, threshold=3).mups()


# ----------------------------------------------------------------------
# enhance_coverage (τ and the copies collected per combination)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def level3_mups(dataset):
    """MUPs at τ = 6, whose level-3 targets need 19 combinations."""
    return find_mups(dataset, threshold=6).mups


def _enhance(dataset, mups, **options):
    return enhance_coverage(dataset, mups, level=3, **options)


@pytest.mark.parametrize("tau", BAD_TAUS, ids=BAD_IDS)
def test_enhance_coverage_rejects(dataset, level3_mups, tau):
    with pytest.raises(ReproError, match="threshold"):
        _enhance(dataset, level3_mups, threshold=tau)


@pytest.mark.parametrize(
    "copies",
    [2.5, 2.0, np.float64(2.0), Fraction(4, 2), True, "2", NAN],
    ids=["2.5", "2.0", "np.float64", "Fraction", "True", "str", "nan"],
)
def test_enhance_coverage_rejects_copies(dataset, level3_mups, copies):
    with pytest.raises(EnhancementError, match="copies"):
        _enhance(dataset, level3_mups, threshold=6, copies=copies)


@pytest.mark.parametrize("tau", GOOD_TAUS, ids=GOOD_IDS)
def test_enhance_coverage_accepts(dataset, level3_mups, tau):
    result, enhanced = _enhance(dataset, level3_mups, threshold=tau)
    expected, rows = _enhance(dataset, level3_mups, threshold=3)
    assert len(result.combinations) == 19
    assert result.combinations == expected.combinations
    assert enhanced.n == rows.n == dataset.n + 3 * 19


@pytest.mark.parametrize("copies", GOOD_TAUS, ids=GOOD_IDS)
def test_enhance_coverage_accepts_copies(dataset, level3_mups, copies):
    result, enhanced = _enhance(dataset, level3_mups, threshold=6, copies=copies)
    assert enhanced.n == dataset.n + 3 * len(result.combinations)
