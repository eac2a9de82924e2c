"""Figure 16 — level-limited DEEPDIVER scaling to tens of attributes.

Paper setting: n=1M, τ rate 0.1%, d from 10 to 35, with the exploration
depth capped at max ℓ ∈ {2, 4, 6, 8}.  Paper shape: with a level cap the
search scales to 35 attributes (level-2 MUPs in ~10s in the paper's Java),
and lower caps are strictly cheaper — the dangerous shallow MUPs stay
findable even when the full graph is hopeless.

Here the capped DEEPDIVER is PATTERN-BREAKER's level walk stopped at the
cap.  In the Rule-1 order the two searches visit the same nodes
(:mod:`repro.core.mups.diver` has the proof), so the shape holds for
the same reason: the walk never generates a level below the cap.  The
DFS's own strengths, early MUPs and a small stack, have no caller here:
``find_mups`` returns all MUPs at once.
"""

import pytest

import _config as config
from _harness import emit, timed

from repro.core.coverage import CoverageOracle
from repro.core.mups import deepdiver
from repro.data.airbnb import load_airbnb


def test_fig16_series(benchmark):
    rows = []
    seconds_by_cap = {cap: [] for cap in config.LEVEL_LIMITS}

    def sweep():
        for d in config.LEVEL_LIMITED_DIMS:
            dataset = load_airbnb(n=config.LEVEL_LIMITED_N, d=d)
            oracle = CoverageOracle(dataset)
            tau = oracle.threshold_from_rate(config.LEVEL_LIMITED_RATE)
            for cap in config.LEVEL_LIMITS:
                result, seconds = timed(deepdiver, dataset, tau, max_level=cap)
                seconds_by_cap[cap].append(seconds)
                rows.append((d, cap, f"{seconds:.2f}", len(result)))
                assert all(p.level <= cap for p in result)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        f"Fig.16 level-limited DEEPDIVER (AirBnB n={config.LEVEL_LIMITED_N}, "
        f"rate={config.LEVEL_LIMITED_RATE:g})",
        ["d", "max level", "seconds", "mups"],
        rows,
    )
    # Paper shape: smaller caps are cheaper at the largest d.
    caps = sorted(config.LEVEL_LIMITS)
    if len(caps) >= 2:
        assert seconds_by_cap[caps[0]][-1] <= seconds_by_cap[caps[-1]][-1] * 1.25


def test_fig16_capped_equals_filtered_full(benchmark):
    # Semantics check at a small d: the capped result equals the full
    # result filtered to the cap.
    dataset = load_airbnb(n=10_000, d=10)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(1e-3)

    def check():
        full = deepdiver(dataset, tau)
        for cap in (1, 2, 3):
            capped = deepdiver(dataset, tau, max_level=cap)
            assert capped.as_set() == {p for p in full if p.level <= cap}

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.parametrize("cap", [min(config.LEVEL_LIMITS)])
def test_fig16_benchmark(benchmark, cap):
    d = max(config.LEVEL_LIMITED_DIMS)
    dataset = load_airbnb(n=config.LEVEL_LIMITED_N, d=d)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(config.LEVEL_LIMITED_RATE)
    result = benchmark.pedantic(
        deepdiver, args=(dataset, tau), kwargs={"max_level": cap}, rounds=1, iterations=1
    )
    assert result.max_level == cap
