"""Figure 12 — MUP identification vs threshold rate (AirBnB).

Paper setting: n=1M, d=15, τ rate from 1e-6 to 1e-2, plus the APRIORI
adaptation (which only finishes quickly at one setting).  Paper shape:
PATTERN-BREAKER gets *faster* as the rate grows (MUPs move up the graph),
PATTERN-COMBINER gets *slower*, the two cross near 1e-4..1e-3, and
DEEPDIVER is as fast as the better of the two everywhere.  APRIORI is not
competitive.

Here DEEPDIVER takes PATTERN-BREAKER's time.  In the Rule-1 order the two
visit the same nodes, so DEEPDIVER runs PATTERN-BREAKER's level walk
(:mod:`repro.core.mups.diver` has the proof).  The DFS's own strengths,
early MUPs and a small stack, have no caller here: ``find_mups`` returns
all MUPs at once.
"""

import statistics

import pytest

import _config as config
from _harness import emit, fmt_rate, timed

from repro.core.coverage import CoverageOracle
from repro.core.mups import apriori_mups, deepdiver, pattern_breaker, pattern_combiner

ALGORITHMS = [
    ("PATTERN-BREAKER", pattern_breaker),
    ("PATTERN-COMBINER", pattern_combiner),
    ("DEEPDIVER", deepdiver),
]

#: Runs per (algorithm, rate) in the series; the shape pins compare their
#: medians, since one slow run can flip a comparison of two ~0.05 s times.
SERIES_RUNS = 5


def test_fig12_series(benchmark, airbnb):
    oracle = CoverageOracle(airbnb)
    rows = []
    timings = {}

    def sweep():
        for rate in config.THRESHOLD_RATES:
            tau = oracle.threshold_from_rate(rate)
            mups = None
            for name, fn in ALGORITHMS:
                runs = []
                for _ in range(SERIES_RUNS):
                    result, seconds = timed(fn, airbnb, tau)
                    runs.append(seconds)
                    if mups is None:
                        mups = result.as_set()
                    else:
                        assert result.as_set() == mups, f"{name} disagrees at rate {rate}"
                seconds = statistics.median(runs)
                timings[(name, rate)] = seconds
                rows.append((fmt_rate(rate), tau, name, f"{seconds:.2f}", len(result)))
            if rate == config.APRIORI_RATE:
                result, seconds = timed(apriori_mups, airbnb, tau)
                assert result.as_set() == mups
                rows.append(
                    (fmt_rate(rate), tau, "APRIORI", f"{seconds:.2f}", len(result))
                )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        f"Fig.12 MUP identification vs threshold (AirBnB n={airbnb.n} d={airbnb.d})",
        ["rate", "tau", "algorithm", "seconds", "mups"],
        rows,
    )
    # Paper shape: breaker slows as the rate drops, combiner slows as it
    # rises (compare the extreme rates).
    low, high = min(config.THRESHOLD_RATES), max(config.THRESHOLD_RATES)
    if low != high:
        assert timings[("PATTERN-BREAKER", high)] <= timings[("PATTERN-BREAKER", low)] * 1.5
        assert timings[("PATTERN-COMBINER", low)] <= timings[("PATTERN-COMBINER", high)] * 1.5


@pytest.mark.parametrize("name,fn", ALGORITHMS, ids=[a for a, _ in ALGORITHMS])
def test_fig12_benchmark(benchmark, airbnb, name, fn):
    # One representative rate per algorithm keeps pytest-benchmark's timing
    # rows cheap; the full sweep lives in test_fig12_series.
    rate = config.THRESHOLD_RATES[-1]
    oracle = CoverageOracle(airbnb)
    tau = oracle.threshold_from_rate(rate)
    result = benchmark.pedantic(fn, args=(airbnb, tau), rounds=1, iterations=1)
    assert result.threshold == tau
