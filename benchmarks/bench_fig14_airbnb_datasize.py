"""Figure 14 — MUP identification vs dataset size (AirBnB).

Paper setting: d=15, τ rate 0.1%, n from 10K to 1M.  Paper shape: all
three algorithms are only mildly affected by n — the work is driven by the
number of patterns, not tuples; PATTERN-COMBINER touches the raw data only
for the bottom level, and the inverted indices bound the effect for the
other two.

Here DEEPDIVER takes PATTERN-BREAKER's time.  In the Rule-1 order the two
visit the same nodes, so DEEPDIVER runs PATTERN-BREAKER's level walk
(:mod:`repro.core.mups.diver` has the proof).  The DFS's own strengths,
early MUPs and a small stack, have no caller here: ``find_mups`` returns
all MUPs at once.
"""

import pytest

import _config as config
from _harness import emit, timed

from repro.core.coverage import CoverageOracle
from repro.core.mups import deepdiver, pattern_breaker, pattern_combiner
from repro.data.airbnb import load_airbnb

ALGORITHMS = [
    ("PATTERN-BREAKER", pattern_breaker),
    ("PATTERN-COMBINER", pattern_combiner),
    ("DEEPDIVER", deepdiver),
]


def test_fig14_series(benchmark):
    rows = []
    seconds_by_algo = {name: [] for name, _ in ALGORITHMS}

    def sweep():
        for n in config.DATASIZE_SWEEP:
            dataset = load_airbnb(n=n, d=config.AIRBNB_D)
            oracle = CoverageOracle(dataset)
            tau = oracle.threshold_from_rate(config.DATASIZE_RATE)
            reference = None
            for name, fn in ALGORITHMS:
                result, seconds = timed(fn, dataset, tau)
                if reference is None:
                    reference = result.as_set()
                else:
                    assert result.as_set() == reference
                seconds_by_algo[name].append(seconds)
                rows.append((n, tau, name, f"{seconds:.2f}", len(result)))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        f"Fig.14 MUP identification vs data size (AirBnB d={config.AIRBNB_D}, "
        f"rate={config.DATASIZE_RATE:g})",
        ["n", "tau", "algorithm", "seconds", "mups"],
        rows,
    )
    # Paper shape: runtime grows far slower than n (sublinear effect).
    growth = max(config.DATASIZE_SWEEP) / min(config.DATASIZE_SWEEP)
    for name, series in seconds_by_algo.items():
        slowest, fastest = max(series), max(min(series), 1e-3)
        assert slowest / fastest < growth, f"{name} scaled with n"


@pytest.mark.parametrize("n", [max(config.DATASIZE_SWEEP)])
def test_fig14_benchmark(benchmark, n):
    dataset = load_airbnb(n=n, d=config.AIRBNB_D)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(config.DATASIZE_RATE)
    result = benchmark.pedantic(deepdiver, args=(dataset, tau), rounds=1, iterations=1)
    assert result.threshold == tau
