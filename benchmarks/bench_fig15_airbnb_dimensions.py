"""Figure 15 — MUP identification vs number of attributes (AirBnB).

Paper setting: n=1M, τ rate 0.1%, d projected from 5 to 17.  Paper shape:
the pattern graph — and with it the number of MUPs and the runtime — grows
exponentially in d, yet all algorithms finish in reasonable time.

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


def test_fig15_series(benchmark):
    rows = []
    mup_counts = []

    def sweep():
        for d in config.DIMENSION_SWEEP:
            dataset = load_airbnb(n=config.AIRBNB_N, d=d)
            oracle = CoverageOracle(dataset)
            tau = oracle.threshold_from_rate(config.DIMENSION_RATE)
            reference = None
            for name, fn in ALGORITHMS:
                result, seconds = timed(fn, dataset, tau)
                if reference is None:
                    reference = result.as_set()
                    mup_counts.append(len(result))
                else:
                    assert result.as_set() == reference
                rows.append((d, tau, name, f"{seconds:.2f}", len(result)))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        f"Fig.15 MUP identification vs dimensions (AirBnB n={config.AIRBNB_N}, "
        f"rate={config.DIMENSION_RATE:g})",
        ["d", "tau", "algorithm", "seconds", "mups"],
        rows,
    )
    # Paper shape: MUP count grows (roughly exponentially) with d.
    assert mup_counts == sorted(mup_counts)
    assert mup_counts[-1] > mup_counts[0]


@pytest.mark.parametrize("d", [max(config.DIMENSION_SWEEP)])
def test_fig15_benchmark(benchmark, d):
    dataset = load_airbnb(n=config.AIRBNB_N, d=d)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(config.DIMENSION_RATE)
    result = benchmark.pedantic(deepdiver, args=(dataset, tau), rounds=1, iterations=1)
    assert result.threshold == tau
