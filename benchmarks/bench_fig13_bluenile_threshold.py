"""Figure 13 — MUP identification vs threshold rate (BlueNile).

Paper setting: the real catalog (116,300 diamonds, 7 attributes with
cardinalities 10,4,7,8,3,3,5).  Paper shape: DEEPDIVER wins at every rate
and PATTERN-COMBINER is always slowest — the bottom level of this
high-cardinality pattern graph alone has >100K nodes, which is exactly the
bottom-up algorithm's fixed cost.

The pin checks that mechanism, not the wall-clock order: at every rate
PATTERN-COMBINER generates at least the whole bottom level and more nodes
than either other algorithm.  Here PATTERN-COMBINER walks its levels as
integer-code arrays, so that fixed cost is cheap per node and its seconds
no longer rank last (the table still prints them).
"""

import pytest

import _config as config
from _harness import emit, fmt_rate, timed

from repro.core.coverage import CoverageOracle
from repro.core.mups import deepdiver, pattern_breaker, pattern_combiner
from repro.core.pattern_graph import PatternSpace

ALGORITHMS = [
    ("PATTERN-BREAKER", pattern_breaker),
    ("PATTERN-COMBINER", pattern_combiner),
    ("DEEPDIVER", deepdiver),
]


def test_fig13_series(benchmark, bluenile):
    oracle = CoverageOracle(bluenile)
    space = PatternSpace.for_dataset(bluenile)
    # The paper's observation about the graph's width at the bottom level.
    assert space.combination_count() > 100_000
    rows = []
    combiner_nodes = {}
    other_nodes = {}

    def sweep():
        for rate in config.BLUENILE_RATES:
            tau = oracle.threshold_from_rate(rate)
            reference = None
            for name, fn in ALGORITHMS:
                result, seconds = timed(fn, bluenile, tau)
                if reference is None:
                    reference = result.as_set()
                else:
                    assert result.as_set() == reference, f"{name} disagrees at {rate}"
                nodes = result.stats.nodes_generated
                rows.append(
                    (fmt_rate(rate), tau, name, f"{seconds:.2f}", nodes, len(result))
                )
                if name == "PATTERN-COMBINER":
                    combiner_nodes[rate] = nodes
                else:
                    other_nodes.setdefault(rate, []).append(nodes)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        f"Fig.13 MUP identification vs threshold (BlueNile n={bluenile.n} d=7)",
        ["rate", "tau", "algorithm", "seconds", "nodes generated", "mups"],
        rows,
    )
    # Paper shape: the bottom-up algorithm pays the >100K-node bottom level
    # as a fixed cost at every rate, so it generates more nodes than the
    # top-down algorithms, which stop near the MUPs.
    for rate in config.BLUENILE_RATES:
        assert combiner_nodes[rate] >= space.combination_count()
        assert combiner_nodes[rate] > max(other_nodes[rate])


@pytest.mark.parametrize("name,fn", ALGORITHMS, ids=[a for a, _ in ALGORITHMS])
def test_fig13_benchmark(benchmark, bluenile, name, fn):
    oracle = CoverageOracle(bluenile)
    tau = oracle.threshold_from_rate(config.BLUENILE_RATES[0])
    result = benchmark.pedantic(fn, args=(bluenile, tau), rounds=1, iterations=1)
    assert result.threshold == tau
