"""Ablation — Appendix B's dominance index vs a linear scan over the MUPs.

Algorithm 3 asks a dominance question per visited node; with thousands of
MUPs the per-query cost decides whether a node-at-a-time DEEPDIVER is
viable.  This bench compares the bit-vector index against the naive scan
as raw query throughput, over the MUPs of the AirBnB workload.

No search queries the index: in the Rule-1 order DEEPDIVER's question is
"has an uncovered parent", and it runs PATTERN-BREAKER's level walk, which
answers that with one lookup per level (:mod:`repro.core.mups.diver`
has the proof).  An end-to-end DEEPDIVER with and without the index would
time the same walk twice, so this bench has no such leg.
"""

import numpy as np

import _config as config
from _harness import emit, timed

from repro.core.coverage import CoverageOracle
from repro.core.dominance import (
    MupDominanceIndex,
    dominated_by_any_scan,
    dominates_any_scan,
)
from repro.core.mups import deepdiver
from repro.core.pattern_graph import PatternSpace
from repro.data.airbnb import load_airbnb

N_QUERIES = 2_000


def _mups_and_probes():
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(1e-3)
    mups = list(deepdiver(dataset, tau).mups)
    space = PatternSpace.for_dataset(dataset)
    rng = np.random.default_rng(19)
    probes = [space.random_pattern(rng) for _ in range(N_QUERIES)]
    return mups, probes, space


def test_ablation_dominance_queries(benchmark):
    mups, probes, space = _mups_and_probes()
    index = MupDominanceIndex(space.cardinalities)
    index.extend(mups)

    indexed, indexed_seconds = benchmark.pedantic(
        timed,
        args=(
            lambda: [
                (index.dominated_by_any(p), index.dominates_any(p)) for p in probes
            ],
        ),
        rounds=1,
        iterations=1,
    )
    scanned, scanned_seconds = timed(
        lambda: [
            (dominated_by_any_scan(mups, p), dominates_any_scan(mups, p))
            for p in probes
        ]
    )
    assert indexed == scanned
    emit(
        f"Ablation.B dominance queries ({N_QUERIES} probes over {len(mups)} MUPs)",
        ["method", "seconds"],
        [
            ("bit-vector index (Appendix B)", f"{indexed_seconds:.3f}"),
            ("linear scan", f"{scanned_seconds:.3f}"),
        ],
    )


def test_ablation_dominance_benchmark(benchmark):
    mups, probes, space = _mups_and_probes()
    index = MupDominanceIndex(space.cardinalities)
    index.extend(mups)
    benchmark(lambda: [index.dominated_by_any(p) for p in probes])
