"""Ablation — Appendix A's inverted-index coverage oracle vs a literal scan.

The oracle aggregates to unique value combinations and answers ``cov(P)``
with vectorized index ANDs; the ablation compares it against the literal
one-pass-per-query scan of Definition 2, and compares PATTERN-BREAKER's
level counts grouped over the unique rows with per-pattern oracle counts
over the same level walk.
"""

import _config as config
from _harness import emit, timed

from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.lattice import GroupCounter, PatternLattice, walk_levels
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.airbnb import load_airbnb

N_QUERIES = 300


def _query_patterns(space):
    import numpy as np

    rng = np.random.default_rng(17)
    return [space.random_pattern(rng) for _ in range(N_QUERIES)]


def test_ablation_oracle_vs_scan(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    oracle = CoverageOracle(dataset)

    indexed, indexed_seconds = benchmark.pedantic(
        timed,
        args=(lambda: [oracle.coverage(p) for p in patterns],),
        rounds=1,
        iterations=1,
    )
    scanned, scanned_seconds = timed(
        lambda: [coverage_scan(dataset, p) for p in patterns]
    )
    assert indexed == scanned
    emit(
        f"Ablation.A coverage oracle ({N_QUERIES} queries, n={dataset.n} "
        f"d={dataset.d})",
        ["method", "seconds"],
        [
            ("inverted index (Appendix A)", f"{indexed_seconds:.3f}"),
            ("literal scan (Definition 2)", f"{scanned_seconds:.3f}"),
        ],
    )
    # The index aggregates duplicates away, so it must win clearly on a
    # dataset with n >> distinct combinations.
    assert indexed_seconds < scanned_seconds


def test_ablation_level_counting(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    oracle = CoverageOracle(dataset)
    tau = oracle.threshold_from_rate(1e-3)
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))

    def per_pattern(digits):
        return oracle.coverage_many(
            [Pattern(values) for values in (digits - 1).tolist()]
        )

    grouped, grouped_seconds = benchmark.pedantic(
        timed,
        args=(walk_levels, lattice, GroupCounter(lattice, *dataset.unique_rows()), tau),
        rounds=1,
        iterations=1,
    )
    single, single_seconds = timed(walk_levels, lattice, per_pattern, tau)
    assert grouped.mups() == single.mups()
    assert grouped.stats.coverage_evaluations == single.stats.coverage_evaluations
    emit(
        "Ablation.A2 level counting in PATTERN-BREAKER's walk",
        ["variant", "seconds"],
        [
            ("grouped unique rows", f"{grouped_seconds:.2f}"),
            ("per-pattern oracle", f"{single_seconds:.2f}"),
        ],
    )


def test_ablation_oracle_benchmark(benchmark):
    dataset = load_airbnb(n=config.AIRBNB_N, d=config.AIRBNB_D)
    space = PatternSpace.for_dataset(dataset)
    patterns = _query_patterns(space)
    oracle = CoverageOracle(dataset)
    benchmark(lambda: [oracle.coverage(p) for p in patterns])
