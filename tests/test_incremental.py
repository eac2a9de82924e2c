"""Tests for incremental MUP maintenance, cross-checked against recompute."""

import numpy as np
import pytest

from engine_reference import scan_mups
from walk_paths import grouped, on_cube
import repro.core.incremental as incremental_module
from repro.core.coverage import CoverageOracle
from repro.core.engine import CoverageEngine
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups import find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import DataError, EngineError, ReproError


def scratch_mups(dataset, tau):
    return find_mups(dataset, threshold=tau, algorithm="naive").as_set()


def as_is(search):
    return search()


def seeds_on_walks(seeds):
    """Each seed as it runs by default, then with every search of the index
    on the coverage cube and by group-by (``tests/walk_paths.py``)."""
    params = [pytest.param(seed, as_is, id=str(seed)) for seed in seeds]
    for walk in (on_cube, grouped):
        params += [
            pytest.param(seed, walk, id=f"{walk.__name__}-{seed}")
            for seed in seeds
        ]
    return params


def add_and_check(index, rows, tau):
    """``index.add_rows(rows)`` must return the scratch MUPs it resolved
    and leave the index on the scratch MUP set."""
    before = scratch_mups(index.dataset, tau)
    resolved = index.add_rows(rows)
    after = scratch_mups(index.dataset, tau)
    assert resolved == sorted(before - after)
    assert set(index.mups()) == after


def remove_and_check(index, victims, tau):
    """``index.remove_rows(victims)`` must return the scratch MUPs it
    opened and leave the index on the scratch MUP set."""
    before = scratch_mups(index.dataset, tau)
    opened = index.remove_rows(victims)
    after = scratch_mups(index.dataset, tau)
    assert opened == sorted(after - before)
    assert set(index.mups()) == after


class TestConstruction:
    def test_initial_state_matches_scratch(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert set(index.mups()) == scratch_mups(example1_dataset, 1)
        assert index.threshold == 1
        assert index.max_covered_level() == 0

    def test_bad_threshold(self, example1_dataset):
        with pytest.raises(ReproError):
            IncrementalMupIndex(example1_dataset, threshold=0)


class TestAdditions:
    def test_resolving_the_only_mup(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        resolved = index.add_rows([(1, 1, 1)])
        assert resolved == [Pattern.from_string("1XX")]
        # 1XX is covered now but its specific descendants are not: new MUPs
        # appear below it, exactly as a recompute reports.
        assert set(index.mups()) == scratch_mups(index.dataset, 1)

    def test_untouched_mups_survive(self):
        dataset = random_categorical_dataset(40, (2, 2, 2), seed=31, skew=1.2)
        tau = 4
        index = IncrementalMupIndex(dataset, threshold=tau)
        before = set(index.mups())
        assert before
        # A copy of a row whose combination already has τ rows matches no
        # MUP (each pattern it matches is covered): nothing resolves.
        unique, counts = dataset.unique_rows()
        heavy = unique[np.flatnonzero(counts >= tau)[0]]
        assert index.add_rows([tuple(heavy)]) == []
        assert index.dataset.n == dataset.n + 1
        assert set(index.mups()) == before

    def test_empty_addition_is_noop(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert index.add_rows([]) == []

    @pytest.mark.parametrize("seed, walk", seeds_on_walks(range(8)))
    def test_matches_scratch_after_random_additions(self, seed, walk):
        rng = np.random.default_rng(seed)
        dataset = random_categorical_dataset(30, (2, 3, 2), seed=seed, skew=1.0)
        tau = int(rng.integers(1, 5))

        def scenario():
            index = IncrementalMupIndex(dataset, threshold=tau)
            for _round in range(3):
                count = int(rng.integers(1, 6))
                rows = [
                    tuple(int(rng.integers(0, c)) for c in dataset.cardinalities)
                    for _ in range(count)
                ]
                add_and_check(index, rows, tau)

        walk(scenario)

    @pytest.mark.parametrize(
        "rows",
        [[(1.7, 0, 0)], [(1, 0, 0), (1, 0)], [(2**31, 0, 0)]],
        ids=["fractional", "ragged", "past-int32"],
    )
    def test_malformed_rows_rejected(self, example1_dataset, rows):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        with pytest.raises(DataError):
            index.add_rows(rows)
        assert index.dataset is example1_dataset

    def test_coverage_accessor_tracks_additions(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert index.coverage(Pattern.from_string("1XX")) == 0
        index.add_rows([(1, 0, 0)])
        assert index.coverage(Pattern.from_string("1XX")) == 1


class TestRemovals:
    @pytest.mark.parametrize("seed, walk", seeds_on_walks(range(8)))
    def test_matches_scratch_after_random_removals(self, seed, walk):
        rng = np.random.default_rng(seed + 100)
        dataset = random_categorical_dataset(40, (2, 2, 3), seed=seed, skew=0.8)
        tau = int(rng.integers(1, 5))

        def scenario():
            index = IncrementalMupIndex(dataset, threshold=tau)
            for _round in range(3):
                if index.dataset.n < 5:
                    break
                count = int(rng.integers(1, 4))
                victims = rng.choice(index.dataset.n, size=count, replace=False)
                remove_and_check(index, victims, tau)

        walk(scenario)

    def test_removal_reports_new_mups(self):
        # Fully covered 2x2 data; removing one combination's rows opens a gap.
        rows = [[a, b] for a in (0, 1) for b in (0, 1)] * 2
        dataset = Dataset.from_rows(rows, cardinalities=[2, 2])
        index = IncrementalMupIndex(dataset, threshold=2)
        assert index.mups() == ()
        victims = [i for i, row in enumerate(dataset.rows) if tuple(row) == (1, 1)]
        new = index.remove_rows(victims[:1])
        assert new == [Pattern.from_string("11")]
        assert set(index.mups()) == scratch_mups(index.dataset, 2)

    def test_empty_removal_is_noop(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert index.remove_rows([]) == []

    def test_out_of_range_rejected(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        with pytest.raises(DataError):
            index.remove_rows([99])

    @pytest.mark.parametrize(
        "indices",
        [[1.5], [True], ["1"], [[0, 1]], [[0], 1]],
        ids=["fractional", "boolean", "string", "nested", "ragged"],
    )
    def test_malformed_indices_rejected(self, example1_dataset, indices):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        with pytest.raises(DataError):
            index.remove_rows(indices)
        assert index.dataset is example1_dataset


class TestMixedWorkload:
    @pytest.mark.parametrize("seed, walk", seeds_on_walks(range(5)))
    def test_interleaved_add_remove(self, seed, walk):
        rng = np.random.default_rng(seed + 500)
        dataset = random_categorical_dataset(35, (2, 3, 2), seed=seed, skew=1.0)
        tau = 3

        def scenario():
            index = IncrementalMupIndex(dataset, threshold=tau)
            for _round in range(4):
                if rng.uniform() < 0.5 and index.dataset.n > 10:
                    victims = rng.choice(
                        index.dataset.n, size=int(rng.integers(1, 4)), replace=False
                    )
                    remove_and_check(index, victims, tau)
                else:
                    rows = [
                        tuple(int(rng.integers(0, c)) for c in dataset.cardinalities)
                        for _ in range(int(rng.integers(1, 4)))
                    ]
                    add_and_check(index, rows, tau)

        walk(scenario)

    def test_as_result_snapshot(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        result = index.as_result()
        assert result.as_set() == set(index.mups())
        assert result.threshold == 1


class TestQueriesAcrossMutation:
    """Answers after a delivery or removal are the new dataset's.

    The index builds a new oracle (and so a new engine) over the new
    dataset on every delivery and removal, for every engine spec,
    including a prebuilt engine or an adopted oracle; an oracle handed
    out before keeps answering for the dataset it indexes.
    """

    @pytest.mark.parametrize("engine", ["packed", "auto"])
    def test_add_rows_after_queries(self, engine):
        dataset = random_categorical_dataset(40, (2, 2, 3), seed=13, skew=1.3)
        tau = 4
        index = IncrementalMupIndex(dataset, threshold=tau, engine=engine)
        probes = list(index.mups()) + [Pattern.root(dataset.d)]
        before = [index.coverage(p) for p in probes]
        assert [index.coverage(p) for p in probes] == before
        # Mutate: add rows matching the first probe region.
        addition = [
            tuple(0 if v < 0 else v for v in probes[0].values) for _ in range(tau)
        ]
        index.add_rows(addition)
        assert set(index.mups()) == scan_mups(index.dataset, tau)
        for probe in probes:
            fresh = int(
                sum(1 for row in index.dataset.rows if probe.matches(row))
            )
            assert index.coverage(probe) == fresh

    def test_remove_rows_after_queries(self):
        dataset = random_categorical_dataset(40, (2, 3, 2), seed=21, skew=1.0)
        tau = 3
        index = IncrementalMupIndex(dataset, threshold=tau, engine="packed")
        probes = [Pattern.root(dataset.d)] + list(index.mups())
        for _ in range(3):
            for probe in probes:
                index.coverage(probe)
        index.remove_rows(list(range(5)))
        assert set(index.mups()) == scratch_mups(index.dataset, tau)
        for probe in probes:
            fresh = int(
                sum(1 for row in index.dataset.rows if probe.matches(row))
            )
            assert index.coverage(probe) == fresh

    def test_prebuilt_engine_is_replaced_on_rebuild(self):
        dataset = random_categorical_dataset(30, (2, 2, 2), seed=8, skew=1.0)
        engine = CoverageEngine(dataset)
        index = IncrementalMupIndex(dataset, threshold=2, engine=engine)
        assert index.oracle.engine is engine
        index.add_rows([(0, 0, 0), (1, 1, 1)])
        rebuilt = index.oracle.engine
        assert isinstance(rebuilt, CoverageEngine)
        assert rebuilt is not engine
        assert rebuilt.dataset is index.dataset
        assert set(index.mups()) == scratch_mups(index.dataset, 2)

    def test_adopted_oracle_keeps_answering_for_its_dataset(self):
        dataset = random_categorical_dataset(30, (2, 2, 2), seed=8, skew=1.0)
        oracle = CoverageOracle(dataset)
        index = IncrementalMupIndex(dataset, threshold=2, oracle=oracle)
        assert index.oracle is oracle
        root = Pattern.root(dataset.d)
        index.remove_rows([0])
        assert index.oracle is not oracle
        assert index.oracle.dataset is index.dataset
        assert index.coverage(root) == dataset.n - 1
        assert oracle.coverage(root) == dataset.n
        assert set(index.mups()) == scratch_mups(index.dataset, 2)

    def test_engine_over_another_dataset_is_rejected(self):
        dataset = random_categorical_dataset(30, (2, 2, 2), seed=8, skew=1.0)
        clone = Dataset(dataset.schema, dataset.rows.copy())
        with pytest.raises(EngineError, match="different dataset"):
            IncrementalMupIndex(
                dataset, threshold=2, engine=CoverageEngine(clone)
            )
        with pytest.raises(ReproError, match="different dataset"):
            IncrementalMupIndex(
                dataset, threshold=2, oracle=CoverageOracle(clone)
            )


class FlakyOracleFactory:
    """Builds real oracles but raises on a chosen build number."""

    def __init__(self, fail_on):
        self.builds = 0
        self.fail_on = fail_on

    def __call__(self, dataset, **options):
        self.builds += 1
        if self.builds == self.fail_on:
            raise RuntimeError("simulated index-build failure")
        return CoverageOracle(dataset, **options)


class TestFailedRebuild:
    """Regression: a failed delivery rebuild must not corrupt the index.

    The rebuild used to swap state piecemeal, so a failed oracle build
    could leave the index pointing at a retired engine or a half-updated
    dataset.  Now the new oracle and MUP set are built before anything
    changes: on failure the index keeps answering from the old state, and
    a later delivery still succeeds.
    """

    def test_failed_add_leaves_index_consistent(
        self, example1_dataset, monkeypatch
    ):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        # The first rebuild fails.
        factory = FlakyOracleFactory(fail_on=1)
        monkeypatch.setattr(incremental_module, "CoverageOracle", factory)
        before_mups = set(index.mups())
        before_n = index.dataset.n
        probe = Pattern.from_string("1XX")
        before_coverage = index.coverage(probe)

        with pytest.raises(RuntimeError, match="simulated index-build"):
            index.add_rows([(1, 1, 1)])

        # Old state intact and still answering queries.
        assert index.dataset.n == before_n
        assert set(index.mups()) == before_mups
        assert index.coverage(probe) == before_coverage
        assert set(index.mups()) == scratch_mups(index.dataset, 1)

        # The next delivery (build 2) succeeds and repairs the MUP set.
        resolved = index.add_rows([(1, 1, 1)])
        assert resolved == [Pattern.from_string("1XX")]
        assert index.dataset.n == before_n + 1
        assert set(index.mups()) == scratch_mups(index.dataset, 1)
        assert factory.builds == 2

    def test_failed_search_leaves_index_consistent(
        self, example1_dataset, monkeypatch
    ):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        old_oracle, before_mups = index.oracle, set(index.mups())

        def failing_search(*args, **kwargs):
            raise RuntimeError("simulated search failure")

        monkeypatch.setattr(incremental_module, "find_mups", failing_search)
        with pytest.raises(RuntimeError, match="simulated search"):
            index.remove_rows([0])
        assert index.dataset is example1_dataset
        assert index.oracle is old_oracle
        assert set(index.mups()) == before_mups
