"""Tests for incremental MUP maintenance, cross-checked against recompute."""

import os
import tempfile

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups import find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import DataError, ReproError


def scratch_mups(dataset, tau):
    return find_mups(dataset, threshold=tau, algorithm="naive").as_set()


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
        # Add a duplicate of an existing heavy row: nothing should resolve.
        heavy = dataset.rows[0]
        index.add_rows([tuple(heavy)] * 0 or [])
        assert set(index.mups()) == before

    def test_empty_addition_is_noop(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert index.add_rows([]) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scratch_after_random_additions(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_categorical_dataset(30, (2, 3, 2), seed=seed, skew=1.0)
        tau = int(rng.integers(1, 5))
        index = IncrementalMupIndex(dataset, threshold=tau)
        for _round in range(3):
            count = int(rng.integers(1, 6))
            rows = [
                tuple(int(rng.integers(0, c)) for c in dataset.cardinalities)
                for _ in range(count)
            ]
            index.add_rows(rows)
            assert set(index.mups()) == scratch_mups(index.dataset, tau)

    def test_coverage_accessor_tracks_additions(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        assert index.coverage(Pattern.from_string("1XX")) == 0
        index.add_rows([(1, 0, 0)])
        assert index.coverage(Pattern.from_string("1XX")) == 1


class TestRemovals:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scratch_after_random_removals(self, seed):
        rng = np.random.default_rng(seed + 100)
        dataset = random_categorical_dataset(40, (2, 2, 3), seed=seed, skew=0.8)
        tau = int(rng.integers(1, 5))
        index = IncrementalMupIndex(dataset, threshold=tau)
        for _round in range(3):
            if index.dataset.n < 5:
                break
            count = int(rng.integers(1, 4))
            victims = rng.choice(index.dataset.n, size=count, replace=False)
            index.remove_rows(victims)
            assert set(index.mups()) == scratch_mups(index.dataset, tau)

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


class TestMixedWorkload:
    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_add_remove(self, seed):
        rng = np.random.default_rng(seed + 500)
        dataset = random_categorical_dataset(35, (2, 3, 2), seed=seed, skew=1.0)
        tau = 3
        index = IncrementalMupIndex(dataset, threshold=tau)
        for _round in range(4):
            if rng.uniform() < 0.5 and index.dataset.n > 10:
                victims = rng.choice(
                    index.dataset.n, size=int(rng.integers(1, 4)), replace=False
                )
                index.remove_rows(victims)
            else:
                rows = [
                    tuple(int(rng.integers(0, c)) for c in dataset.cardinalities)
                    for _ in range(int(rng.integers(1, 4)))
                ]
                index.add_rows(rows)
            assert set(index.mups()) == scratch_mups(index.dataset, tau)

    def test_as_result_snapshot(self, example1_dataset):
        index = IncrementalMupIndex(example1_dataset, threshold=1)
        result = index.as_result()
        assert result.as_set() == set(index.mups())
        assert result.threshold == 1


class TestEngineCacheUnderMutation:
    """Hot-mask caches must never serve answers from a pre-update dataset.

    The index rebuilds its oracle (and therefore its engine) on every
    delivery/removal, so cached masks from the old dataset are bypassed by
    construction; these tests pin that contract down for every backend,
    including prebuilt instances whose configuration must survive the
    rebuild while their cached state must not.
    """

    @pytest.mark.parametrize("engine", ["dense", "packed", "sharded"])
    def test_add_rows_after_cached_queries(self, engine):
        dataset = random_categorical_dataset(40, (2, 2, 3), seed=13, skew=1.3)
        tau = 4
        index = IncrementalMupIndex(dataset, threshold=tau, engine=engine)
        # Warm the hot-mask cache with repeated queries over the MUP set.
        probes = list(index.mups()) + [Pattern.root(dataset.d)]
        before = [index.coverage(p) for p in probes]
        assert [index.coverage(p) for p in probes] == before
        # Mutate: add rows matching the first probe region.
        addition = [
            tuple(0 if v < 0 else v for v in probes[0].values) for _ in range(tau)
        ]
        index.add_rows(addition)
        # Every coverage answer must reflect the new dataset, not the cache.
        oracle_fresh = find_mups(
            index.dataset, threshold=tau, algorithm="naive", engine="dense"
        )
        assert set(index.mups()) == oracle_fresh.as_set()
        for probe in probes:
            fresh = int(
                sum(1 for row in index.dataset.rows if probe.matches(row))
            )
            assert index.coverage(probe) == fresh

    def test_remove_rows_after_cached_queries(self):
        dataset = random_categorical_dataset(40, (2, 3, 2), seed=21, skew=1.0)
        tau = 3
        index = IncrementalMupIndex(dataset, threshold=tau, engine="sharded")
        probes = [Pattern.root(dataset.d)] + list(index.mups())
        for _ in range(3):  # drive queries into the cache-hit path
            for probe in probes:
                index.coverage(probe)
        index.remove_rows(list(range(5)))
        assert set(index.mups()) == scratch_mups(index.dataset, tau)
        for probe in probes:
            fresh = int(
                sum(1 for row in index.dataset.rows if probe.matches(row))
            )
            assert index.coverage(probe) == fresh

    def test_prebuilt_sharded_instance_config_survives_rebuild(self):
        from repro.core.engine import ShardedEngine

        dataset = random_categorical_dataset(30, (2, 2, 2), seed=8, skew=1.0)
        engine = ShardedEngine(dataset, shards=3, mask_cache_size=16)
        index = IncrementalMupIndex(dataset, threshold=2, engine=engine)
        index.add_rows([(0, 0, 0), (1, 1, 1)])
        rebuilt = index._oracle.engine
        # Same configuration on the new dataset...
        assert isinstance(rebuilt, ShardedEngine)
        assert rebuilt is not engine
        assert rebuilt.requested_shards == 3
        assert rebuilt.mask_cache_size == 16
        # ...with a cold cache (no state carried over from the old dataset).
        assert rebuilt.dataset is index.dataset
        assert set(index.mups()) == scratch_mups(index.dataset, 2)


class TestShardedRebuilds:
    """Every sharded engine spills, so rebuild churn must release retired
    spill directories under the default root, and delta-spilled engines
    must rebuild through delta writes there too."""

    @pytest.fixture
    def spill_root(self, tmp_path, monkeypatch):
        # $TMPDIR names the default spill root (tempfile caches it).
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    def test_rebuilds_release_retired_spill_dirs(self, spill_root):
        dataset = random_categorical_dataset(40, (2, 2, 3), seed=13, skew=1.3)
        index = IncrementalMupIndex(dataset, threshold=3, engine="sharded")
        index.add_rows([(0, 0, 0), (1, 1, 2)])
        index.remove_rows([0, 1, 2])
        live = index._oracle.engine
        assert os.listdir(spill_root) == [os.path.basename(live.spill_path)]
        assert set(index.mups()) == scratch_mups(index.dataset, 3)
        live.close()
        assert os.listdir(spill_root) == []

    def test_delta_spill_rebuilds_through_delta_writes(self, spill_root):
        dataset = random_categorical_dataset(80, (3, 2, 2), seed=5, skew=1.3)
        config = EngineConfig(backend="sharded", shards=3, delta_spill=True)
        index = IncrementalMupIndex(dataset, threshold=4, engine=config)
        unique, _ = dataset.unique_rows()
        index.add_rows([tuple(int(v) for v in unique[0])])
        assert index.delta_rebuilds == 1
        live = index._oracle.engine
        assert live.delta_result.reused_shards >= 1
        assert os.listdir(spill_root) == [os.path.basename(live.spill_path)]
        assert set(index.mups()) == scratch_mups(index.dataset, 4)
        live.close()
        assert os.listdir(spill_root) == []


class FlakyEngineFactory:
    """Builds real dense engines but raises on a chosen build number."""

    def __init__(self, fail_on):
        self.builds = 0
        self.fail_on = fail_on

    def __call__(self, dataset):
        from repro.core.engine import DenseBoolEngine

        self.builds += 1
        if self.builds == self.fail_on:
            raise RuntimeError("simulated index-build failure")
        return DenseBoolEngine(dataset)


class TestFailedRebuild:
    """Regression: a failed delivery rebuild must not corrupt the index.

    The rebuild used to swap state piecemeal, so a failed oracle build
    (e.g. a spill-dir write error) could leave the index pointing at a
    retired engine or a half-updated dataset.  Now the new oracle is
    constructed before anything changes: on failure the index keeps
    answering from the old state, and a later delivery still succeeds.
    """

    def test_failed_add_leaves_index_consistent(self, example1_dataset):
        factory = FlakyEngineFactory(fail_on=2)  # build 1 is __init__
        index = IncrementalMupIndex(
            example1_dataset, threshold=1, engine=factory
        )
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

        # The next delivery (build 3) succeeds and repairs the MUP set.
        resolved = index.add_rows([(1, 1, 1)])
        assert resolved == [Pattern.from_string("1XX")]
        assert index.dataset.n == before_n + 1
        assert set(index.mups()) == scratch_mups(index.dataset, 1)
        assert factory.builds == 3
