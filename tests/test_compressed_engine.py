"""Compressed-engine container edge cases and configuration errors.

The compressed backend is the first whose memory footprint is
data-dependent, so its edge cases are *structural*: empty chunks, all-ones
run containers, masks crossing the 64Ki chunk boundary, sorted-array ↔
bitmap promotion/demotion, and the container-threshold validation rules.
Everything here is pinned against the dense/packed references.
"""

import csv

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import (
    AUTO,
    CHUNK_BITS,
    CompressedEngine,
    DenseBoolEngine,
    EngineConfig,
    PackedBitsetEngine,
    plan_engine,
    resolve_engine,
)
from repro.core.engine.compressed import ARRAY, BITMAP, RUN
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


@pytest.fixture
def dataset():
    return random_categorical_dataset(80, (3, 9, 2), seed=13, skew=0.6)


def make_boundary_dataset(n=70_000):
    """``n`` distinct combinations — more than one 64Ki chunk's worth."""
    assert n > CHUNK_BITS
    rows = np.stack([np.arange(n) // 300, np.arange(n) % 300], axis=1)
    schema = Schema.of(["hi", "lo"], [(n + 299) // 300, 300])
    return Dataset(schema, rows.astype(np.int32))


class TestContainers:
    def test_cardinality_one_attribute_is_all_ones_run(self, dataset):
        """A cardinality-1 attribute's membership vector is one full run."""
        ones = Dataset(
            Schema.of(["only", "other"], [1, 6]),
            np.asarray([[0, v % 6] for v in range(12)], dtype=np.int32),
        )
        engine = CompressedEngine(ones)
        mask = engine.value_mask(0, 0)
        assert mask.container_kinds() == {0: RUN}
        kind, runs = mask.chunks[0]
        assert runs.tolist() == [[0, engine.unique_count]]
        assert engine.count(mask) == ones.n

    def test_absent_value_is_empty_chunks(self, dataset):
        """A value no row takes compresses to an absent-chunk bitmap."""
        missing = Dataset(
            Schema.of(["a"], [4]),
            np.asarray([[0], [1]], dtype=np.int32),
        )
        engine = CompressedEngine(missing)
        mask = engine.value_mask(0, 3)
        assert mask.chunks == {}
        assert engine.count(mask) == 0
        assert not engine.mask_to_bool(mask).any()
        # Restricting anything by the empty vector stays empty.
        child = engine.restrict(engine.full_mask(), 0, 3)
        assert child.chunks == {} and engine.count(child) == 0

    def test_index_rows_pick_expected_container_kinds(self):
        """Sparse high-cardinality rows go sorted-array, dense ones run/bitmap."""
        data = random_categorical_dataset(3_000, (40, 2), seed=3, skew=0.5)
        engine = CompressedEngine(data)
        sparse_kinds = {
            kind
            for value in range(40)
            for kind in engine.value_mask(0, value).container_kinds().values()
        }
        assert sparse_kinds == {ARRAY}

    def test_bitmap_demotes_to_array_after_intersection(self):
        """Promotion/demotion round-trip: arrays promoted to bitmaps at a
        tiny array_cutoff demote back to sorted arrays once an AND shrinks
        the result under the cutoff again."""
        data = random_categorical_dataset(400, (2, 2), seed=9, skew=0.4)
        engine = CompressedEngine(data, array_cutoff=1, run_cutoff=1)
        # In the sorted unique order (00, 01, 10, 11) attribute 1's value-0
        # bits alternate: two runs (over run_cutoff) and two set bits (over
        # array_cutoff) leave only the bitmap representation.
        promoted = engine.value_mask(1, 0)
        assert set(promoted.container_kinds().values()) == {BITMAP}
        narrow = engine.match_mask(Pattern.of(0, 0))
        # The intersection holds at most one combination on this 2x2
        # domain, which fits array_cutoff=1 — it must have demoted.
        kinds = set(narrow.container_kinds().values())
        assert kinds <= {ARRAY}
        reference = DenseBoolEngine(data)
        assert engine.count(narrow) == reference.coverage(Pattern.of(0, 0))

    def test_stock_cutoffs_round_trip_against_dense(self, dataset):
        reference = DenseBoolEngine(dataset)
        engine = CompressedEngine(dataset)
        for pattern in (
            Pattern.root(3),
            Pattern.of(1, X, X),
            Pattern.of(X, 7, 1),
            Pattern.of(2, 8, 0),
        ):
            assert engine.coverage(pattern) == reference.coverage(pattern)
            assert np.array_equal(
                engine.mask_to_bool(engine.match_mask(pattern)),
                reference.mask_to_bool(reference.match_mask(pattern)),
            )


class TestRunKernels:
    """The interval kernels, driven directly on crafted containers.

    Run x run intersections need two multi-run containers in one chunk —
    rare through the public API (the full-run fast path short-circuits
    most of them), so these tests feed the kernel hand-built containers.
    """

    @pytest.fixture
    def engine(self):
        data = random_categorical_dataset(50, (2, 2), seed=2, skew=0.5)
        return CompressedEngine(data)

    @staticmethod
    def _runs(*pairs):
        return (RUN, np.asarray(pairs, dtype=np.int32))

    def test_run_run_interval_intersection(self, engine):
        kind, data = engine._intersect(
            self._runs([0, 5], [10, 20], [30, 40]),
            self._runs([3, 12], [18, 35]),
            chunk_len=64,
        )
        assert kind == RUN
        assert data.tolist() == [[3, 5], [10, 12], [18, 20], [30, 35]]

    def test_disjoint_runs_intersect_to_none(self, engine):
        assert (
            engine._intersect(
                self._runs([0, 5]), self._runs([10, 20]), chunk_len=64
            )
            is None
        )

    def test_run_overflow_normalizes_to_array_or_bitmap(self):
        data = random_categorical_dataset(50, (2, 2), seed=2, skew=0.5)
        engine = CompressedEngine(data, run_cutoff=1, array_cutoff=8)
        # Two surviving intervals exceed run_cutoff=1; eight set bits fit
        # array_cutoff=8 -> sorted array.
        kind, payload = engine._intersect(
            self._runs([0, 8], [16, 24]),
            self._runs([4, 20]),
            chunk_len=64,
        )
        assert kind == ARRAY
        assert payload.tolist() == [4, 5, 6, 7, 16, 17, 18, 19]
        # With the array door closed too, the result promotes to bitmap.
        tight = CompressedEngine(data, run_cutoff=1, array_cutoff=1)
        kind, payload = tight._intersect(
            self._runs([0, 8], [16, 24]),
            self._runs([4, 20]),
            chunk_len=64,
        )
        assert kind == BITMAP
        assert int(payload[0]) == sum(
            1 << b for b in [4, 5, 6, 7, 16, 17, 18, 19]
        )

    def test_multi_run_weighted_count(self):
        rows = [[0, 0]] * 4 + [[0, 1]] * 2 + [[1, 0]] * 7 + [[1, 1]]
        data = Dataset(
            Schema.of(["a", "b"], [2, 2]),
            np.asarray(rows, dtype=np.int32),
        )
        engine = CompressedEngine(data)
        from repro.core.engine import CompressedBitmap

        # Unique order is 00, 01, 10, 11 -> two one-bit runs select the
        # multiplicity-4 and multiplicity-7 combinations.
        mask = CompressedBitmap(4, {0: self._runs([0, 1], [2, 3])})
        assert engine.count(mask) == 11

    def test_uniform_bitmap_cardinality_and_repr(self):
        rows = np.asarray([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int32)
        data = Dataset(Schema.of(["a", "b"], [2, 2]), rows)
        engine = CompressedEngine(data, array_cutoff=1, run_cutoff=1)
        mask = engine.value_mask(1, 1)  # alternating bits -> bitmap
        assert mask.container_kinds() == {0: BITMAP}
        assert engine.count(mask) == 2  # uniform popcount path
        assert "CompressedBitmap" in repr(mask)
        assert "bitmap" in repr(mask)


class TestChunkBoundaries:
    def test_masks_crossing_the_chunk_boundary(self):
        """Queries over >64Ki distinct combinations span multiple chunks
        and must agree bit-for-bit with the packed reference."""
        data = make_boundary_dataset()
        packed = PackedBitsetEngine(data)
        engine = CompressedEngine(data)
        assert engine.unique_count > CHUNK_BITS  # really multi-chunk
        patterns = [
            Pattern.root(2),
            Pattern.of(CHUNK_BITS // 300, X),  # straddles the boundary
            Pattern.of(X, 299),
            Pattern.of(0, 0),
        ]
        for pattern in patterns:
            assert engine.coverage(pattern) == packed.coverage(pattern)
        assert list(engine.coverage_many(patterns)) == list(
            packed.coverage_many(patterns)
        )
        family_c = engine.restrict_children(engine.full_mask(), 0)
        family_p = packed.restrict_children(packed.full_mask(), 0)
        for child_c, child_p in zip(family_c, family_p):
            assert np.array_equal(
                engine.mask_to_bool(child_c), packed.mask_to_bool(child_p)
            )

    def test_multi_chunk_memory_beats_packed_on_sparse_domain(self):
        data = make_boundary_dataset()
        packed = PackedBitsetEngine(data)
        engine = CompressedEngine(data)
        assert engine.index_nbytes * 4 <= packed.index_nbytes

    def test_disjoint_chunk_masks_intersect_empty(self):
        """Rows living in different chunks share no chunk keys at all."""
        data = make_boundary_dataset()
        engine = CompressedEngine(data)
        first = engine.value_mask(0, 0)  # entirely in chunk 0
        last = engine.value_mask(0, data.cardinalities[0] - 1)  # chunk 1
        assert set(first.container_kinds()) != set(last.container_kinds())
        result = engine._and(first, last)
        assert result.chunks == {}
        assert engine.count(result) == 0


class TestThresholdValidation:
    @pytest.mark.parametrize("options", [
        {"array_cutoff": 0},
        {"array_cutoff": -5},
        {"array_cutoff": CHUNK_BITS + 1},
    ])
    def test_invalid_array_cutoff_rejected(self, options):
        with pytest.raises(EngineError, match="array_cutoff"):
            EngineConfig(backend="compressed", **options)

    def test_invalid_run_cutoff_rejected(self):
        with pytest.raises(EngineError, match="run_cutoff"):
            EngineConfig(backend="compressed", run_cutoff=0)

    def test_constructor_routes_through_the_same_validator(self, dataset):
        with pytest.raises(EngineError, match="array_cutoff"):
            CompressedEngine(dataset, array_cutoff=0)
        with pytest.raises(EngineError, match="run_cutoff"):
            CompressedEngine(dataset, run_cutoff=-1)

    @pytest.mark.parametrize("backend", ["dense", "packed", "sharded"])
    def test_cutoffs_rejected_on_other_backends(self, backend):
        with pytest.raises(EngineError, match="--engine compressed"):
            EngineConfig(backend=backend, array_cutoff=16)

    def test_sharded_knobs_rejected_on_compressed(self):
        with pytest.raises(EngineError, match="--engine sharded"):
            EngineConfig(backend="compressed", shards=4)

    def test_auto_cannot_force_both_backends(self):
        with pytest.raises(EngineError, match="cannot honour both"):
            EngineConfig(backend=AUTO, shards=2, array_cutoff=16)


class TestPlannerIntegration:
    def test_sparse_domain_auto_selects_compressed(self):
        sparse = random_categorical_dataset(
            20_000, (96, 80, 64), seed=5, skew=0.4
        )
        plan = plan_engine(sparse)
        assert plan.config.backend == "compressed"
        assert any("sparsity cutoff" in line for line in plan.rationale)
        engine = plan.build(sparse)
        assert isinstance(engine, CompressedEngine)

    def test_dense_domain_stays_packed(self):
        data = random_categorical_dataset(
            50_000, (4, 4, 3, 3), seed=5, skew=0.6
        )
        plan = plan_engine(data)
        assert plan.config.backend != "compressed"

    def test_explicit_cutoffs_force_compressed(self):
        tiny = random_categorical_dataset(30, (2, 2), seed=1, skew=1.0)
        plan = plan_engine(tiny, EngineConfig(backend=AUTO, run_cutoff=8))
        assert plan.config.backend == "compressed"
        assert plan.config.run_cutoff == 8
        assert any("forced" in line for line in plan.rationale)

    def test_forced_compressed_over_budget_warns_in_rationale(self):
        """Explicit thresholds are honoured even past the memory budget,
        but the over-budget projection must be visible in the plan."""
        big = random_categorical_dataset(5_000, (40, 40, 40), seed=2, skew=0.0)
        plan = plan_engine(
            big,
            EngineConfig(
                backend=AUTO, array_cutoff=4096, max_resident_bytes=1
            ),
        )
        assert plan.config.backend == "compressed"
        assert any(
            "warning" in line and "exceeds the memory budget" in line
            for line in plan.rationale
        )

    def test_compressed_replaces_sharding_when_it_fits_one_index(self):
        from repro.core.engine.planner import (
            PACKED_MAX_INDEX_BYTES,
            WorkloadStats,
        )

        unique = 1_500_000
        cardinalities = (512, 512, 512)
        words = (unique + 63) // 64
        stats = WorkloadStats(
            rows=unique,
            d=3,
            cardinalities=cardinalities,
            projected_unique=unique,
            projected_packed_bytes=sum(cardinalities) * words * 8,
            projected_dense_bytes=sum(cardinalities) * unique,
            memory_budget_bytes=1 << 40,
            cpu_count=4,
        )
        # Packed would have to shard (projection far over the ceiling)...
        assert stats.projected_packed_bytes > PACKED_MAX_INDEX_BYTES
        # ...but the sparse domain compresses into one flat index.
        plan = plan_engine(stats)
        assert plan.config.backend == "compressed"

    def test_over_budget_sparse_domain_prefers_compressed_in_ram(self):
        """A budget packed overflows but compressed fits must plan
        compressed (in RAM), not out-of-core spill — and once even the
        compressed index overflows, out-of-core wins again."""
        from repro.core.engine.planner import WorkloadStats

        unique = 200_000
        cardinalities = (96, 80, 64)
        words = (unique + 63) // 64
        def stats(budget):
            return WorkloadStats(
                rows=unique,
                d=3,
                cardinalities=cardinalities,
                projected_unique=unique,
                projected_packed_bytes=sum(cardinalities) * words * 8,
                projected_dense_bytes=sum(cardinalities) * unique,
                memory_budget_bytes=budget,
                cpu_count=2,
            )

        fits = stats(2 << 20)  # packed ~5.7 MiB > 2 MiB; compressed ~1.4 MiB
        assert fits.projected_packed_bytes > fits.memory_budget_bytes
        assert fits.projected_compressed_bytes <= fits.memory_budget_bytes
        plan = plan_engine(fits)
        assert plan.config.backend == "compressed"
        assert any("instead of out-of-core" in line for line in plan.rationale)

        overflows = stats(256 << 10)  # even compressed exceeds 256 KiB
        plan = plan_engine(overflows)
        assert plan.config.backend == "sharded"
        assert plan.config.spill_dir is not None

    def test_describe_surfaces_density_and_projection(self):
        sparse = random_categorical_dataset(
            20_000, (96, 80, 64), seed=5, skew=0.4
        )
        text = plan_engine(sparse).describe()
        assert "compressed index" in text
        assert "density" in text

    def test_mups_match_packed_on_planned_compressed(self):
        sparse = random_categorical_dataset(
            2_000, (64, 48), seed=7, skew=0.5
        )
        from repro.core.mups.base import find_mups

        compressed = find_mups(sparse, threshold=4, engine="compressed")
        packed = find_mups(sparse, threshold=4, engine="packed")
        assert compressed.as_set() == packed.as_set()


class TestCli:
    @pytest.fixture
    def sparse_csv(self, tmp_path):
        # Uniform values so every code appears and the CSV loader infers
        # the full cardinalities back.
        data = random_categorical_dataset(
            20_000, (96, 80, 64), seed=21, skew=0.0
        )
        path = tmp_path / "sparse.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["a", "b", "c"])
            writer.writerows(data.rows.tolist())
        return str(path)

    def test_explain_plan_shows_compressed_selection(self, sparse_csv, capsys):
        code = main(
            [
                "identify",
                sparse_csv,
                "--threshold",
                "3",
                "--max-level",
                "1",
                "--explain-plan",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "backend=compressed" in output
        assert "sparsity cutoff" in output

    def test_engine_compressed_flag_with_cutoffs(self, sparse_csv, capsys):
        code = main(
            [
                "identify",
                sparse_csv,
                "--threshold",
                "3",
                "--max-level",
                "1",
                "--engine",
                "compressed",
                "--array-cutoff",
                "1024",
                "--run-cutoff",
                "16",
            ]
        )
        assert code == 0


class TestLifecycle:
    def test_template_rebuild_preserves_cutoffs(self, dataset):
        other = random_categorical_dataset(40, (3, 9, 2), seed=3, skew=0.8)
        engine = CompressedEngine(
            dataset, array_cutoff=8, run_cutoff=2, mask_cache_size=5
        )
        template = engine.template()
        assert isinstance(template, EngineConfig)
        rebuilt = resolve_engine(template, other)
        assert isinstance(rebuilt, CompressedEngine)
        assert rebuilt.array_cutoff == 8
        assert rebuilt.run_cutoff == 2
        assert rebuilt.mask_cache_size == 5

    def test_close_and_context_manager_are_no_ops(self, dataset):
        with CompressedEngine(dataset) as engine:
            root = Pattern.root(3)
            assert engine.coverage(root) == dataset.n
        # In-memory backend: close() releases nothing, queries still work.
        assert engine.coverage(root) == dataset.n

    def test_cached_masks_are_isolated(self, dataset):
        engine = CompressedEngine(dataset, mask_cache_size=16)
        pattern = Pattern.of(1, X, X)
        before = engine.coverage(pattern)
        mask = engine.match_mask(pattern)
        # Clobber the caller's copy; the cache must be unaffected.
        mask.chunks.clear()
        assert engine.coverage(pattern) == before

    def test_empty_dataset(self):
        empty = Dataset(Schema.binary(2), np.zeros((0, 2), dtype=np.int32))
        engine = CompressedEngine(empty)
        root = Pattern.root(2)
        assert engine.coverage(root) == 0
        assert list(engine.coverage_many([root, root])) == [0, 0]
        assert engine.full_mask().chunks == {}
        assert engine.index_nbytes == 0

    def test_weighted_counts_use_multiplicities(self):
        data = Dataset(
            Schema.of(["a", "b"], [2, 2]),
            np.asarray(
                [[0, 0]] * 5 + [[1, 1]] * 3 + [[0, 1]], dtype=np.int32
            ),
        )
        engine = CompressedEngine(data)
        assert engine.coverage(Pattern.of(0, 0)) == 5
        assert engine.coverage(Pattern.of(0, X)) == 6
        assert engine.coverage(Pattern.root(2)) == 9
