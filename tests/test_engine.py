"""Unit tests for the pluggable coverage-engine layer."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    CoverageEngine,
    EngineConfig,
    PackedBitsetEngine,
    engine_name,
    resolve_engine,
)
from repro.core.mups.base import find_mups, resolve_threshold
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset, Schema
from repro.exceptions import PatternError, ReproError


#: Every backend, the planner's pick, and packed with its cache disabled.
CONTRACT_SPECS = {
    **{name: name for name in sorted(ENGINES)},
    "auto": "auto",
    "packed-nocache": EngineConfig(backend="packed", mask_cache_size=0),
}


@pytest.fixture(params=sorted(CONTRACT_SPECS))
def engine_of(request):
    def build(dataset):
        return resolve_engine(CONTRACT_SPECS[request.param], dataset)

    build.name = request.param
    return build


class TestRegistry:
    def test_packed_is_the_only_backend(self):
        assert ENGINES == {"packed": PackedBitsetEngine}
        assert DEFAULT_ENGINE == "packed"

    def test_resolve_rejects_unknown(self, example1_dataset):
        with pytest.raises(ReproError):
            resolve_engine("sparse", example1_dataset)
        with pytest.raises(ReproError):
            resolve_engine(42, example1_dataset)

    def test_resolve_rejects_foreign_dataset_instance(self, example1_dataset):
        other = Dataset.from_strings(["11", "01"])
        engine = PackedBitsetEngine(other)
        with pytest.raises(ReproError):
            resolve_engine(engine, example1_dataset)
        with pytest.raises(ReproError):
            CoverageOracle(example1_dataset, engine=engine)

    def test_engine_name_normalizes_specs(self):
        assert engine_name(None) == DEFAULT_ENGINE
        assert engine_name("packed") == "packed"
        assert engine_name(PackedBitsetEngine) == "packed"
        with pytest.raises(ReproError):
            engine_name("sparse")

    def test_oracle_exposes_engine(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset, engine="packed")
        assert isinstance(oracle.engine, PackedBitsetEngine)
        assert isinstance(
            CoverageOracle(example1_dataset).engine, ENGINES[DEFAULT_ENGINE]
        )


class TestEngineContract:
    def test_example1_coverage(self, example1_dataset, engine_of):
        engine = engine_of(example1_dataset)
        assert engine.coverage(Pattern.from_string("XXX")) == 5
        assert engine.coverage(Pattern.from_string("0XX")) == 5
        assert engine.coverage(Pattern.from_string("1XX")) == 0
        assert engine.coverage(Pattern.from_string("0X1")) == 3

    def test_pattern_validation(self, example1_dataset, engine_of):
        engine = engine_of(example1_dataset)
        with pytest.raises(PatternError):
            engine.coverage(Pattern.from_string("XX"))
        with pytest.raises(PatternError):
            engine.coverage(Pattern.of(5, "X", "X"))

    def test_coverage_many_empty(self, example1_dataset, engine_of):
        engine = engine_of(example1_dataset)
        assert engine.coverage_many([]).shape == (0,)
        assert engine.count_many([]).shape == (0,)

    def test_empty_dataset(self, engine_of):
        dataset = Dataset(Schema.binary(2), np.zeros((0, 2), dtype=np.int32))
        engine = engine_of(dataset)
        assert engine.coverage(Pattern.root(2)) == 0
        assert list(engine.coverage_many([Pattern.root(2)])) == [0]
        assert engine.count(engine.full_mask()) == 0

    def test_duplicate_multiplicities_counted(self, engine_of):
        dataset = Dataset.from_strings(["00", "00", "00", "01"])
        engine = engine_of(dataset)
        assert engine.unique_count == 2
        assert engine.coverage(Pattern.from_string("0X")) == 4
        assert engine.coverage(Pattern.from_string("00")) == 3

    def test_restrict_children_matches_restrict(self, example1_dataset, engine_of):
        engine = engine_of(example1_dataset)
        mask = engine.full_mask()
        family = engine.restrict_children(mask, 1)
        assert len(family) == 2
        for value, child in enumerate(family):
            expected = engine.mask_to_bool(engine.restrict(mask, 1, value))
            assert np.array_equal(engine.mask_to_bool(child), expected)


class TestPackedSpecifics:
    def test_masks_are_word_arrays(self, example1_dataset):
        engine = PackedBitsetEngine(example1_dataset)
        full = engine.full_mask()
        # One word covers the few unique rows; tail bits stay clear.
        assert full.dtype == np.uint64
        assert full.tolist() == [(1 << engine.unique_count) - 1]
        mask = engine.match_mask(Pattern.from_string("0XX"))
        assert isinstance(mask, np.ndarray) and mask.dtype == np.uint64
        family = engine.restrict_children(full, 0)
        assert all(child.dtype == np.uint64 for child in family)

    def test_full_mask_is_a_fresh_copy(self):
        # 70 unique rows: the second word carries six live bits.
        dataset = Dataset.from_rows([[a, b] for a in range(7) for b in range(10)])
        engine = PackedBitsetEngine(dataset)
        full = engine.full_mask()
        assert full.tolist() == [(1 << 64) - 1, (1 << 6) - 1]
        full[:] = 0
        assert engine.full_mask().tolist() == [(1 << 64) - 1, (1 << 6) - 1]
        assert engine.coverage(Pattern.root(2)) == dataset.n

    def test_match_masks_leave_the_index_untouched(self):
        rng = np.random.default_rng(3)
        dataset = Dataset.from_rows(rng.integers(0, 4, size=(300, 3)).tolist())
        engine = PackedBitsetEngine(dataset, mask_cache_size=0)
        before = [engine.word_matrix(i).copy() for i in range(dataset.d)]
        patterns = [
            Pattern.of(a, b, c)
            for a in ("X", 0, 3)
            for b in ("X", 1)
            for c in ("X", 2)
        ]
        # The in-place AND runs over a copy, never over an index row.
        for pattern in patterns:
            mask = engine.match_mask(pattern)
            for i in range(dataset.d):
                assert not np.shares_memory(mask, engine.word_matrix(i))
            assert engine.count(mask) == coverage_scan(dataset, pattern)
        for i, words in enumerate(before):
            assert np.array_equal(engine.word_matrix(i), words)

    def test_index_is_packed_smaller(self):
        rng = np.random.default_rng(0)
        dataset = Dataset.from_rows(rng.integers(0, 5, size=(2000, 4)).tolist())
        unique_count = Dataset.unique_rows(dataset)[0].shape[0]
        assert unique_count > 64
        packed = PackedBitsetEngine(dataset)
        # One bit, not one bool byte, per unique row and attribute value,
        # padded to whole uint64 words.
        words = -(-unique_count // 64)
        assert packed.index_nbytes == sum(dataset.cardinalities) * words * 8
        assert packed.index_nbytes < sum(dataset.cardinalities) * unique_count

    def test_weighted_and_uniform_paths_agree(self):
        # Duplicate rows exercise the weighted-count path; Definition 2's
        # row scan is the reference.
        rows = [[0, 1], [0, 1], [1, 0], [1, 1], [0, 0], [0, 0], [0, 0]]
        dataset = Dataset.from_rows(rows)
        packed = PackedBitsetEngine(dataset)
        patterns = [
            Pattern.of(a, b)
            for a in ("X", 0, 1)
            for b in ("X", 0, 1)
        ]
        assert list(packed.coverage_many(patterns)) == [
            coverage_scan(dataset, p) for p in patterns
        ]


class TestFacadeSelection:
    def test_find_mups_engine_kwarg(self, example1_dataset):
        for algorithm in sorted(
            ("naive", "apriori", "pattern_breaker", "pattern_combiner", "deepdiver")
        ):
            packed = find_mups(
                example1_dataset, threshold=1, algorithm=algorithm, engine="packed"
            )
            assert packed.as_set() == {Pattern.from_string("1XX")}

    def test_find_mups_rejects_unknown_engine(self, example1_dataset):
        with pytest.raises(ReproError):
            find_mups(
                example1_dataset, threshold=1, algorithm="deepdiver", engine="sparse"
            )

    def test_resolve_threshold_needs_no_index(self, example1_dataset):
        assert resolve_threshold(example1_dataset, threshold_rate=0.5) == 3
        assert resolve_threshold(example1_dataset, threshold_rate=0.0) == 1
        with pytest.raises(ReproError, match="threshold_rate"):
            resolve_threshold(example1_dataset, threshold_rate=-0.1)

    def test_mup_result_membership_cached(self, example1_dataset):
        result = find_mups(example1_dataset, threshold=1)
        assert Pattern.from_string("1XX") in result
        assert Pattern.from_string("0XX") not in result
        assert result.as_set() is result.as_set()


class TestCliEngineFlag:
    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n" + "\n".join(["0,1,0", "0,0,1", "0,0,0", "0,1,1"]))
        return str(path)

    def test_identify_runs_on_both_engines(self, csv_file, capsys):
        outputs = []
        for engine in ("packed", "auto"):
            assert (
                main(["identify", csv_file, "--threshold", "1", "--engine", engine])
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "1XX" in outputs[0]

    def test_unknown_engine_rejected(self, csv_file):
        with pytest.raises(SystemExit):
            main(["identify", csv_file, "--threshold", "1", "--engine", "sparse"])

    def test_dense_engine_rejected(self, csv_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["identify", csv_file, "--threshold", "1", "--engine", "dense"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice: 'dense'" in error
        assert "(choose from 'packed', 'auto')" in error

    def test_help_documents_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["identify", "--help"])
        help_text = capsys.readouterr().out
        assert "--engine" in help_text
        assert "packed" in help_text


class TestMaskCacheConcurrency:
    """Regression: the hot-mask LRU under concurrent ``match_mask`` calls.

    Before the cache took a lock, two threads missing on the same pattern
    could both insert the mask (double-counting its bytes) while evictions
    subtracted sizes that were never added — ``cache_info()["nbytes"]``
    went negative and the counters drifted from the call count.
    """

    def test_threaded_match_mask_keeps_accounting_consistent(self):
        import random
        import threading

        from repro.data.synthetic import random_categorical_dataset

        dataset = random_categorical_dataset(300, (3, 3, 2, 2), seed=5, skew=0.8)
        engine = PackedBitsetEngine(dataset, mask_cache_size=4)
        pool = [Pattern.of(*row) for row in {tuple(r) for r in dataset.rows}]
        pool = sorted(pool, key=lambda p: p.values)[:12]
        truth = {
            p.values: sum(1 for row in dataset.rows if p.matches(row))
            for p in pool
        }

        n_threads, iterations = 8, 30
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(iterations):
                pattern = rng.choice(pool)
                count = engine.coverage(pattern)
                if count != truth[pattern.values]:
                    errors.append(("count", pattern, count))
                info = engine.cache_info()
                if info["nbytes"] < 0:
                    errors.append(("negative nbytes", dict(info)))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert not errors, errors[:3]
            info = engine.cache_info()
            # Every coverage call is exactly one hit or one miss.
            assert info["hits"] + info["misses"] == n_threads * iterations
            assert info["entries"] <= 4
            assert info["nbytes"] >= 0
            assert 0.0 <= info["hit_rate"] <= 1.0
        finally:
            engine.close()
