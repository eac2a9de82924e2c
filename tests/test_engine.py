"""Unit tests for the coverage engine and the one check on engine specs."""

import numpy as np
import pytest

from repro.analysis.hierarchy import HierarchyStack, find_mups_hierarchical
from repro.analysis.nutrition import coverage_label
from repro.analysis.report import mup_report
from repro.analysis.sweep import sweep_mups
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import (
    ENGINES,
    CoverageEngine,
    check_engine,
    engine_name,
)
from repro.core.enhancement import plan_hierarchical_enhancement
from repro.core.enhancement.greedy import greedy_cover
from repro.core.incremental import IncrementalMupIndex
from repro.core.mups.apriori import apriori_mups
from repro.core.mups.base import find_mups, resolve_threshold
from repro.core.mups.naive import naive_mups
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError, PatternError, ReproError


#: How each contract test builds its engine: by either name through an
#: oracle, and directly.
CONTRACT_SPECS = {
    "packed": lambda dataset: CoverageOracle(dataset, engine="packed").engine,
    "auto": lambda dataset: CoverageOracle(dataset, engine="auto").engine,
    "prebuilt": lambda dataset: CoverageEngine(dataset),
}

#: Values that are not engine specs: other names, a number, classes, a
#: factory.
NOT_ENGINES = {
    "roaring": "roaring",
    "dense": "dense",
    "number": 42,
    "int-class": int,
    "engine-class": CoverageEngine,
    "factory": lambda dataset: CoverageEngine(dataset),
}


@pytest.fixture(params=sorted(CONTRACT_SPECS))
def engine_of(request):
    return CONTRACT_SPECS[request.param]


def _stack(dataset):
    return HierarchyStack.of(dataset, {"A1": [AttributeHierarchy.of("A1", [0, 0])]})


def _hierarchical(dataset, **kwargs):
    result = find_mups_hierarchical(dataset, _stack(dataset), threshold=1, **kwargs)
    return result.mups, result.remedies


def _hierarchical_plan(dataset, **kwargs):
    found = find_mups_hierarchical(dataset, _stack(dataset), threshold=1)
    plan = plan_hierarchical_enhancement(
        dataset, found.mups, found.remedies, 1, **kwargs
    )
    return plan.generalizations, plan.acquired, plan.acquisition_cost


def _greedy(dataset, **kwargs):
    targets = [Pattern.of(1, X, X), Pattern.of(X, 1, 1)]
    return greedy_cover(targets, PatternSpace.for_dataset(dataset), **kwargs).combinations


#: Every public function or class that takes ``engine=``, run over a
#: dataset at τ = 1 with extra keyword arguments; each returns an answer
#: that no accepted engine spec may change.
ENTRY_POINTS = {
    "CoverageOracle": lambda dataset, **kwargs: list(
        CoverageOracle(dataset, **kwargs).coverage_many(
            list(PatternSpace.for_dataset(dataset).all_patterns())
        )
    ),
    "find_mups": lambda dataset, **kwargs: find_mups(
        dataset, threshold=1, **kwargs
    ).as_set(),
    "naive_mups": lambda dataset, **kwargs: naive_mups(dataset, 1, **kwargs).as_set(),
    "apriori_mups": lambda dataset, **kwargs: apriori_mups(
        dataset, 1, **kwargs
    ).as_set(),
    "sweep_mups": lambda dataset, **kwargs: [
        sweep_mups(dataset, [1, 3], **kwargs).mups_at(tau).as_set() for tau in (1, 3)
    ],
    "IncrementalMupIndex": lambda dataset, **kwargs: IncrementalMupIndex(
        dataset, 1, **kwargs
    ).mups(),
    "mup_report": lambda dataset, **kwargs: mup_report(
        dataset, find_mups(dataset, threshold=1), **kwargs
    ),
    "coverage_label": lambda dataset, **kwargs: coverage_label(dataset, 1, **kwargs),
    "find_mups_hierarchical": _hierarchical,
    "plan_hierarchical_enhancement": _hierarchical_plan,
    "greedy_cover": _greedy,
}

#: The entry points that also take a prebuilt ``oracle=``.
TAKES_ORACLE = (
    "find_mups",
    "naive_mups",
    "apriori_mups",
    "IncrementalMupIndex",
    "mup_report",
    "find_mups_hierarchical",
    "plan_hierarchical_enhancement",
)


class TestRegistry:
    def test_packed_is_the_only_backend(self):
        assert ENGINES == {"packed": CoverageEngine}
        assert CoverageEngine.name == "packed"

    def test_resolve_rejects_unknown(self, example1_dataset):
        with pytest.raises(ReproError):
            CoverageOracle(example1_dataset, engine="sparse")
        with pytest.raises(ReproError):
            CoverageOracle(example1_dataset, engine=42)

    def test_resolve_rejects_foreign_dataset_instance(self, example1_dataset):
        other = Dataset.from_strings(["11", "01"])
        engine = CoverageEngine(other)
        with pytest.raises(ReproError):
            check_engine(engine, example1_dataset)
        with pytest.raises(ReproError):
            CoverageOracle(example1_dataset, engine=engine)

    def test_engine_name_normalizes_specs(self, example1_dataset):
        for spec in (None, "packed", "auto", CoverageEngine(example1_dataset)):
            assert engine_name(spec) == "packed"
        with pytest.raises(ReproError):
            engine_name("sparse")

    def test_oracle_exposes_engine(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset, engine="packed")
        assert isinstance(oracle.engine, CoverageEngine)
        assert isinstance(CoverageOracle(example1_dataset).engine, CoverageEngine)


class TestEngineSpecs:
    """``check_engine`` is the one check every ``engine=`` argument takes."""

    @pytest.mark.parametrize("spec", NOT_ENGINES.values(), ids=NOT_ENGINES)
    def test_non_engines_are_rejected_with_the_accepted_forms(
        self, example1_dataset, spec
    ):
        accepted = r"accepted: None, 'auto', 'packed' or a CoverageEngine"
        with pytest.raises(EngineError, match=accepted):
            check_engine(spec)
        with pytest.raises(EngineError, match=accepted):
            CoverageOracle(example1_dataset, engine=spec)
        with pytest.raises(EngineError, match=accepted):
            engine_name(spec)

    def test_an_equal_dataset_is_another_dataset(self, example1_dataset):
        # Identity, not equality: a copy is a different index lifetime.
        clone = Dataset(example1_dataset.schema, example1_dataset.rows.copy())
        engine = CoverageEngine(clone)
        with pytest.raises(EngineError, match="different dataset"):
            check_engine(engine, example1_dataset)
        with pytest.raises(EngineError, match="different dataset"):
            find_mups(example1_dataset, threshold=1, engine=engine)
        assert check_engine(engine, clone) is engine
        assert CoverageOracle(clone, engine=engine).engine is engine

    def test_names_build_the_default_engine(self, example1_dataset):
        for spec in (None, "auto", "packed"):
            assert check_engine(spec, example1_dataset) is None
            engine = CoverageOracle(example1_dataset, engine=spec).engine
            assert type(engine) is CoverageEngine
            assert engine.dataset is example1_dataset

    @pytest.mark.parametrize("spec", ["bogus", 42, CoverageEngine])
    def test_greedy_rejects_a_non_engine_spec(self, spec):
        space = PatternSpace([2, 3, 2])
        with pytest.raises(EngineError):
            greedy_cover([Pattern.of(0, X, X)], space, engine=spec)

    @pytest.mark.parametrize("spec", [None, "packed", "auto"])
    def test_greedy_plans_alike_on_every_engine_spec(self, spec):
        """GREEDY reads no engine, so every spec gives the same plan."""
        space = PatternSpace([2, 3, 2])
        targets = [
            Pattern.of(0, X, X), Pattern.of(X, 1, X), Pattern.of(X, 2, 1),
            Pattern.of(1, X, 0), Pattern.of(1, 0, X),
        ]
        plan = greedy_cover(targets, space, engine=spec)
        assert plan.combinations == ((1, 0, 0), (0, 1, 0), (0, 2, 1))

    def test_auto_mups_on_a_sparse_domain_match_pattern_breaker(self):
        # APRIORI counts through the engine "auto" builds; PATTERN-BREAKER
        # counts the unique rows.
        sparse = random_categorical_dataset(2_000, (64, 48), seed=7, skew=0.5)
        auto = find_mups(sparse, threshold=4, algorithm="apriori", engine="auto")
        reference = find_mups(sparse, threshold=4, algorithm="pattern_breaker")
        assert auto.as_set() == reference.as_set()


class TestEveryEntryPoint:
    """Every ``engine=`` argument goes through the one check: the accepted
    forms give one answer, and anything else raises before any work."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_accepted_form_gives_one_answer(self, example1_dataset, entry):
        run = ENTRY_POINTS[entry]
        expected = run(example1_dataset)
        for spec in (None, "auto", "packed", CoverageEngine(example1_dataset)):
            assert run(example1_dataset, engine=spec) == expected

    @pytest.mark.parametrize("spec", NOT_ENGINES.values(), ids=NOT_ENGINES)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_a_non_engine(self, example1_dataset, entry, spec):
        accepted = r"accepted: None, 'auto', 'packed' or a CoverageEngine"
        with pytest.raises(EngineError, match=accepted):
            ENTRY_POINTS[entry](example1_dataset, engine=spec)

    @pytest.mark.parametrize(
        "entry", sorted(set(ENTRY_POINTS) - {"greedy_cover"})
    )
    def test_rejects_an_engine_over_another_dataset(self, example1_dataset, entry):
        clone = Dataset(example1_dataset.schema, example1_dataset.rows.copy())
        with pytest.raises(EngineError, match="different dataset"):
            ENTRY_POINTS[entry](example1_dataset, engine=CoverageEngine(clone))

    @pytest.mark.parametrize("entry", TAKES_ORACLE)
    def test_an_oracle_does_not_excuse_a_bad_spec(self, example1_dataset, entry):
        oracle = CoverageOracle(example1_dataset)
        run = ENTRY_POINTS[entry]
        with pytest.raises(EngineError, match="unknown coverage engine"):
            run(example1_dataset, oracle=oracle, engine="bogus")
        assert run(example1_dataset, oracle=oracle, engine="packed") == run(
            example1_dataset
        )

    def test_skipped_work_does_not_skip_the_check(self, example1_dataset):
        result = find_mups(example1_dataset, threshold=1)
        with pytest.raises(EngineError, match="unknown coverage engine"):
            coverage_label(example1_dataset, 1, result=result, engine="bogus")
        with pytest.raises(EngineError, match="unknown coverage engine"):
            find_mups_hierarchical(
                example1_dataset,
                _stack(example1_dataset),
                threshold=1,
                remedies=False,
                engine="bogus",
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
        with pytest.raises(PatternError, match="length"):
            engine.coverage(Pattern.from_string("XX"))
        with pytest.raises(PatternError, match="out-of-range"):
            engine.coverage(Pattern.of(5, "X", "X"))

    def test_coverage_many_empty(self, example1_dataset, engine_of):
        engine = engine_of(example1_dataset)
        assert engine.coverage_many([]).shape == (0,)
        assert engine.count_many([]).shape == (0,)

    def test_empty_dataset(self, engine_of):
        dataset = Dataset(Schema.binary(2), np.zeros((0, 2), dtype=np.int32))
        engine = engine_of(dataset)
        root = Pattern.root(2)
        assert engine.coverage(root) == 0
        assert list(engine.coverage_many([root, root])) == [0, 0]
        assert engine.count(engine.full_mask()) == 0
        assert engine.count(engine.match_mask(root)) == 0
        assert list(engine.mask_to_bool(engine.match_mask(root))) == []

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
        engine = CoverageEngine(example1_dataset)
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
        engine = CoverageEngine(dataset)
        full = engine.full_mask()
        assert full.tolist() == [(1 << 64) - 1, (1 << 6) - 1]
        full[:] = 0
        assert engine.full_mask().tolist() == [(1 << 64) - 1, (1 << 6) - 1]
        assert engine.coverage(Pattern.root(2)) == dataset.n

    def test_match_masks_leave_the_index_untouched(self):
        rng = np.random.default_rng(3)
        dataset = Dataset.from_rows(rng.integers(0, 4, size=(300, 3)).tolist())
        engine = CoverageEngine(dataset)
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
        packed = CoverageEngine(dataset)
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
        packed = CoverageEngine(dataset)
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


class TestConcurrentQueries:
    """Threads sharing one engine, as the serving layer's executor threads
    share one warm engine, get the counts a serial run gets."""

    def test_threaded_queries_get_the_serial_counts(self):
        import random
        import sys
        import threading

        dataset = random_categorical_dataset(300, (3, 3, 2, 2), seed=5, skew=0.8)
        engine = CoverageEngine(dataset)
        pool = [Pattern.of(*row) for row in {tuple(r) for r in dataset.rows}]
        pool = sorted(pool, key=lambda p: p.values)[:12]
        pool += [p.with_value(0, X) for p in pool[:4]] + [Pattern.root(dataset.d)]
        serial = {p.values: coverage_scan(dataset, p) for p in pool}

        n_threads, iterations = 8, 30
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(iterations):
                pattern = rng.choice(pool)
                expected = serial[pattern.values]
                counts = {
                    "coverage": engine.coverage(pattern),
                    "match_mask": engine.count(engine.match_mask(pattern)),
                }
                batch = rng.sample(pool, 3)
                got = list(engine.coverage_many(batch))
                if got != [serial[p.values] for p in batch]:
                    errors.append(("coverage_many", batch, got))
                for kind, count in counts.items():
                    if count != expected:
                        errors.append((kind, pattern, count))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
