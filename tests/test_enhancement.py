"""Unit and integration tests for coverage enhancement (§IV, Algs. 4–5)."""

import numpy as np
import pytest

import repro.core.enhancement.greedy as greedy_module
from repro.core.coverage import CoverageOracle
from repro.core.enhancement.expansion import uncovered_at_level
from repro.core.enhancement.greedy import enhance_coverage, greedy_cover
from repro.core.enhancement.hitting_set import naive_greedy_cover
from repro.core.enhancement.oracle import ValidationOracle, ValidationRule
from repro.core.enhancement.value_count import targets_by_value_count
from repro.core.lattice import PatternCodes, PatternLattice
from repro.core.mups import deepdiver
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.bluenile import load_bluenile
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EnhancementError, PatternError, ValidationError


@pytest.fixture(params=["algorithm4", "grid"])
def search_path(request, monkeypatch):
    """Run GREEDY on each path: a grid cap of 0 forces Algorithm 4."""
    if request.param == "algorithm4":
        monkeypatch.setattr(greedy_module, "_GRID_BYTES", 0)
    return request.param


def _hits(combo, targets):
    return {t for t in targets if t.matches(combo)}


def _hits_any(target, combinations):
    return any(target.matches(c) for c in combinations)


class TestExample2Greedy:
    """The paper's running Example 2 (§IV-B)."""

    def test_first_pick_hits_three_patterns(self, example2_space, example2_level2_targets):
        plan = greedy_cover(example2_level2_targets, example2_space)
        first = plan.combinations[0]
        assert len(_hits(first, example2_level2_targets)) == 3

    def test_greedy_uses_three_combinations(self, example2_space, example2_level2_targets):
        # The paper's greedy run collects three value combinations; three is
        # also optimal (P1, P5, P2 pairwise conflict on A3).
        plan = greedy_cover(example2_level2_targets, example2_space)
        assert len(plan.combinations) == 3
        assert not plan.unhittable

    def test_all_targets_hit(self, example2_space, example2_level2_targets):
        plan = greedy_cover(example2_level2_targets, example2_space)
        hit = set()
        for combo in plan.combinations:
            hit |= _hits(combo, example2_level2_targets)
        assert hit == set(example2_level2_targets)

    def test_paper_combination_02011_hits_p1_p3_p4(self, example2_level2_targets):
        hits = _hits((0, 2, 0, 1, 1), example2_level2_targets)
        assert set(map(str, hits)) == {"XX01X", "XXXX1", "02XXX"}

    def test_naive_baseline_agrees_on_cover_size(
        self, example2_space, example2_level2_targets
    ):
        greedy_plan = greedy_cover(example2_level2_targets, example2_space)
        naive_plan = naive_greedy_cover(example2_level2_targets, example2_space)
        assert len(naive_plan.combinations) == len(greedy_plan.combinations)
        assert not naive_plan.unhittable


class TestGeneralization:
    def test_generalized_pattern_hits_same_targets(
        self, example2_space, example2_level2_targets
    ):
        plan = greedy_cover(example2_level2_targets, example2_space)
        for combo, general in zip(plan.combinations, plan.generalized):
            base_hits = _hits(combo, example2_level2_targets)
            for alternative in example2_space.combinations_matching(general):
                assert base_hits <= _hits(alternative, example2_level2_targets)

    def test_generalized_pattern_covers_the_combo(
        self, example2_space, example2_level2_targets
    ):
        plan = greedy_cover(example2_level2_targets, example2_space)
        for combo, general in zip(plan.combinations, plan.generalized):
            assert general.matches(combo)


class TestValidationIntegration:
    def test_blocked_targets_reported_unhittable(self, example2_space):
        # Forbid A1=1 entirely; the target 1XXXX becomes unhittable.
        oracle = ValidationOracle([ValidationRule({0: [1]})])
        targets = [Pattern.from_string("1XXXX"), Pattern.from_string("0XXXX")]
        plan = greedy_cover(targets, example2_space, oracle)
        assert set(map(str, plan.unhittable)) == {"1XXXX"}
        assert len(plan.combinations) == 1
        assert plan.combinations[0][0] == 0

    def test_all_output_combinations_are_valid(self, example2_space, example2_level2_targets):
        oracle = ValidationOracle([ValidationRule({0: [0], 1: [2]})])
        plan = greedy_cover(example2_level2_targets, example2_space, oracle)
        for combo in plan.combinations:
            assert oracle.is_valid_values(combo)

    def test_naive_respects_validation_too(self, example2_space, example2_level2_targets):
        oracle = ValidationOracle([ValidationRule({0: [0], 1: [2]})])
        plan = naive_greedy_cover(example2_level2_targets, example2_space, oracle)
        for combo in plan.combinations:
            assert oracle.is_valid_values(combo)


class TestGreedyVsNaiveRandom:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_covers_complete_and_comparable(self, seed):
        space = PatternSpace([2, 3, 2, 2])
        rng = np.random.default_rng(seed)
        targets = list({space.random_pattern(rng, level=2) for _ in range(8)})
        fast = greedy_cover(targets, space)
        slow = naive_greedy_cover(targets, space)
        assert not fast.unhittable and not slow.unhittable
        # Both are greedy runs; tie-breaking may differ, but each cover is
        # complete and the sizes stay within the greedy guarantee band.
        for plan in (fast, slow):
            remaining = set(targets)
            for combo in plan.combinations:
                remaining -= {t for t in remaining if t.matches(combo)}
            assert not remaining
        assert abs(len(fast.combinations) - len(slow.combinations)) <= max(
            1, len(targets) // 2
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_each_pick_is_greedy_optimal(self, seed):
        space = PatternSpace([2, 2, 3])
        rng = np.random.default_rng(seed + 100)
        targets = list({space.random_pattern(rng) for _ in range(6)})
        targets = [t for t in targets if t.level > 0]
        plan = greedy_cover(targets, space)
        remaining = set(targets)
        for combo in plan.combinations:
            best_possible = max(
                len(_hits(c, remaining)) for c in space.all_combinations()
            )
            actual = len(_hits(combo, remaining))
            assert actual == best_possible
            remaining -= _hits(combo, remaining)


class TestWordBoundaries:
    """The target index packs 64 targets per word; plans must not depend
    on where the word boundaries fall."""

    SPACE = PatternSpace([3, 3, 3, 3, 2])

    @staticmethod
    def _replay(plan, targets, combinations):
        """Check each pick is a best one and hits what the plan says."""
        remaining = set(targets)
        for combo, general in zip(plan.combinations, plan.generalized):
            hits = _hits(combo, remaining)
            assert len(hits) == max(len(_hits(c, remaining)) for c in combinations)
            assert all(
                (general[i] == X) == all(t[i] == X for t in hits)
                for i in range(len(combo))
            )
            remaining -= hits
        return remaining

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_picks_are_greedy_optimal_across_word_boundaries(self, m):
        rng = np.random.default_rng(m)
        patterns = sorted(self.SPACE.all_patterns())
        picked = rng.choice(len(patterns), size=m, replace=False)
        targets = [patterns[i] for i in sorted(picked)]
        plan = greedy_cover(targets, self.SPACE)
        assert plan.targets == m and not plan.unhittable
        assert not self._replay(plan, targets, list(self.SPACE.all_combinations()))

    @pytest.mark.parametrize("seed", range(6))
    def test_picks_with_rules_are_optimal_among_valid_combinations(self, seed):
        rng = np.random.default_rng(seed + 500)
        targets = sorted({self.SPACE.random_pattern(rng) for _ in range(90)})
        rules = [
            ValidationRule({int(a): int(rng.integers(3)), int(b): int(rng.integers(2))})
            for a, b in (rng.choice(4, size=2, replace=False), (0, 4))
        ]
        oracle = ValidationOracle(rules)
        valid = [
            c for c in self.SPACE.all_combinations() if oracle.is_valid_values(c)
        ]
        plan = greedy_cover(targets, self.SPACE, oracle)
        assert all(oracle.is_valid_values(c) for c in plan.combinations)
        left = self._replay(plan, targets, valid)
        unhittable = {t for t in targets if not _hits_any(t, valid)}
        assert left == unhittable == set(plan.unhittable)


def test_grid_picks_read_only_the_cells_they_can_pick(monkeypatch):
    """A few targets over 10^6 combinations: each level-3 target is hit by
    10^3 of them, so the picks, after the grid's build, popcount at most
    20 · 10^3 grid words each, not 10^6."""
    space = PatternSpace((10,) * 6)
    rng = np.random.default_rng(3)
    targets = set()
    while len(targets) < 20:
        targets.add(space.random_pattern(rng, 3))
    targets = sorted(targets)
    words = []
    popcount = greedy_module.popcount_words

    def counting(array):
        words.append(array.size)
        return popcount(array)

    build = greedy_module._CombinationGrid.__init__

    def built(self, *args):
        build(self, *args)
        words.clear()

    monkeypatch.setattr(greedy_module, "popcount_words", counting)
    monkeypatch.setattr(greedy_module._CombinationGrid, "__init__", built)
    plan = greedy_cover(targets, space)
    assert plan.nodes_visited == 10**6  # the grid's cells: it was built
    assert plan.iterations > 1 and not plan.unhittable
    assert sum(words) < 10**6
    monkeypatch.setattr(greedy_module, "_GRID_BYTES", 0)
    assert greedy_cover(targets, space).combinations == plan.combinations


@pytest.mark.parametrize("seed", range(4))
def test_grid_plans_alike_one_word_row_per_pass(monkeypatch, seed):
    """With one word row per pass, the build, the picks and the in-place
    column drops each run over many blocks; the plan stays Algorithm 4's."""
    space = PatternSpace([3, 3, 3, 3, 2])
    rng = np.random.default_rng(seed + 700)
    targets = sorted({space.random_pattern(rng, int(rng.integers(2, 5))) for _ in range(150)})
    plans = []
    for grid_bytes in (greedy_module._GRID_BYTES, 0):
        monkeypatch.setattr(greedy_module, "_GRID_BYTES", grid_bytes)
        monkeypatch.setattr(greedy_module, "_PASS_BYTES", 8)
        plan = greedy_cover(targets, space)
        plans.append((plan.combinations, plan.generalized, plan.unhittable))
    assert plans[0] == plans[1]


class TestEndToEnd:
    @pytest.mark.parametrize("level", [1, 2])
    def test_enhancement_reaches_target_level(self, level):
        dataset = random_categorical_dataset(60, (2, 3, 2), seed=9, skew=1.1)
        tau = 5
        mups = deepdiver(dataset, tau).mups
        result, enhanced = enhance_coverage(dataset, mups, level=level, threshold=tau)
        assert not result.unhittable
        after = deepdiver(enhanced, tau)
        assert after.max_covered_level(dataset.d) >= level

    def test_enhanced_dataset_grows_by_copies(self):
        dataset = random_categorical_dataset(60, (2, 2, 2), seed=10, skew=1.2)
        tau = 4
        mups = deepdiver(dataset, tau).mups
        result, enhanced = enhance_coverage(
            dataset, mups, level=1, threshold=tau, copies=2
        )
        assert enhanced.n == dataset.n + 2 * len(result.combinations)

    def test_copies_must_be_positive(self):
        dataset = random_categorical_dataset(30, (2, 2), seed=0, skew=1.0)
        mups = deepdiver(dataset, 3).mups
        with pytest.raises(EnhancementError):
            enhance_coverage(dataset, mups, level=1, threshold=3, copies=0)

    def test_result_rows_array(self, example2_space, example2_level2_targets):
        plan = greedy_cover(example2_level2_targets, example2_space)
        rows = plan.rows()
        assert rows.shape == (len(plan.combinations), example2_space.d)

    def test_describe_renders_picks_and_unhittable_targets(self):
        dataset = random_categorical_dataset(
            30, (2, 3, 2), seed=0, names=["a", "b", "c"]
        )
        targets = [Pattern.from_string(s) for s in ("0XX", "X1X", "12X")]
        oracle = ValidationOracle([ValidationRule({0: 1, 1: 2})])
        plan = greedy_cover(targets, PatternSpace.for_dataset(dataset), oracle)
        assert plan.describe(dataset.schema).splitlines() == [
            "Collect 1 value combination(s):",
            "  - a=0, b=1, c=0",
            "    (any tuple matching a=0, b=1)",
            "  ! 1 target(s) cannot be hit by any valid combination",
        ]

    def test_targets_may_come_from_a_generator(
        self, example2_space, example2_level2_targets
    ):
        plan = greedy_cover(iter(example2_level2_targets), example2_space)
        expected = greedy_cover(example2_level2_targets, example2_space)
        assert plan.targets == len(example2_level2_targets)
        assert plan.combinations == expected.combinations

    def test_empty_targets_yield_empty_plan(self, example2_space):
        plan = greedy_cover([], example2_space)
        assert plan.combinations == ()
        assert plan.targets == 0
        assert plan.rows().size == 0


class TestTargetErrors:
    """A target that does not fit the space raises ``space.validate``'s
    error for the first such target in input order, on either path."""

    SPACE = PatternSpace((2, 3, 2))

    CASES = {
        "short": (["1X0", "1X"], "pattern 1X has length 2, expected 3"),
        "long": (["X1X", "0X1X"], "pattern 0X1X has length 4, expected 3"),
        "value": (
            ["1X0", "X3X"],
            "pattern X3X has value 3 at attribute 1 with cardinality 3",
        ),
        "value-first-attribute": (
            ["2XX"],
            "pattern 2XX has value 2 at attribute 0 with cardinality 2",
        ),
        "value-before-length": (
            ["0X0", "X15", "1X", "X9X"],
            "pattern X15 has value 5 at attribute 2 with cardinality 2",
        ),
        "length-before-value": (
            ["0X0", "1X", "X15", "X9X"],
            "pattern 1X has length 2, expected 3",
        ),
        "first-is-short": (["1X", "X9X"], "pattern 1X has length 2, expected 3"),
        "first-is-out-of-range": (
            ["X9X", "1X"],
            "pattern X9X has value 9 at attribute 1 with cardinality 3",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_first_bad_target_is_named(self, search_path, case):
        targets, message = self.CASES[case]
        patterns = [Pattern.from_string(text) for text in targets]
        with pytest.raises(PatternError) as raised:
            greedy_cover(patterns, self.SPACE)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "cardinalities,targets,message",
        [
            ((2, 4, 2), ["1X0", "X3X"], CASES["value"][1]),
            ((3, 3, 2), ["0X1", "2XX"], CASES["value-first-attribute"][1]),
            ((2, 10, 6), ["0X0", "X15", "X9X"], CASES["value-before-length"][1]),
            ((2, 3), ["1X", "X2"], "pattern X2 has length 2, expected 3"),
            ((2, 3, 2, 2), ["0X1X"], CASES["long"][1]),
        ],
        ids=["value", "value-first-attribute", "first-of-two", "short", "long"],
    )
    def test_coded_targets_of_another_space_are_named(
        self, search_path, cardinalities, targets, message
    ):
        # Codes of a lattice with other cardinalities take the validating
        # path: the error names the first bad target in code order, as it
        # does for the decoded list.
        lattice = PatternLattice(PatternSpace(cardinalities))
        patterns = sorted(Pattern.from_string(text) for text in targets)
        coded = PatternCodes(lattice, lattice.encode(patterns))
        for given in (list(coded), coded):
            with pytest.raises(PatternError) as raised:
                greedy_cover(given, self.SPACE)
            assert str(raised.value) == message


class TestRulesOutsideTheSpace:
    """A rule naming an attribute the space lacks fails before any search."""

    RULE = ValidationRule({5: 1})
    SPACE = PatternSpace((2, 2, 2))
    TARGETS = [Pattern.from_string("1XX"), Pattern.from_string("X0X")]

    def test_greedy_rejects_the_rule(self):
        with pytest.raises(ValidationError, match="A5"):
            greedy_cover(self.TARGETS, self.SPACE, ValidationOracle([self.RULE]))

    def test_naive_rejects_the_rule(self):
        with pytest.raises(ValidationError, match="A5"):
            naive_greedy_cover(
                self.TARGETS, self.SPACE, ValidationOracle([self.RULE])
            )

    @pytest.mark.parametrize("search", [greedy_cover, naive_greedy_cover])
    def test_a_rule_on_the_last_attribute_is_accepted(self, search):
        oracle = ValidationOracle([ValidationRule({2: 1})])
        plan = search(self.TARGETS, self.SPACE, oracle)
        assert all(combo[2] == 0 for combo in plan.combinations)
        assert not plan.unhittable

    def test_copies_are_checked_before_the_search(self, monkeypatch):
        import repro.core.enhancement.greedy as greedy_module

        def no_search(*args, **kwargs):
            raise AssertionError("the greedy search ran")

        monkeypatch.setattr(greedy_module, "greedy_cover", no_search)
        dataset = random_categorical_dataset(30, (2, 2), seed=0, skew=1.0)
        mups = deepdiver(dataset, 3).mups
        with pytest.raises(EnhancementError, match="copies"):
            enhance_coverage(dataset, mups, level=1, threshold=3, copies=0)


class TestValueCountVariant:
    def test_matches_bruteforce(self):
        dataset = random_categorical_dataset(40, (2, 3, 2), seed=11, skew=1.0)
        tau = 4
        oracle = CoverageOracle(dataset)
        space = PatternSpace.for_dataset(dataset)
        mups = deepdiver(dataset, tau).mups
        for bound in (1, 2, 3, 4, 6, 12):
            targets = set(targets_by_value_count(mups, space, bound))
            brute = {
                p
                for p in space.all_patterns()
                if oracle.coverage(p) < tau and space.value_count(p) >= bound
            }
            assert targets == brute, f"value-count bound {bound}"

    def test_bound_one_includes_all_uncovered(self, example2_space, example2_mups):
        targets = targets_by_value_count(example2_mups, example2_space, 1)
        # Every MUP itself qualifies at bound 1.
        assert set(example2_mups) <= set(targets)

    def test_bad_bound_rejected(self, example2_space):
        with pytest.raises(EnhancementError):
            targets_by_value_count([], example2_space, 0)

    def test_value_count_targets_coverable(self, example2_space, example2_mups):
        targets = targets_by_value_count(example2_mups, example2_space, 12)
        plan = greedy_cover(targets, example2_space)
        assert not plan.unhittable

    def test_every_mup_is_validated(self, example2_space):
        # A MUP below the bound is still checked against the space.
        with pytest.raises(PatternError):
            targets_by_value_count([Pattern.of(0, 0, 0, 0, 7)], example2_space, 5)

    def test_value_counts_past_int64(self):
        # 45 ternary attributes: the root's value count 3**45 passes int64,
        # so the counts are Python ints like the codes.
        space = PatternSpace((3,) * 45)
        mups = [space.root(), Pattern.of(*([X] * 44 + [2]))]
        targets = targets_by_value_count(mups, space, 3**44)
        assert len(targets) == 1 + 45 * 3
        assert targets == sorted(
            [space.root()] + list(space.descendants_at_level(space.root(), 1))
        )
        assert targets_by_value_count(mups, space, 3**45 + 1) == []


class TestNaiveGuard:
    def test_naive_refuses_huge_universe(self):
        space = PatternSpace([10] * 8)
        with pytest.raises(EnhancementError):
            naive_greedy_cover([], space)


def _targets_of(dataset, tau, level):
    space = PatternSpace.for_dataset(dataset)
    return uncovered_at_level(deepdiver(dataset, tau).mups, space, level), space


def _example2_input():
    targets = [
        Pattern.from_string(s)
        for s in ("XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX")
    ]
    return targets, PatternSpace([2, 3, 3, 2, 2]), None


def _random_input():
    dataset = random_categorical_dataset(300, (3, 4, 2, 3, 2), seed=5, skew=1.0)
    return _targets_of(dataset, 12, 2) + (None,)


def _random_input_with_rules():
    dataset = random_categorical_dataset(400, (4, 3, 3, 2, 3), seed=8, skew=1.2)
    rules = [ValidationRule({0: 3, 1: 2}), ValidationRule({2: [1, 2], 4: 0})]
    return _targets_of(dataset, 10, 2) + (ValidationOracle(rules),)


def _bluenile_input():
    # τ at rate 1e-3 of n = 20,000; up to 10 values per attribute.
    return _targets_of(load_bluenile(n=20_000, seed=3), 20, 2) + (None,)


#: GREEDY's plans, recorded from the earlier bool/``BitVector`` target
#: index: per input, (targets, combinations, generalized, unhittable,
#: iterations, and Algorithm 4's nodes_visited and validation.queries).
GOLDEN_PLANS = {
    "example2": (
        _example2_input,
        6,
        ["11111", "02010", "10200"],
        ["11111", "0201X", "1X20X"],
        [],
        3, 19, 0,
    ),
    "random": (
        _random_input,
        25,
        ["23121", "12121", "23010", "21020", "03000", "22010", "13000"],
        ["23121", "12121", "23010", "21X2X", "03X0X", "22X1X", "13XXX"],
        [],
        7, 63, 0,
    ),
    "random-rules": (
        _random_input_with_rules,
        39,
        ["22212", "31201", "30112", "22101", "00202", "11202", "30000", "21000"],
        ["22212", "31201", "30112", "22101", "002X2", "112X2", "3X0X0", "21XX0"],
        ["XX2X0", "32XXX"],
        9, 232, 652,
    ),
    "bluenile": (
        _bluenile_input,
        22,
        ["9000004", "8300003", "6000004", "7000004", "1000000", "2000000",
         "3000000", "5000000", "0001004"],
        ["90X0004", "83X00X3", "6XX0XX4", "7XX0XX4", "1XX0XXX", "2XX0XXX",
         "3XX0XXX", "5XX0XXX", "XXX1XX4"],
        [],
        9, 852, 0,
    ),
}


#: The grid's counters per input: (nodes_visited, validation.queries), the
#: Π c_i cells scored and, under a validation oracle, the Π c_i
#: combinations it classified.
GRID_COUNTERS = {
    "example2": (72, 0),
    "random": (144, 0),
    "random-rules": (216, 216),
    "bluenile": (100_800, 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_greedy_plans_are_pinned(name, search_path):
    build, m, combinations, generalized, unhittable, iterations, nodes, queries = (
        GOLDEN_PLANS[name]
    )
    if search_path == "grid":
        nodes, queries = GRID_COUNTERS[name]
    targets, space, validation = build()
    plan = greedy_cover(targets, space, validation)
    assert plan.targets == len(targets) == m
    assert ["".join(map(str, c)) for c in plan.combinations] == combinations
    assert list(map(str, plan.generalized)) == generalized
    assert list(map(str, plan.unhittable)) == unhittable
    assert (plan.iterations, plan.nodes_visited) == (iterations, nodes)
    assert (validation.queries if validation else 0) == queries
