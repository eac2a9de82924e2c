"""Unit tests for MUP expansion to level-λ targets (Appendix C)."""

import warnings

import numpy as np
import pytest

from repro.core.coverage import CoverageOracle
from repro.core.enhancement.expansion import uncovered_at_level, walk_descendants
from repro.core.enhancement.greedy import greedy_cover
from repro.core.lattice import PatternCodes, PatternLattice
from repro.core.mups import deepdiver
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.airbnb import load_airbnb
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EnhancementError, PatternError


def reference_targets(mups, space, level):
    """Appendix C on Pattern objects: the sorted union of the level-λ
    descendants of every MUP at level ≤ λ."""
    return sorted(
        {
            target
            for mup in mups
            if mup.level <= level
            for target in space.descendants_at_level(mup, level)
        }
    )


class TestExample2:
    def test_level2_targets_expand_shallow_mups(self, example2_space, example2_mups):
        # λ = 2: the MUPs of level <= 2 are P1 (XX01X), P3 (XXXX1), and
        # P4 (02XXX) and P5 (XX11X); P3 sits at level 1 and must be expanded
        # into its level-2 descendants (Appendix C).  (The paper's running
        # text calls the target set "P1 to P6", but P2 and P6 are level-3
        # patterns — the precise semantics is Appendix C's.)
        targets = set(uncovered_at_level(example2_mups, example2_space, 2))
        expected = set()
        for mup in example2_mups:
            if mup.level <= 2:
                expected |= set(example2_space.descendants_at_level(mup, 2))
        assert targets == expected
        assert Pattern.from_string("XX01X") in targets
        assert Pattern.from_string("02XXX") in targets
        assert Pattern.from_string("XX11X") in targets
        assert Pattern.from_string("0XXX1") in targets  # expanded from P3
        assert Pattern.from_string("1X20X") not in targets  # P2 is level 3

    def test_deeper_mup_ignored(self, example2_space, example2_mups):
        # P7 = X020X (level 3) contributes nothing at λ = 2.
        p7 = example2_mups[6]
        targets = uncovered_at_level([p7], example2_space, 2)
        assert targets == []

    def test_covering_mups_only_is_insufficient(self, example2_space, example2_mups):
        # Appendix C's counterexample: 1X11X (level 3) is uncovered (child
        # of P5 = XX11X) yet matched by none of the paper's three
        # combinations — hence λ = 3 requires expansion, not just MUPs.
        paper_combos = [(0, 2, 0, 1, 1), (0, 2, 1, 1, 1), (1, 0, 2, 0, 1)]
        problem_pattern = Pattern.from_string("1X11X")
        assert any(problem_pattern.covers(Pattern(c)) is False for c in paper_combos)
        assert all(not problem_pattern.matches(c) for c in paper_combos)
        targets = uncovered_at_level(example2_mups, example2_space, 3)
        assert problem_pattern in targets


class TestSemantics:
    def test_targets_are_exactly_uncovered_patterns_at_level(self):
        dataset = random_categorical_dataset(40, (2, 3, 2), seed=8, skew=0.9)
        tau = 4
        oracle = CoverageOracle(dataset)
        space = PatternSpace.for_dataset(dataset)
        mups = deepdiver(dataset, tau).mups
        for level in range(space.d + 1):
            targets = set(uncovered_at_level(mups, space, level))
            brute = {
                p
                for p in space.all_patterns()
                if p.level == level and oracle.coverage(p) < tau
            }
            # Patterns only below deeper MUPs are covered at this level, so
            # the brute-force set must match exactly.
            assert targets == brute

    def test_mup_at_level_is_its_own_target(self, example2_space):
        mup = Pattern.from_string("XX01X")
        targets = uncovered_at_level([mup], example2_space, 2)
        assert targets == [mup]

    def test_deduplication_across_mups(self, example2_space):
        # Two MUPs sharing descendants must not duplicate targets.
        mups = [Pattern.from_string("0XXXX"), Pattern.from_string("X0XXX")]
        targets = uncovered_at_level(mups, example2_space, 2)
        assert len(targets) == len(set(targets))
        assert Pattern.from_string("00XXX") in targets

    def test_level_out_of_range(self, example2_space):
        with pytest.raises(EnhancementError):
            uncovered_at_level([], example2_space, 9)

    def test_limit_guard(self, example2_space, example2_mups):
        with pytest.raises(EnhancementError):
            uncovered_at_level(example2_mups, example2_space, 4, limit=10)

    def test_empty_mups_empty_targets(self, example2_space):
        assert uncovered_at_level([], example2_space, 3) == []

    def test_limit_stops_a_wide_walk_early(self, monkeypatch):
        # The root expands into all 59,136 level-6 patterns; a level-2
        # width of 264 > 10 * C(6, 2) already proves the cap exceeded.
        space = PatternSpace((2,) * 12)
        expanded = []
        children = PatternLattice.children

        def spy(lattice, codes):
            expanded.append(len(codes))
            return children(lattice, codes)

        monkeypatch.setattr(PatternLattice, "children", spy)
        with pytest.raises(EnhancementError, match="more than 10 targets"):
            uncovered_at_level([space.root()], space, 6, limit=10)
        assert expanded == [0, 1, 24]


class TestBoundary:
    @pytest.mark.parametrize(
        "level", [1.5, 2.0, True, False, "2", None], ids=repr
    )
    def test_level_must_be_an_integer(self, example2_space, example2_mups, level):
        with pytest.raises(EnhancementError, match="level must be"):
            uncovered_at_level(example2_mups, example2_space, level)

    @pytest.mark.parametrize("limit", [-1, 2.5, True, "10"], ids=repr)
    def test_limit_must_be_a_non_negative_integer(
        self, example2_space, example2_mups, limit
    ):
        for mups in ([], example2_mups):
            with pytest.raises(EnhancementError, match="limit must be"):
                uncovered_at_level(mups, example2_space, 2, limit=limit)

    def test_numpy_integers_are_accepted(self, example2_space, example2_mups):
        expected = uncovered_at_level(example2_mups, example2_space, 2)
        assert uncovered_at_level(
            example2_mups, example2_space, np.int64(2), limit=np.int32(100)
        ) == expected
        # The cap's per-level bound is exact even past int32.
        space = PatternSpace((2,) * 6)
        limit = np.int32(2**31 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            targets = uncovered_at_level([space.root()], space, 3, limit=limit)
        assert len(targets) == 20 * 8

    def test_every_mup_is_validated_before_expansion(self, example2_space):
        bad = Pattern.of(X, X, X, X, 7)
        # Deeper than λ, or behind a MUP that alone exceeds the limit.
        with pytest.raises(PatternError):
            uncovered_at_level([Pattern.of(0, 0, 0, 0, 7)], example2_space, 1)
        with pytest.raises(PatternError):
            uncovered_at_level(
                [example2_space.root(), bad], example2_space, 3, limit=1
            )

    @pytest.mark.parametrize(
        "mups,message",
        [
            (["1X0", "X3X", "1X"], "pattern X3X has value 3 at attribute 1 with cardinality 3"),
            (["0X0", "1X", "X3X"], "pattern 1X has length 2, expected 3"),
            (["X15", "0X1X"], "pattern X15 has value 5 at attribute 2 with cardinality 2"),
            (["0X0", "0X1X"], "pattern 0X1X has length 4, expected 3"),
            (
                [(0, X, 0), (1, 2**70, X)],
                f"pattern {Pattern((1, 2**70, X))} has value {2**70} "
                "at attribute 1 with cardinality 3",
            ),
        ],
        ids=["value", "length-before-value", "value-before-length", "long", "past-int64"],
    )
    def test_the_first_bad_mup_is_named(self, mups, message):
        space = PatternSpace((2, 3, 2))
        patterns = (
            Pattern.from_string(mup) if isinstance(mup, str) else Pattern(mup)
            for mup in mups
        )
        with pytest.raises(PatternError) as raised:
            uncovered_at_level(patterns, space, 1)
        assert str(raised.value) == message

    def test_mups_may_come_from_a_generator(self, example2_space, example2_mups):
        expected = uncovered_at_level(example2_mups, example2_space, 3)
        assert uncovered_at_level(
            (mup for mup in example2_mups), example2_space, 3
        ) == expected == reference_targets(example2_mups, example2_space, 3)


class TestAgainstReference:
    def test_wide_space_with_object_codes(self):
        # 45 binary attributes: Π(c_i + 1) = 3**45 > 2**63 nodes, so the
        # walk runs on Python-int codes in object arrays.
        space = PatternSpace((2,) * 45)
        assert PatternLattice(space).dtype == object
        rng = np.random.default_rng(5)
        mups = [space.random_pattern(rng, level) for level in (1, 1, 2, 2, 3, 5)]
        nested = mups[2].with_value(mups[2].deterministic_indices()[0], X)
        mups += [mups[0], nested]
        for level in (0, 1, 2):
            targets = uncovered_at_level(mups, space, level)
            assert targets == reference_targets(mups, space, level)
        assert len(targets) > len(mups)
        targets = uncovered_at_level(mups + [space.root()], space, 2)
        assert targets == reference_targets([space.root()], space, 2)
        assert len(targets) == 45 * 44 // 2 * 4  # the whole of level 2

    def test_remedy_leg(self):
        # The e2e remedy-airbnb enhancement: DEEPDIVER to λ = 6 at τ = 900.
        dataset = load_airbnb(n=30_000, d=10, seed=11)
        space = PatternSpace.for_dataset(dataset)
        mups = deepdiver(dataset, 900, max_level=6).mups
        targets = uncovered_at_level(mups, space, 6)
        assert len(targets) == 12_234
        assert targets == reference_targets(mups, space, 6)

    def test_remedy_leg_decodes_no_target(self, monkeypatch):
        # The expansion hands GREEDY its targets as codes, and GREEDY reads
        # their digits: no code reaches PatternLattice.decode, where
        # decoding the targets once took 12,234 through it.
        dataset = load_airbnb(n=30_000, d=10, seed=11)
        space = PatternSpace.for_dataset(dataset)
        mups = deepdiver(dataset, 900, max_level=6).mups
        decoded = []
        decode = PatternLattice.decode

        def spy(lattice, codes):
            decoded.append(len(codes))
            return decode(lattice, codes)

        monkeypatch.setattr(PatternLattice, "decode", spy)
        targets = uncovered_at_level(mups, space, 6)
        plan = greedy_cover(targets, space)
        assert isinstance(targets, PatternCodes)
        assert (plan.targets, len(plan.combinations), plan.unhittable) == (
            12_234, 156, ()
        )
        assert sum(decoded) == 0


@pytest.mark.parametrize("cards", [(2, 3, 2, 1, 3), (2,) * 45], ids=["int64", "object"])
def test_walk_levels_are_the_unique_children_and_codes(cards):
    # Each level is np.unique of the level above's children plus the codes
    # at its level, in the lattice's dtype (Python ints past 2**63 nodes).
    space = PatternSpace(cards)
    lattice = PatternLattice(space)
    rng = np.random.default_rng(9)
    patterns = [space.random_pattern(rng, level) for level in (1, 1, 2, 2, 3)]
    patterns += patterns[:2]
    codes = lattice.encode(patterns)
    depth = np.array([pattern.level for pattern in patterns])
    above = codes[:0]
    for k, level in walk_descendants(lattice, codes, 3):
        expected = np.unique(np.concatenate([lattice.children(above), codes[depth == k]]))
        assert level.dtype == lattice.dtype
        assert level.tolist() == expected.tolist()
        above = level
    assert k == 3 and len(level)
