"""Unit tests for artefact persistence (repro.io)."""

import json

import pytest
from hypothesis import given, settings

from repro.core.enhancement.greedy import greedy_cover
from repro.core.mups import find_mups
from repro.exceptions import ReproError
from repro.io import (
    load_enhancement_result,
    load_mup_result,
    save_enhancement_result,
    save_mup_result,
)


#: A valid saved MUP result, the base the malformed inputs are cut from.
_MUP_PAYLOAD = {
    "format": "repro.mup_result",
    "version": 1,
    "threshold": 1,
    "max_level": None,
    "mups": [[1, -1, -1]],
    "stats": {"nodes_generated": 3, "seconds": 0.5},
}


class TestMupResultRoundtrip:
    def test_roundtrip(self, example1_dataset, tmp_path):
        result = find_mups(example1_dataset, threshold=1)
        path = tmp_path / "mups.json"
        save_mup_result(result, path)
        loaded = load_mup_result(path)
        assert loaded.mups == result.mups
        assert loaded.threshold == result.threshold
        assert loaded.max_level == result.max_level
        assert loaded.stats.nodes_generated == result.stats.nodes_generated

    def test_roundtrip_with_max_level(self, example1_dataset, tmp_path):
        result = find_mups(example1_dataset, threshold=2, max_level=1)
        path = tmp_path / "mups.json"
        save_mup_result(result, path)
        assert load_mup_result(path).max_level == 1

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ReproError):
            load_mup_result(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"format": "repro.mup_result", "version": 999, "threshold": 1, "mups": []}
            )
        )
        with pytest.raises(ReproError):
            load_mup_result(path)

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            json.dumps(dict(_MUP_PAYLOAD, version="2")),
            json.dumps(dict(_MUP_PAYLOAD, threshold=None)),
            json.dumps({k: v for k, v in _MUP_PAYLOAD.items() if k != "mups"}),
            json.dumps(dict(_MUP_PAYLOAD, mups=[["a"]])),
        ],
        ids=[
            "not-json",
            "list-root",
            "string-version",
            "null-threshold",
            "missing-mups",
            "string-value",
        ],
    )
    def test_rejects_garbage(self, tmp_path, text):
        path = tmp_path / "garbage.json"
        path.write_text(text)
        with pytest.raises(ReproError):
            load_mup_result(path)


class TestEnhancementResultRoundtrip:
    def test_roundtrip(self, example2_space, example2_level2_targets, tmp_path):
        plan = greedy_cover(example2_level2_targets, example2_space)
        path = tmp_path / "plan.json"
        save_enhancement_result(plan, path)
        loaded = load_enhancement_result(path)
        assert loaded.combinations == plan.combinations
        assert loaded.generalized == plan.generalized
        assert loaded.targets == plan.targets
        assert loaded.unhittable == plan.unhittable

    def test_rejects_wrong_format(self, tmp_path, example1_dataset):
        result = find_mups(example1_dataset, threshold=1)
        path = tmp_path / "mups.json"
        save_mup_result(result, path)
        with pytest.raises(ReproError):
            load_enhancement_result(path)


class TestLoaderFuzz:
    def test_any_json_document_loads_or_raises(
        self, tmp_path, example1_dataset, example2_space,
        example2_level2_targets, json_document_strategy,
    ):
        """Fuzz: any JSON document handed to either loader either loads
        or raises ReproError — never an untyped exception."""
        mups_path = tmp_path / "mups.json"
        plan_path = tmp_path / "plan.json"
        save_mup_result(find_mups(example1_dataset, threshold=1), mups_path)
        save_enhancement_result(
            greedy_cover(example2_level2_targets, example2_space), plan_path
        )
        cases = [
            (load_mup_result, json.loads(mups_path.read_text())),
            (load_enhancement_result, json.loads(plan_path.read_text())),
        ]
        path = tmp_path / "fuzz.json"
        for loader, base in cases:

            @settings(max_examples=100, deadline=None, derandomize=True)
            @given(document=json_document_strategy(base))
            def check(document):
                path.write_text(json.dumps(document))
                try:
                    loader(path)
                except ReproError:
                    pass

            check()
