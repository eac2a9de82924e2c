"""Regression tests for the out-of-core engine's spill lifecycle.

Covers the failure modes that matter once index bytes live on disk: spill
files must disappear on engine close *and* on garbage collection, a
corrupted or truncated shard file must raise a clear ``EngineError``
instead of returning garbage coverage, ``template()`` rebuilds must not
leak old spill directories, and engines built without ``spill_dir`` spill
under the default root.
"""

import gc
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.engine.sharded as sharded_module
from engine_reference import row_match
from repro.core.engine import (
    EngineConfig,
    MmapShardStore,
    ShardedEngine,
    ShardStoreWriter,
    resolve_engine,
)
from repro.core.engine.mmapped import run_shard_op, weighted_count
from repro.core.incremental import IncrementalMupIndex
from repro.core.pattern import Pattern, X
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError, ReproError


@pytest.fixture
def dataset():
    return random_categorical_dataset(80, (3, 3, 2), seed=9, skew=1.1)


@pytest.fixture
def patterns(dataset):
    result = [Pattern.root(dataset.d)]
    for attribute, cardinality in enumerate(dataset.cardinalities):
        for value in range(cardinality):
            result.append(Pattern.root(dataset.d).with_value(attribute, value))
    result.append(Pattern.of(1, X, 0))
    result.append(Pattern.of(2, 2, 1))
    return result


def spill_dirs(root) -> list:
    return sorted(p for p in os.listdir(root) if not p.startswith("."))


class TestSpillLifecycle:
    def test_close_removes_owned_spill_dir(self, dataset, tmp_path):
        engine = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        path = engine.spill_path
        assert os.path.isdir(path)
        engine.close()
        assert not os.path.exists(path)
        # The user's root directory itself is never deleted.
        assert tmp_path.is_dir()

    def test_gc_removes_owned_spill_dir(self, dataset, tmp_path):
        engine = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        path = engine.spill_path
        del engine
        gc.collect()
        assert not os.path.exists(path)

    def test_failed_build_removes_partial_spill_dir(
        self, dataset, tmp_path, monkeypatch
    ):
        calls = []

        def exploding_add_shard(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("simulated mid-build failure")
            return original(self, *args, **kwargs)

        original = ShardStoreWriter.add_shard
        monkeypatch.setattr(ShardStoreWriter, "add_shard", exploding_add_shard)
        with pytest.raises(MemoryError):
            ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        # The half-written (manifest-less) spill subdirectory is reclaimed.
        assert spill_dirs(tmp_path) == []

    def test_queries_after_close_raise(self, dataset, tmp_path):
        engine = ShardedEngine(
            dataset, shards=3, spill_dir=str(tmp_path), mask_cache_size=0
        )
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.coverage(Pattern.of(1, 0, X))

    def test_every_query_family_raises_after_close(self, tmp_path):
        # A duplicate-free dataset: the uniform count shortcut and the
        # all-wildcard match mask never touch the store, and warm cached
        # masks must not keep answering either.
        from repro.data.dataset import Dataset, Schema

        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0]], np.int32)
        uniform = Dataset(Schema.of(["A", "B"], [3, 2]), rows)
        engine = ShardedEngine(uniform, shards=2, spill_dir=str(tmp_path))
        root = Pattern.root(2)
        assert engine.coverage(root) == uniform.n  # warm the mask cache
        engine.close()
        for query in (
            lambda: engine.coverage(root),
            lambda: engine.coverage_many([root]),
            lambda: engine.full_mask(),
            lambda: engine.count(np.zeros(0, dtype=np.uint64)),
            lambda: engine.restrict(np.zeros(0, dtype=np.uint64), 0, 1),
            lambda: engine.value_mask(0, 1),
            lambda: engine.restrict_children(np.zeros(0, dtype=np.uint64), 0),
            lambda: engine.mask_to_bool(np.zeros(0, dtype=np.uint64)),
        ):
            with pytest.raises(EngineError, match="closed"):
                query()

    def test_attach_does_not_own_files(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        path = owner.spill_path
        attached = ShardedEngine.attach(dataset, path)
        assert not attached.store.owns_files
        attached.close()
        assert os.path.isdir(path)
        owner.close()
        assert not os.path.exists(path)

    def test_context_manager_closes(self, dataset, tmp_path):
        with ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path)) as engine:
            path = engine.spill_path
            assert engine.coverage(Pattern.root(3)) == dataset.n
        assert not os.path.exists(path)

    def test_template_rebuild_does_not_leak_spill_dirs(self, dataset, tmp_path):
        engine = ShardedEngine(
            dataset,
            shards=3,
            spill_dir=str(tmp_path),
            max_resident_bytes=1 << 20,
        )
        rebuilt = engine.template()(dataset)
        assert rebuilt.max_resident_bytes == 1 << 20
        assert rebuilt.spill_path != engine.spill_path
        # Both live under the same user-specified root...
        assert len(spill_dirs(tmp_path)) == 2
        engine.close()
        # ...and closing one never touches the other.
        assert spill_dirs(tmp_path) == [os.path.basename(rebuilt.spill_path)]
        assert rebuilt.coverage(Pattern.root(3)) == dataset.n
        rebuilt.close()
        assert spill_dirs(tmp_path) == []

    def test_default_root_template_rebuild_follows_the_current_root(
        self, dataset, tmp_path, monkeypatch
    ):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        # $TMPDIR names the default spill root (tempfile caches it).
        monkeypatch.setenv("TMPDIR", str(first))
        monkeypatch.setattr(tempfile, "tempdir", None)
        engine = ShardedEngine(dataset, shards=3)
        monkeypatch.setenv("TMPDIR", str(second))
        monkeypatch.setattr(tempfile, "tempdir", None)
        rebuilt = engine.template()(dataset)
        assert os.path.dirname(engine.spill_path) == str(first)
        assert os.path.dirname(rebuilt.spill_path) == str(second)
        assert rebuilt.coverage(Pattern.root(3)) == dataset.n
        engine.close()
        rebuilt.close()
        assert spill_dirs(first) == spill_dirs(second) == []

    def test_incremental_rebuilds_close_old_spill_dirs(self, dataset, tmp_path):
        engine = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        index = IncrementalMupIndex(dataset, threshold=3, engine=engine)
        # The index reduced the prebuilt engine to a template: its own
        # engine spilled a second directory, the user's is untouched.
        assert len(spill_dirs(tmp_path)) == 2
        for _ in range(3):
            index.add_rows([[0, 0, 0]])
            assert len(spill_dirs(tmp_path)) == 2
        engine.close()
        assert len(spill_dirs(tmp_path)) == 1


class TestPointKernels:
    def test_value_mask_and_restrict_match_the_rows(self, dataset, tmp_path):
        engine = ShardedEngine(
            dataset, shards=3, spill_dir=str(tmp_path), max_resident_bytes=1
        )
        full = engine.full_mask()
        root = Pattern.root(dataset.d)
        for attribute, cardinality in enumerate(dataset.cardinalities):
            for value in range(cardinality):
                restricted = engine.restrict(full, attribute, value)
                expected = row_match(dataset, root.with_value(attribute, value))
                assert np.array_equal(engine.mask_to_bool(restricted), expected)
                assert np.array_equal(
                    engine.mask_to_bool(
                        np.bitwise_and(full, engine.value_mask(attribute, value))
                    ),
                    expected,
                )
        engine.close()


class TestCorruption:
    def test_missing_manifest_raises(self, dataset, tmp_path):
        (tmp_path / "not-a-store").mkdir()
        with pytest.raises(EngineError, match="manifest"):
            ShardedEngine.attach(dataset, str(tmp_path / "not-a-store"))

    def test_truncated_shard_file_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        path = owner.spill_path
        target = os.path.join(path, "shard_0001.words.npy")
        with open(target, "r+b") as handle:
            handle.truncate(os.path.getsize(target) - 8)
        with pytest.raises(EngineError, match="truncated or corrupted"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_corrupted_shard_payload_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        target = os.path.join(path, "shard_0000.words.npy")
        # Same size, garbage header: caught at load, not answered as data.
        size = os.path.getsize(target)
        with open(target, "r+b") as handle:
            handle.write(b"\x00" * min(size, 16))
        engine = ShardedEngine.attach(dataset, path, mask_cache_size=0)
        with pytest.raises(EngineError, match="corrupted shard file"):
            engine.coverage(Pattern.of(1, 0, X))
        owner.close()

    def test_manifest_missing_fields_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["shards"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="malformed shard-store manifest"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_manifest_incomplete_entry_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["shards"][1]["unique_start"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="incomplete shard entry"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_unsupported_format_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = "repro-shard-store/v999"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="unsupported shard-store format"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_non_contiguous_shard_layout_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["shards"][1]["unique_start"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="non-contiguous"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_self_consistent_shape_tampering_raises(self, tmp_path):
        """A manifest whose shapes and sizes agree with a truncated file
        must still fail: block widths are pinned to the word windows."""
        # Enough distinct combinations that each shard spans several words
        # (a one-word shard would make the truncation a no-op).
        wide = random_categorical_dataset(2000, (10, 10, 4), seed=3, skew=0.3)
        owner = ShardedEngine(wide, shards=2, spill_dir=str(tmp_path))
        assert owner.shard_infos[1].word_stop - owner.shard_infos[1].word_start > 1
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        entry = manifest["shards"][1]
        rows = entry["words_shape"][0]
        narrow = np.zeros((rows, 1), dtype=np.uint64)
        np.save(os.path.join(path, entry["words_file"]), narrow)
        entry["words_shape"] = [rows, 1]
        entry["words_size"] = os.path.getsize(
            os.path.join(path, entry["words_file"])
        )
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="word window"):
            ShardedEngine.attach(wide, path)
        owner.close()

    def test_shifted_unique_spans_raise(self, tmp_path):
        """Shifting a shard boundary's unique spans (word windows, shapes,
        and sizes untouched) must fail: packed widths pin the spans."""
        wide = random_categorical_dataset(2000, (10, 10, 4), seed=3, skew=0.3)
        owner = ShardedEngine(wide, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["shards"][0]["unique_stop"] > 64
        manifest["shards"][0]["unique_stop"] -= 64
        manifest["shards"][1]["unique_start"] -= 64
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="packed layout requires"):
            ShardedEngine.attach(wide, path)
        owner.close()

    def test_permuted_shard_ids_raise(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        # List order (and so contiguity) intact, ids swapped: the lookup
        # key would address the wrong shard file per window.
        manifest["shards"][0]["id"], manifest["shards"][1]["id"] = (
            manifest["shards"][1]["id"],
            manifest["shards"][0]["id"],
        )
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="out-of-order shard ids"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_incomplete_unique_coverage_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        dropped = manifest["shards"].pop()
        # Keep the word layout consistent so only the unique tiling breaks.
        manifest["shards"][0]["unique_stop"] = dropped["unique_stop"] - 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="unique"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_tampered_uniform_flag_raises(self, dataset, tmp_path):
        """Flipping uniform=true (dropping the multiplicity vectors) must
        fail on attach, not silently popcount unweighted answers."""
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["uniform"] is False
        manifest["uniform"] = True
        for entry in manifest["shards"]:
            entry["counts_file"] = None
            entry["counts_shape"] = None
            entry["counts_size"] = 0
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(EngineError, match="uniform"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_fingerprint_mismatch_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        other = random_categorical_dataset(80, (3, 3, 2), seed=10, skew=1.1)
        with pytest.raises(EngineError, match="different dataset"):
            ShardedEngine.attach(other, owner.spill_path)
        owner.close()

    def test_writer_refuses_existing_store(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        with pytest.raises(EngineError, match="already holds"):
            ShardStoreWriter(
                owner.spill_path,
                cardinalities=dataset.cardinalities,
                uniform=False,
                dataset_meta={},
            )
        owner.close()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda manifest: json.dumps([manifest]).encode(),
            lambda manifest: b"\xff\xfe" + json.dumps(manifest).encode(),
            lambda manifest: json.dumps(
                dict(manifest, cardinalities="332")
            ).encode(),
            lambda manifest: json.dumps(
                dict(
                    manifest,
                    shards=[dict(manifest["shards"][0], word_stop="1")]
                    + manifest["shards"][1:],
                )
            ).encode(),
        ],
        ids=[
            "list-root",
            "non-utf8",
            "string-cardinalities",
            "string-word-stop",
        ],
    )
    def test_malformed_manifest_raises(self, dataset, tmp_path, corrupt):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        with open(manifest_path, "wb") as handle:
            handle.write(corrupt(manifest))
        with pytest.raises(EngineError, match="shard-store manifest"):
            MmapShardStore.open(path)
        owner.close()

    def test_any_json_manifest_opens_or_raises(
        self, dataset, tmp_path, json_document_strategy
    ):
        """Fuzz: any JSON document beside real shard files either opens
        or raises EngineError — never an untyped exception."""
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            original = json.load(handle)

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(document=json_document_strategy(original))
        def check(document):
            with open(manifest_path, "w") as handle:
                json.dump(document, handle)
            try:
                store = MmapShardStore.open(path)
            except EngineError:
                return
            store.close()

        try:
            check()
        finally:
            owner.close()


class TestBudget:
    def test_peak_resident_bounded_by_budget(self, dataset, patterns, tmp_path):
        probe = ShardedEngine(dataset, shards=4, spill_dir=str(tmp_path))
        budget = max(  # exactly one shard resident at a time
            probe.store.shard_nbytes(shard_id)
            for shard_id in range(probe.store.shard_count)
        )
        engine = ShardedEngine.attach(
            dataset, probe.spill_path, max_resident_bytes=budget
        )
        engine.coverage_many(patterns)
        stats = engine.store.stats()
        assert stats["peak_resident_bytes"] <= budget
        assert stats["evictions"] > 0
        assert stats["over_budget_loads"] == 0
        engine.close()
        probe.close()

    def test_oversized_shard_still_loads(self, dataset, patterns, tmp_path):
        engine = ShardedEngine(
            dataset, shards=4, spill_dir=str(tmp_path), max_resident_bytes=1
        )
        serial = ShardedEngine(dataset, shards=4)
        assert list(engine.coverage_many(patterns)) == list(
            serial.coverage_many(patterns)
        )
        stats = engine.store.stats()
        assert stats["over_budget_loads"] > 0
        assert stats["resident_shards"] == 1
        engine.close()

    def test_unlimited_budget_reuses_resident_shards(
        self, dataset, patterns, tmp_path
    ):
        engine = ShardedEngine(
            dataset, shards=4, spill_dir=str(tmp_path), mask_cache_size=0
        )
        engine.coverage_many(patterns)
        engine.coverage_many(patterns)
        stats = engine.store.stats()
        # Words and counts are independent residency units: the match pass
        # loads each shard's word block once, the (non-uniform) counting
        # pass each multiplicity vector once — and nothing twice.
        assert stats["loads"] == 2 * engine.shard_count
        assert stats["words_loads"] == engine.shard_count
        assert stats["counts_loads"] == engine.shard_count
        assert stats["evictions"] == 0
        assert stats["hits"] > 0
        engine.close()

    def test_count_only_stream_charges_only_multiplicities(self, tmp_path):
        """Words/counts residency split (the ROADMAP next-step).

        A count-heavy stream — batched counting over already-built masks —
        reads only the multiplicity vectors.  Budget the store below what
        whole-shard accounting would need: under the old scheme every load
        charged words + counts and would blow (or over-budget-load) this
        budget; with the split the stream stays within it and never makes
        a word block resident.
        """
        # High-cardinality schema so the word blocks dwarf the counts
        # (Σ c_i rows per word column vs a fixed 64 counts per word), and
        # every row duplicated so the dataset is non-uniform.
        base = random_categorical_dataset(1500, (120, 80, 40, 16), seed=3, skew=0.4)
        from repro.data.dataset import Dataset

        dataset = Dataset(base.schema, np.vstack([base.rows, base.rows]))
        probe = ShardedEngine(dataset, shards=4, spill_dir=str(tmp_path))
        store = probe.store
        counts_bytes = sum(
            np.load(os.path.join(probe.spill_path, entry["counts_file"])).nbytes
            for entry in store.manifest["shards"]
        )
        min_full_shard = min(
            store.shard_nbytes(shard_id) for shard_id in range(store.shard_count)
        )
        # All multiplicity vectors fit; no single whole shard would have.
        budget = counts_bytes
        assert budget < min_full_shard
        engine = ShardedEngine.attach(
            dataset, probe.spill_path, max_resident_bytes=budget, mask_cache_size=0
        )
        masks = [engine.full_mask()]
        rng = np.random.default_rng(7)
        for _ in range(6):
            mask = engine.full_mask()
            mask &= rng.integers(0, 2**63, size=mask.shape, dtype=np.uint64)
            masks.append(mask)
        for _ in range(3):
            engine.count_many(masks)
            for mask in masks:
                engine.count(mask)
        stats = engine.store.stats()
        assert stats["words_loads"] == 0
        assert stats["resident_words_bytes"] == 0
        assert stats["peak_resident_bytes"] <= budget
        assert stats["over_budget_loads"] == 0
        # The split is observable through the engine's cache_info too.
        assert engine.cache_info()["store"]["counts_loads"] > 0
        engine.close()
        probe.close()

    def test_engine_without_spill_dir_uses_default_root(
        self, dataset, tmp_path, monkeypatch
    ):
        # $TMPDIR names the default spill root (tempfile caches it).
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        engine = ShardedEngine(dataset, shards=2, max_resident_bytes=1024)
        assert os.path.dirname(engine.spill_path) == str(tmp_path)
        assert engine.coverage(Pattern.root(3)) == dataset.n
        engine.close()
        assert spill_dirs(tmp_path) == []

    def test_bad_budget_rejected(self, dataset, tmp_path):
        with pytest.raises(ReproError, match="max_resident_bytes"):
            ShardedEngine(
                dataset, shards=2, spill_dir=str(tmp_path), max_resident_bytes=0
            )


class TestFanOut:
    def test_spawn_local_workers_fall_back_to_serial_without_fork(
        self, dataset, patterns, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sharded_module, "_fork_available", lambda: False)
        engine = ShardedEngine(
            dataset, shards=3, workers=2, spill_dir=str(tmp_path)
        )
        serial = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        try:
            assert engine.fan_out == "serial"
            assert list(engine.coverage_many(patterns)) == list(
                serial.coverage_many(patterns)
            )
            assert engine._dist_pool is None
        finally:
            engine.close()
            serial.close()

    def test_run_shard_op_kernels_in_process(self, dataset, tmp_path):
        """The pool entry point, exercised in-process for determinism."""
        engine = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        serial = ShardedEngine(dataset, shards=2)
        path = engine.spill_path
        shard = engine.shard_infos[0]
        window = slice(shard.word_start, shard.word_stop)
        mask = engine.match_mask(Pattern.of(1, X, X))
        partial = run_shard_op((path, 0, "count", mask[window]))
        other = run_shard_op(
            (path, 1, "count", mask[engine.shard_infos[1].word_start :])
        )
        assert partial + other == serial.coverage(Pattern.of(1, X, X))
        matrix = np.stack([mask, engine.full_mask()])
        rows = run_shard_op((path, 0, "count_rows", matrix[:, window]))
        assert rows.shape == (2,)
        matched = run_shard_op((path, 0, "match", (engine.full_mask()[window], [0])))
        assert matched.shape == (shard.word_stop - shard.word_start,)
        family = run_shard_op((path, 0, "children", (mask[window], 0, 3)))
        assert family.shape[0] == 3
        with pytest.raises(EngineError, match="unknown shard op"):
            run_shard_op((path, 0, "transmogrify", None))
        engine.close()


class TestResolutionAndTemplates:
    def test_resolve_engine_forwards_out_of_core_options(self, dataset, tmp_path):
        engine = resolve_engine(
            EngineConfig(
                backend="sharded",
                shards=3,
                spill_dir=str(tmp_path),
                max_resident_bytes=1 << 16,
            ),
            dataset,
        )
        assert isinstance(engine, ShardedEngine)
        assert os.path.dirname(engine.spill_path) == str(tmp_path)
        assert engine.max_resident_bytes == 1 << 16
        engine.close()

    def test_template_carries_fan_out_options(self, dataset, tmp_path):
        engine = ShardedEngine(
            dataset, shards=3, workers=2, spill_dir=str(tmp_path)
        )
        options = engine._template_options()
        assert options["workers"] == 2
        assert options["spill_dir"] == str(tmp_path)
        engine.close()

    def test_default_root_template_has_no_spill_dir(self, dataset):
        # The template stays portable: it does not pin this host's root.
        engine = ShardedEngine(dataset, shards=3)
        options = engine._template_options()
        assert options["spill_dir"] is None
        assert options["max_resident_bytes"] is None
        engine.close()

    def test_attach_validation_failure_releases_store(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        with pytest.raises(ReproError, match="worker count"):
            ShardedEngine.attach(dataset, owner.spill_path, workers=0)
        # The spill directory stays intact and attachable afterwards.
        attached = ShardedEngine.attach(dataset, owner.spill_path)
        assert attached.coverage(Pattern.root(3)) == dataset.n
        attached.close()
        owner.close()

    def test_attach_spill_root_is_parent(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        attached = ShardedEngine.attach(dataset, owner.spill_path)
        rebuilt = attached.template()(dataset)
        # An attached engine's template spills siblings of the original.
        assert os.path.dirname(rebuilt.spill_path) == str(tmp_path)
        rebuilt.close()
        attached.close()
        owner.close()


class TestStoreUnit:
    def test_weighted_count_empty_window(self):
        assert weighted_count(np.zeros(0, dtype=np.uint64), None) == 0

    def test_store_open_missing_directory(self, tmp_path):
        with pytest.raises(EngineError, match="not a shard store"):
            MmapShardStore.open(str(tmp_path / "nope"))

    def test_store_close_is_idempotent(self, dataset, tmp_path):
        engine = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        store = engine.store
        engine.close()
        store.close()
        assert store.closed

    def test_store_layout_accessors(self, dataset, tmp_path):
        engine = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        store = engine.store
        assert store.shard_count == 2
        assert store.total_words == sum(
            info.word_stop - info.word_start for info in engine.shard_infos
        )
        assert store.row_offsets == [0, 3, 6, 8]  # cumulative cardinalities
        assert store.uniform is False  # n=80 over 18 combos: duplicates
        # index_nbytes counts membership words only (same basis as the
        # in-memory engines); data_nbytes adds the spilled multiplicities.
        assert engine.index_nbytes == store.words_nbytes
        assert store.data_nbytes > store.words_nbytes
        engine.close()

    def test_missing_shard_file_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        path = owner.spill_path
        os.remove(os.path.join(path, "shard_0002.words.npy"))
        with pytest.raises(EngineError, match="missing shard file"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_unparseable_manifest_raises(self, dataset, tmp_path):
        owner = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        path = owner.spill_path
        with open(os.path.join(path, "manifest.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(EngineError, match="unreadable shard-store manifest"):
            ShardedEngine.attach(dataset, path)
        owner.close()

    def test_writer_rejects_shards_after_finish(self, dataset, tmp_path):
        writer = ShardStoreWriter(
            tmp_path / "store",
            cardinalities=dataset.cardinalities,
            uniform=True,
            dataset_meta={},
        )
        block = np.zeros((sum(dataset.cardinalities), 1), dtype=np.uint64)
        writer.add_shard(block, None, unique_start=0, unique_stop=1, row_count=1)
        store = writer.finish(owns_files=True)
        with pytest.raises(EngineError, match="already finished"):
            writer.add_shard(
                block, None, unique_start=1, unique_stop=2, row_count=1
            )
        with pytest.raises(EngineError, match="already finished"):
            writer.finish()
        store.close()

    def test_writer_rejects_bad_block_shape(self, dataset, tmp_path):
        writer = ShardStoreWriter(
            tmp_path / "store",
            cardinalities=dataset.cardinalities,
            uniform=False,
            dataset_meta={},
        )
        with pytest.raises(EngineError, match="shard block"):
            writer.add_shard(
                np.zeros((2, 1), dtype=np.uint64),
                np.zeros(64, dtype=np.int64),
                unique_start=0,
                unique_stop=1,
                row_count=1,
            )
        with pytest.raises(EngineError, match="requires shard counts"):
            writer.add_shard(
                np.zeros((sum(dataset.cardinalities), 1), dtype=np.uint64),
                None,
                unique_start=0,
                unique_stop=1,
                row_count=1,
            )
