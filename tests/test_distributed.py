"""Tests for the socket shard-worker protocol and incremental spill reuse.

Covers the distributed layer end to end: the length-prefixed frame codec,
sticky shard placement, bit-identical socket fan-out, deterministic
fault injection (a worker killed mid-session must be resurrected without
changing any answer), invalidation routing, the hardened ``close()``
contract, ``delta_write`` reuse accounting, and backward-compatible reads
of the checked-in v1 manifest fixture.
"""

import json
import os
import shutil
import signal
import socket
import struct
import tempfile
import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.engine import (
    DenseBoolEngine,
    DistributedPool,
    EngineConfig,
    MmapShardStore,
    ShardedEngine,
    ShardStoreWriter,
    WorkerDied,
    load_spill_dataset,
)
from repro.core.engine.distributed import (
    recv_message,
    send_message,
    serve_on_socket,
)
from repro.core.engine.sharded import _fork_available
from repro.core.mups.base import find_mups
from repro.core.pattern import Pattern, X
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError, ReproError

#: A frame header whose ``__nd__`` offset is JSON ``Infinity``, on which
#: ``int()`` raises OverflowError.
INFINITY_FRAME = b'{"a": {"__nd__": ["<u1", [1], Infinity, 1]}}'

#: ``__nd__`` marker fields: values a well-formed frame carries, mixed
#: with those a corrupt stream can (unknown or zero-size dtypes,
#: negative, huge and non-finite offsets, wrong types).
_ND_DTYPES = st.sampled_from(["|u1", "<u8", "<i4", "|b1", "O", "V0", "<U0", "xyz"])
_ND_NUMBERS = (
    st.integers(-2, 64)
    | st.integers(-(1 << 70), 1 << 70)
    | st.floats()
    | st.none()
    | st.text(max_size=3)
)
_ND_FIELDS = _ND_DTYPES | st.lists(st.integers(-2, 70), max_size=3) | _ND_NUMBERS


@st.composite
def _nd_markers(draw):
    if draw(st.booleans()):
        fields = [
            draw(_ND_DTYPES | st.text(max_size=4)),
            draw(st.lists(st.integers(-2, 70), max_size=3) | _ND_NUMBERS),
            draw(_ND_NUMBERS),
            draw(_ND_NUMBERS),
        ]
    else:
        fields = draw(st.lists(_ND_FIELDS, max_size=5))
    return {"__nd__": fields}


#: JSON values with ``__nd__`` markers among the leaves (floats include
#: NaN and infinities, which ``json.dumps`` writes as NaN/Infinity).
_FRAME_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | _nd_markers(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


def _dumps(value):
    return json.dumps(value).encode("utf-8")


@st.composite
def _frames(draw):
    """``(header_len, tail_len, header, tail)``: raw bytes, JSON objects
    with markers, any JSON root, or JSON nested up to 3000 deep; the
    declared lengths are mostly the true ones.  A frame stays far below
    the socket buffer, so writing it never blocks."""
    header = draw(
        st.binary(max_size=64)
        | st.builds(
            _dumps, st.dictionaries(st.text(max_size=6), _FRAME_VALUES, max_size=4)
        )
        | st.builds(_dumps, _FRAME_VALUES)
        | st.builds(
            lambda depth, value: b"[" * depth + _dumps(value) + b"]" * depth,
            st.integers(0, 3000),
            _FRAME_VALUES,
        )
    )
    tail = draw(st.binary(max_size=256))
    header_len = draw(
        st.just(len(header))
        | st.integers(0, len(header) + 8)
        | st.integers(0, (1 << 32) - 1)
    )
    tail_len = draw(
        st.just(len(tail))
        | st.integers(0, len(tail) + 8)
        | st.integers(0, (1 << 32) - 1)
    )
    return header_len, tail_len, header, tail

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="spawn-local workers require os.fork"
)

V1_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "shard_store_v1"
)


def v1_fixture_dataset():
    """The dataset tests/fixtures/shard_store_v1 was generated from."""
    return random_categorical_dataset(40, (3, 2, 2), seed=13, skew=1.2)


@pytest.fixture
def dataset():
    return random_categorical_dataset(90, (3, 3, 2), seed=21, skew=1.3)


@pytest.fixture
def patterns(dataset):
    result = [Pattern.root(dataset.d)]
    for attribute, cardinality in enumerate(dataset.cardinalities):
        for value in range(cardinality):
            result.append(Pattern.root(dataset.d).with_value(attribute, value))
    result.append(Pattern.of(1, X, 0))
    result.append(Pattern.of(2, 2, 1))
    result.append(Pattern.of(X, 0, 1))
    return result


def socket_engine(dataset, root, **overrides):
    options = dict(shards=4, workers=2, spill_dir=root)
    options.update(overrides)
    return ShardedEngine(dataset, **options)


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def roundtrip(self, message):
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            return recv_message(right)
        finally:
            left.close()
            right.close()

    def test_plain_json_roundtrips(self):
        message = {"cmd": "ping", "v": 1, "nested": {"a": [1, 2, None]}}
        assert self.roundtrip(message) == message

    def test_ndarrays_ride_the_binary_tail(self):
        words = np.arange(12, dtype=np.uint64).reshape(3, 4)
        counts = np.array([5, 7], dtype=np.int64)
        decoded = self.roundtrip(
            {"cmd": "run_batch", "ops": [{"payload": [words, counts, 3]}]}
        )
        out_words, out_counts, scalar = decoded["ops"][0]["payload"]
        assert scalar == 3
        assert out_words.dtype == np.uint64
        assert np.array_equal(out_words, words)
        assert np.array_equal(out_counts, counts)
        # Decoded arrays are writable copies, not recv-buffer views.
        out_words[0, 0] = 99

    def test_empty_and_zero_length_arrays(self):
        empty = np.zeros((0,), dtype=np.uint64)
        decoded = self.roundtrip({"payload": empty})
        assert decoded["payload"].shape == (0,)
        assert decoded["payload"].dtype == np.uint64

    def test_truncated_stream_raises_worker_died(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x10")  # half a length prefix + junk
            left.close()
            with pytest.raises(WorkerDied):
                recv_message(right)
        finally:
            right.close()

    @pytest.mark.parametrize(
        "header",
        [
            b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6",  # not UTF-8
            b"{not json}",
            b'{"a": {"__nd__": ["<u8", [4], 0, 32]}}',  # tail too short
            b'{"a": {"__nd__": 5}}',
            pytest.param(INFINITY_FRAME, id="infinity-offset"),
            pytest.param(
                b'{"a": ' + b"[" * 5000 + b"]" * 5000 + b"}",
                id="nested-past-recursion-limit",
            ),
            pytest.param(b"[1, 2]", id="list-root"),
            pytest.param(b"null", id="null-root"),
        ],
    )
    def test_malformed_frames_raise_worker_died(self, header):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">II", len(header), 0) + header)
            with pytest.raises(WorkerDied, match="malformed frame"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(frame=_frames())
    def test_any_frame_decodes_or_raises_worker_died(self, frame):
        """Fuzz: whatever frame arrives before the writer closes,
        ``recv_message`` returns a dict or raises WorkerDied."""
        header_len, tail_len, header, tail = frame
        left, right = socket.socketpair()
        right.settimeout(10)
        try:
            left.sendall(
                struct.pack(">II", header_len, tail_len) + header + tail
            )
            left.close()
            try:
                message = recv_message(right)
            except WorkerDied as exc:
                # A timeout would mean recv_message waited for bytes a
                # closed writer can never send.
                assert not isinstance(exc.__cause__, TimeoutError)
            else:
                assert isinstance(message, dict)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "garbage", [b"\xff" * 10, INFINITY_FRAME], ids=["not-utf8", "infinity"]
    )
    def test_garbage_frame_does_not_stop_a_standing_worker(self, garbage):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(
            target=serve_on_socket, args=(listener,), daemon=True
        )
        thread.start()
        with socket.create_connection(("127.0.0.1", port)) as attacker:
            attacker.sendall(struct.pack(">II", len(garbage), 0) + garbage)
            # The worker drops the corrupt connection instead of exiting.
            assert attacker.recv(1) == b""
        follower = socket.create_connection(("127.0.0.1", port))
        try:
            send_message(follower, {"cmd": "ping", "v": 1})
            assert recv_message(follower)["ok"]
            send_message(follower, {"cmd": "shutdown", "v": 1})
            recv_message(follower)
        finally:
            follower.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# worker state machine (driven in-process)
# ----------------------------------------------------------------------
class TestWorkerState:
    def state(self):
        from repro.core.engine.distributed import _WorkerState

        return _WorkerState()

    def test_ping_reports_pid(self):
        response, keep = self.state().handle({"cmd": "ping", "v": 1})
        assert keep and response == {"ok": True, "pid": os.getpid()}

    def test_protocol_version_mismatch_is_refused(self):
        response, keep = self.state().handle({"cmd": "ping", "v": 999})
        assert keep and not response["ok"]
        assert "version" in response["error"]

    def test_unknown_command_is_refused(self):
        response, keep = self.state().handle({"cmd": "frobnicate", "v": 1})
        assert keep and not response["ok"]

    def test_shutdown_stops_the_loop(self):
        response, keep = self.state().handle({"cmd": "shutdown", "v": 1})
        assert response["ok"] and not keep

    def test_attach_run_invalidate_stats_lifecycle(self, dataset, tmp_path):
        build = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        spill = build.spill_path
        state = self.state()
        try:
            response, _ = state.handle(
                {"cmd": "attach", "path": spill, "v": 1}
            )
            assert response["ok"]
            full = build.full_mask()
            windows = [
                full[info.word_start : info.word_stop]
                for info in build._shards
            ]
            response, _ = state.handle(
                {
                    "cmd": "run_batch",
                    "path": spill,
                    "v": 1,
                    "ops": [
                        {"shard": s, "op": "count", "payload": windows[s]}
                        for s in range(2)
                    ],
                }
            )
            assert response["ok"]
            assert sum(response["results"]) == dataset.n
            response, _ = state.handle(
                {"cmd": "invalidate", "path": spill, "v": 1}
            )
            assert response["ok"] and response["dropped"]
            response, _ = state.handle({"cmd": "stats", "v": 1})
            assert response["ops_served"] == 2
            assert response["batches_served"] == 1
            assert response["invalidations"] == 1
            assert response["attached"] == []
        finally:
            build.close()

    def test_parse_endpoint_rejects_malformed_addresses(self):
        from repro.core.engine.distributed import parse_endpoint

        assert parse_endpoint("10.0.0.1:7000") == ("10.0.0.1", 7000)
        with pytest.raises(EngineError, match="host:port"):
            parse_endpoint("no-port")
        with pytest.raises(EngineError, match="port"):
            parse_endpoint("host:notanumber")

    def test_connect_parses_every_endpoint_before_dialing(self, monkeypatch):
        import repro.core.engine.distributed as distributed_module

        dialed = []
        monkeypatch.setattr(distributed_module, "_connect", dialed.append)
        with pytest.raises(EngineError, match="port"):
            DistributedPool.connect(["127.0.0.1:7000", "host:65536"])
        # The bad address fails the pool before the good one is dialed.
        assert dialed == []


# ----------------------------------------------------------------------
# pool mechanics
# ----------------------------------------------------------------------
@needs_fork
class TestDistributedPool:
    def test_sticky_placement_is_shard_mod_workers(self):
        with DistributedPool.spawn_local(3) as pool:
            assert pool.worker_count == 3
            assert pool.placement(7) == [0, 1, 2, 0, 1, 2, 0]
            assert [pool.slot_for(s) for s in range(7)] == pool.placement(7)

    def test_run_shard_ops_batches_per_worker(self, dataset, tmp_path):
        engine = socket_engine(dataset, str(tmp_path))
        try:
            engine.coverage(Pattern.root(dataset.d))
            engine.coverage(Pattern.of(0, X, X))
            stats = engine._dist_pool.worker_stats()
            # 4 shards over 2 workers: the placement is symmetric, so both
            # workers see identical traffic, and each query family ships as
            # ONE batch frame per worker (ops per batch = owned shards).
            assert stats[0]["batches_served"] == stats[1]["batches_served"]
            assert stats[0]["ops_served"] == stats[1]["ops_served"]
            assert stats[0]["batches_served"] >= 1
            assert (
                stats[0]["ops_served"] == 2 * stats[0]["batches_served"]
            )  # each batch covers the worker's two shards
            assert all(engine.spill_path in s["attached"] for s in stats)
        finally:
            engine.close()

    def test_worker_death_is_recovered_transparently(self, dataset, tmp_path):
        """Deterministic fault injection: SIGKILL one worker mid-session;
        the next query must resurrect it and answer identically."""
        engine = socket_engine(dataset, str(tmp_path))
        dense = DenseBoolEngine(dataset)
        root = Pattern.root(dataset.d)
        try:
            assert engine.coverage(root) == dense.coverage(root)
            pool = engine._dist_pool
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    os.kill(victim, 0)
                except OSError:
                    break
                time.sleep(0.05)
            probes = [root.with_value(0, v) for v in range(3)]
            assert list(engine.coverage_many(probes)) == list(
                dense.coverage_many(probes)
            )
            assert pool.retry_count >= 1
            assert pool.worker_pids()[0] != victim
            # The resurrected worker re-attached the spill path on its own.
            assert engine.spill_path in pool.worker_stats()[0]["attached"]
        finally:
            engine.close()

    def test_invalidate_messages_only_dirty_owners(self, dataset, tmp_path):
        engine = socket_engine(dataset, str(tmp_path))
        try:
            engine.coverage(Pattern.root(dataset.d))
            pool = engine._dist_pool
            path = engine.spill_path
            # Shard 1 lives on slot 1; only that worker gets a frame, but
            # every slot forgets the path for reattach bookkeeping.
            assert pool.invalidate(path, [1]) == 1
            stats = pool.worker_stats()
            assert [s["invalidations"] for s in stats] == [0, 1]
            # The dirty owner dropped its store; the clean worker keeps its
            # (hard-link-backed) mmaps serving.
            assert path in stats[0]["attached"]
            assert path not in stats[1]["attached"]
            # Pool-side bookkeeping forgot the path on every slot.
            assert all(path not in w.attached for w in pool._workers)
            # Re-attach works after an invalidation round.
            pool.attach(path, 4)
            assert all(
                path in s["attached"] for s in pool.worker_stats()
            )
        finally:
            engine.close()

    def test_worker_side_errors_do_not_trigger_retry(self, tmp_path):
        with DistributedPool.spawn_local(2) as pool:
            with pytest.raises(EngineError):
                pool.attach(str(tmp_path / "missing"), 1)
            assert pool.retry_count == 0

    def test_connect_to_externally_served_worker(self, dataset, tmp_path):
        """The remote topology: a worker served outside the pool's control,
        addressed by host:port exactly as ``repro worker`` would be."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(
            target=serve_on_socket, args=(listener,), daemon=True
        )
        thread.start()
        dense = DenseBoolEngine(dataset)
        build = ShardedEngine(dataset, shards=2, spill_dir=str(tmp_path))
        spill = build.spill_path
        try:
            full = build.full_mask()
            windows = [
                full[info.word_start : info.word_stop]
                for info in build._shards
            ]
            with DistributedPool.connect([f"127.0.0.1:{port}"]) as pool:
                assert pool.worker_count == 1
                pool.attach(spill, 2)
                results = pool.run_shard_ops(spill, "count", windows)
                assert sum(results) == dense.coverage(Pattern.root(dataset.d))
            # Closing a connected pool leaves the standing worker serving
            # (it is externally managed); a new coordinator can take over.
            follower = socket.create_connection(("127.0.0.1", port))
            try:
                send_message(follower, {"cmd": "ping", "v": 1})
                assert recv_message(follower)["ok"]
                send_message(follower, {"cmd": "shutdown", "v": 1})
                recv_message(follower)
            finally:
                follower.close()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            build.close()


# ----------------------------------------------------------------------
# socket engine equivalence
# ----------------------------------------------------------------------
@needs_fork
class TestSocketEngine:
    def test_socket_mode_is_bit_identical_to_dense(
        self, dataset, patterns, tmp_path
    ):
        dense = DenseBoolEngine(dataset)
        engine = socket_engine(dataset, str(tmp_path))
        try:
            assert engine.fan_out == "socket"
            for pattern in patterns:
                assert engine.coverage(pattern) == dense.coverage(pattern)
            assert list(engine.coverage_many(patterns)) == list(
                dense.coverage_many(patterns)
            )
            family = engine.restrict_children(engine.full_mask(), 1)
            reference = dense.restrict_children(dense.full_mask(), 1)
            for child, expected in zip(family, reference):
                assert np.array_equal(
                    engine.mask_to_bool(child), dense.mask_to_bool(expected)
                )
        finally:
            engine.close()

    def test_socket_mup_sets_match_dense(self, dataset, tmp_path):
        reference = find_mups(dataset, threshold=3, engine="dense")
        engine = socket_engine(dataset, str(tmp_path))
        try:
            result = find_mups(dataset, threshold=3, engine=engine)
            assert result.as_set() == reference.as_set()
        finally:
            engine.close()

    def test_close_reaps_workers_and_spill(self, dataset, tmp_path):
        engine = socket_engine(dataset, str(tmp_path))
        engine.coverage(Pattern.root(dataset.d))
        pids = engine._dist_pool.worker_pids()
        path = engine.spill_path
        engine.close()
        assert not os.path.exists(path)
        deadline = time.time() + 10
        while time.time() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                    alive.append(pid)
                except OSError:
                    pass
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_close_releases_everything_after_failed_fan_out(
        self, dataset, tmp_path, monkeypatch
    ):
        """The leak regression (satellite): a shard op raising mid-fan-out
        must not wedge ``close()`` — pools, mmaps, and the spill directory
        all go away."""
        engine = socket_engine(dataset, str(tmp_path))
        engine.coverage(Pattern.root(dataset.d))  # pool is live
        pool = engine._dist_pool
        pids = pool.worker_pids()
        path = engine.spill_path

        original = DistributedPool.run_shard_ops

        def explode(self, *args, **kwargs):
            raise EngineError("injected mid-fan-out failure")

        monkeypatch.setattr(DistributedPool, "run_shard_ops", explode)
        with pytest.raises(EngineError, match="injected"):
            engine.coverage(Pattern.of(0, X, X))
        monkeypatch.setattr(DistributedPool, "run_shard_ops", original)
        engine.close()
        assert not os.path.exists(path)
        assert engine._dist_pool is None
        for pid in pids:
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                    time.sleep(0.05)
                except OSError:
                    break
            else:
                pytest.fail(f"worker {pid} leaked past close()")

    def test_template_rebuild_respawns_pool(self, dataset, tmp_path):
        engine = socket_engine(dataset, str(tmp_path))
        try:
            template = engine.template()
            assert template.workers == 2
        finally:
            engine.close()
        rebuilt = template(dataset)
        try:
            assert rebuilt.fan_out == "socket"
            assert rebuilt.coverage(Pattern.root(dataset.d)) == dataset.n
        finally:
            rebuilt.close()


# ----------------------------------------------------------------------
# incremental spill reuse
# ----------------------------------------------------------------------
class TestDeltaWrite:
    def test_localized_append_rewrites_one_shard(self, tmp_path):
        dataset = random_categorical_dataset(120, (4, 3, 2), seed=3, skew=1.4)
        engine = ShardedEngine(dataset, shards=4, spill_dir=str(tmp_path))
        try:
            unique, _ = dataset.unique_rows()
            # Duplicate the very first combination: only shard 0's counts
            # change, every other slice fingerprints identically.
            appended = dataset.append_rows(unique[:1].copy())
            result = ShardStoreWriter.delta_write(
                engine.store,
                appended,
                str(tmp_path / "delta"),
                owns_files=True,
            )
            try:
                assert result.dirty_shards == (0,)
                assert result.reused_shards == 3
                assert result.rewritten_shards == 1
                assert result.reused_bytes > 0
                total = result.reused_bytes + result.written_bytes
                assert result.written_bytes <= 0.5 * total
                # Clean shards are hard links to the same inodes.
                prev_entry = engine.store.manifest["shards"][1]
                new_entry = result.store.manifest["shards"][1]
                assert os.path.samefile(
                    engine.store.path / prev_entry["words_file"],
                    result.store.path / new_entry["words_file"],
                )
                assert result.store.format_version == 2
            finally:
                result.store.close()
        finally:
            engine.close()

    def test_delta_store_attaches_and_answers_identically(self, tmp_path):
        dataset = random_categorical_dataset(100, (3, 3, 2), seed=8, skew=1.2)
        engine = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        try:
            rows = np.array([[0, 0, 0], [2, 2, 1]], dtype=np.int32)
            appended = dataset.append_rows(rows)
            result = ShardStoreWriter.delta_write(
                engine.store, appended, str(tmp_path / "delta"), owns_files=False
            )
            result.store.close()
            # attach() re-validates every shard fingerprint — including the
            # hard-linked ones — against the appended dataset.
            attached = ShardedEngine.attach(appended, str(tmp_path / "delta"))
            dense = DenseBoolEngine(appended)
            try:
                probes = [Pattern.root(3), Pattern.of(0, 0, 0), Pattern.of(2, X, 1)]
                assert list(attached.coverage_many(probes)) == list(
                    dense.coverage_many(probes)
                )
            finally:
                attached.close()
        finally:
            engine.close()

    def test_delta_rebuild_hands_over_engine_state(self, tmp_path):
        dataset = random_categorical_dataset(80, (3, 2, 2), seed=5, skew=1.3)
        engine = ShardedEngine(
            dataset, shards=3, spill_dir=str(tmp_path), delta_spill=True
        )
        unique, _ = dataset.unique_rows()
        appended = dataset.append_rows(unique[:1].copy())
        successor = ShardedEngine.delta_rebuild(engine, appended)
        engine.close()
        dense = DenseBoolEngine(appended)
        try:
            assert successor.delta_result is not None
            assert successor.delta_result.reused_shards >= 1
            assert successor.delta_spill
            root = Pattern.root(3)
            assert successor.coverage(root) == dense.coverage(root)
        finally:
            successor.close()

    def test_schema_change_degrades_to_full_rewrite(self, tmp_path):
        dataset = random_categorical_dataset(60, (3, 2, 2), seed=2, skew=1.2)
        engine = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        try:
            # A dataset that flips uniformity (all multiplicities 1) cannot
            # reuse multiplicity shards; every slice is dirty.
            unique, _ = dataset.unique_rows()
            from repro.data.dataset import Dataset

            uniform = Dataset(dataset.schema, unique.copy())
            result = ShardStoreWriter.delta_write(
                engine.store, uniform, str(tmp_path / "delta"), owns_files=True
            )
            try:
                assert result.reused_shards == 0
                assert result.store.format_version == 2
            finally:
                result.store.close()
        finally:
            engine.close()


# ----------------------------------------------------------------------
# manifest v1 backward compatibility (checked-in fixture)
# ----------------------------------------------------------------------
class TestManifestV1Compat:
    def test_fixture_is_v1(self):
        with open(os.path.join(V1_FIXTURE, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["format"] == "repro-shard-store/v1"
        assert all("fingerprint" not in e for e in manifest["shards"])

    def test_v1_store_opens_without_fingerprints(self):
        store = MmapShardStore.open(V1_FIXTURE)
        try:
            assert store.format_version == 1
            assert store.shard_count == 3
            assert all(
                store.shard_fingerprint(s) is None
                for s in range(store.shard_count)
            )
        finally:
            store.close()

    def test_v1_attach_answers_identically_to_dense(self):
        dataset = v1_fixture_dataset()
        engine = ShardedEngine.attach(dataset, V1_FIXTURE)
        dense = DenseBoolEngine(dataset)
        try:
            probes = [Pattern.root(3)]
            for attribute, cardinality in enumerate(dataset.cardinalities):
                for value in range(cardinality):
                    probes.append(
                        Pattern.root(3).with_value(attribute, value)
                    )
            assert list(engine.coverage_many(probes)) == list(
                dense.coverage_many(probes)
            )
        finally:
            engine.close()
        # Attached stores never own the fixture's files.
        assert os.path.exists(os.path.join(V1_FIXTURE, "manifest.json"))

    def test_v1_previous_store_forces_full_rewrite(self, tmp_path):
        dataset = v1_fixture_dataset()
        prev = MmapShardStore.open(V1_FIXTURE)
        try:
            appended = dataset.append_rows(
                np.array([[0, 0, 0]], dtype=np.int32)
            )
            result = ShardStoreWriter.delta_write(
                prev, appended, str(tmp_path / "delta"), owns_files=True
            )
            try:
                assert result.reused_shards == 0
                assert result.store.format_version == 2
                attached = ShardedEngine.attach(
                    appended, str(tmp_path / "delta")
                )
                try:
                    assert attached.coverage(Pattern.root(3)) == appended.n
                finally:
                    attached.close()
            finally:
                result.store.close()
        finally:
            prev.close()

    def test_v1_fixture_has_no_dataset_payload(self):
        with pytest.raises(EngineError, match="dataset"):
            load_spill_dataset(V1_FIXTURE)

    def test_v2_dir_round_trips_through_load_spill_dataset(
        self, dataset, tmp_path
    ):
        engine = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        try:
            loaded = load_spill_dataset(engine.spill_path)
            assert (
                loaded.content_fingerprint() == dataset.content_fingerprint()
            )
        finally:
            engine.close()


# ----------------------------------------------------------------------
# configuration and CLI surface
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_endpoints_must_look_like_host_port(self, dataset, tmp_path):
        # The pool's own parser rejects these at construction, before the
        # engine spills anything — not at the first connect.
        for endpoint in ("nonsense", ":7000", "host:abc", "host:0", "host:65536"):
            with pytest.raises(ReproError, match="port"):
                ShardedEngine(
                    dataset,
                    worker_endpoints=[endpoint],
                    spill_dir=str(tmp_path),
                )
        assert os.listdir(tmp_path) == []

    def test_endpoints_select_socket_fan_out(self, dataset, tmp_path):
        # Standing workers take even a single shard without a workers
        # count; the pool connects lazily, so nothing is contacted yet.
        engine = ShardedEngine(
            dataset,
            shards=1,
            worker_endpoints=["127.0.0.1:7000"],
            spill_dir=str(tmp_path),
        )
        try:
            assert engine.workers is None
            assert engine.fan_out == "socket"
            assert engine._dist_pool is None
        finally:
            engine.close()

    def test_single_worker_evaluates_serially(self, dataset, patterns, tmp_path):
        engine = ShardedEngine(
            dataset, shards=3, workers=1, spill_dir=str(tmp_path)
        )
        dense = DenseBoolEngine(dataset)
        try:
            assert engine.fan_out == "serial"
            assert list(engine.coverage_many(patterns)) == list(
                dense.coverage_many(patterns)
            )
            assert engine._dist_pool is None
        finally:
            engine.close()

    def test_socket_without_spill_dir_uses_default_root(
        self, dataset, patterns, tmp_path, monkeypatch
    ):
        # $TMPDIR names the default spill root (tempfile caches it).
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        engine = ShardedEngine(dataset, shards=4, workers=2)
        dense = DenseBoolEngine(dataset)
        try:
            assert os.path.dirname(engine.spill_path) == str(tmp_path)
            assert engine.fan_out == (
                "socket" if _fork_available() else "serial"
            )
            assert list(engine.coverage_many(patterns)) == list(
                dense.coverage_many(patterns)
            )
        finally:
            engine.close()
        assert os.listdir(tmp_path) == []

    def test_delta_spill_without_spill_dir_uses_default_root(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        dataset = random_categorical_dataset(80, (3, 2, 2), seed=5, skew=1.3)
        engine = ShardedEngine(dataset, shards=3, delta_spill=True)
        unique, _ = dataset.unique_rows()
        appended = dataset.append_rows(unique[:1].copy())
        successor = ShardedEngine.delta_rebuild(engine, appended)
        engine.close()
        dense = DenseBoolEngine(appended)
        try:
            # The successor spills beside its predecessor and reuses the
            # clean shards it hard-linked there.
            assert os.path.dirname(successor.spill_path) == str(tmp_path)
            assert successor.delta_result.reused_shards >= 1
            probes = [Pattern.root(3), Pattern.of(0, X, 1), Pattern.of(2, 1, X)]
            assert list(successor.coverage_many(probes)) == list(
                dense.coverage_many(probes)
            )
        finally:
            successor.close()
        assert os.listdir(tmp_path) == []

    def test_valid_socket_config_passes(self, tmp_path):
        EngineConfig(
            backend="sharded",
            workers=2,
            spill_dir=str(tmp_path),
            delta_spill=True,
        ).validate()
        EngineConfig(
            backend="sharded", worker_endpoints=["h1:7000", "h2:65535"]
        ).validate()

    def test_planner_escalates_to_socket_when_starved(self, tmp_path):
        from repro.core.engine import plan_engine

        dataset = random_categorical_dataset(200, (4, 3, 3), seed=4, skew=1.2)
        plan = plan_engine(
            dataset,
            EngineConfig(
                backend="auto",
                spill_dir=str(tmp_path),
                max_resident_bytes=1,
                workers=2,
            ),
        )
        assert plan.config.workers == 2
        assert any("socket" in line for line in plan.rationale)
        engine = plan.build(dataset)
        try:
            assert engine.fan_out == ("socket" if _fork_available() else "serial")
        finally:
            engine.close()


class TestCliSurface:
    def test_worker_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "--host", "0.0.0.0", "--port", "7070"]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 7070
        assert callable(args.handler)

    def test_engine_options_accept_socket_flags(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "identify",
                "data.csv",
                "--threshold",
                "2",
                "--engine",
                "sharded",
                "--worker-endpoints",
                "h1:7000",
                "h2:7001",
                "--delta-spill",
                "--spill-dir",
                str(tmp_path),
            ]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.worker_endpoints == ("h1:7000", "h2:7001")
        assert config.delta_spill is True


# ----------------------------------------------------------------------
# serving layer warm start
# ----------------------------------------------------------------------
class TestServeWarmStart:
    def test_register_spill_attaches_existing_directory(
        self, dataset, tmp_path
    ):
        from repro.serve.registry import EngineRegistry

        build = ShardedEngine(dataset, shards=3, spill_dir=str(tmp_path))
        spill = build.spill_path
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=4, max_bytes=1 << 30
        )
        try:
            entry, created = registry.register_spill(spill)
            assert created
            assert entry.snapshot.dataset.content_fingerprint() == (
                dataset.content_fingerprint()
            )
            assert entry.snapshot.oracle.coverage(
                Pattern.root(dataset.d)
            ) == dataset.n
            # Same directory again: the warm entry is reused, not rebuilt.
            again, created_again = registry.register_spill(spill)
            assert again is entry and not created_again
        finally:
            registry.close()
            # The attached engine must not have deleted the build's files.
            assert os.path.isdir(spill)
            build.close()

    def test_register_spill_rejects_non_store_directory(self, tmp_path):
        from repro.serve.registry import EngineRegistry

        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=2, max_bytes=1 << 30
        )
        try:
            with pytest.raises(ReproError):
                registry.register_spill(str(tmp_path))
        finally:
            registry.close()
