"""Socket-based shard workers for distributed coverage fan-out.

The out-of-core :class:`~repro.core.engine.sharded.ShardedEngine` already
addresses its index by path: shard files are immutable, manifest-described,
and attachable from any process.  This module stretches that property over
a socket so per-shard kernels can run on long-lived worker processes —
spawned locally for single-host fan-out, or standing ``repro worker``
servers on other hosts — while the coordinator keeps the deterministic
shard-order reduction that makes every execution mode bit-identical.

Protocol
--------
One coordinator connection per worker, carrying length-prefixed frames::

    [uint32 json_len][uint32 tail_len][json header][binary tail]

(big-endian lengths).  The JSON header is the message; numpy arrays inside
it are replaced by ``{"__nd__": [dtype, shape, offset, nbytes]}`` markers
pointing into the raw binary tail, so mask windows cross the wire at
byte cost, not base64 cost.  Only query *payloads* (mask windows, row
ids) and per-shard partial results ever travel — the index words stay on
the worker, mmap-warm.

Worker commands: ``attach`` (open a spill dir by path), ``run_batch``
(execute every shard op the coordinator placed on this worker, in order),
``invalidate`` (drop a retired spill path after a delta rewrite),
``stats``, ``ping``, and ``shutdown``.  Application errors travel back as
``{"ok": false, ...}`` and re-raise coordinator-side; only *transport*
death (worker killed, connection reset) triggers the retry-with-reattach
path in :class:`DistributedPool`.

Placement is sticky: shard ``k`` of a ``K``-shard store always lands on
worker slot ``k % workers``, so repeated queries hit the worker whose
page cache already holds shard ``k``'s bytes.  A respawned or reconnected
worker takes over its predecessor's slot (and re-attaches the same spill
paths) before the failed batch is retried once.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine.mmapped import (
    run_shard_op,
    worker_attach,
    worker_detach,
)
from repro.exceptions import EngineError

#: Wire format version; a worker rejects frames from a different major.
PROTOCOL_VERSION = 1

_LEN_STRUCT = struct.Struct(">II")

#: Refuse absurd frames instead of allocating for them (1 GiB).
_MAX_FRAME_BYTES = 1 << 30

#: Reconnect schedule (seconds) for remote endpoints whose worker is
#: restarting; spawn-local workers are respawned instead.
_RECONNECT_DELAYS = (0.05, 0.2, 0.5)


class WorkerDied(ConnectionError):
    """Transport-level failure talking to a shard worker.

    Distinct from :class:`EngineError` on purpose: a dead connection is
    retryable (respawn/reconnect + reattach), a worker-side application
    error is not.
    """


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def _encode_value(value: Any, tail: List[bytes], offset: List[int]) -> Any:
    """JSON-safe mirror of ``value``; ndarrays become tail references."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        marker = {
            "__nd__": [data.dtype.str, list(data.shape), offset[0], data.nbytes]
        }
        tail.append(data.tobytes())
        offset[0] += data.nbytes
        return marker
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_encode_value(item, tail, offset) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _encode_value(item, tail, offset)
            for key, item in value.items()
        }
    return value


def _decode_value(value: Any, tail: memoryview) -> Any:
    """Inverse of :func:`_encode_value` over a received frame's tail."""
    if isinstance(value, dict):
        if set(value) == {"__nd__"}:
            dtype, shape, start, nbytes = value["__nd__"]
            flat = np.frombuffer(
                tail[int(start) : int(start) + int(nbytes)],
                dtype=np.dtype(str(dtype)),
            )
            # Copy: frombuffer views are read-only and pinned to the recv
            # buffer; kernels (and callers) expect ordinary arrays.
            return flat.reshape([int(n) for n in shape]).copy()
        return {key: _decode_value(item, tail) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item, tail) for item in value]
    return value


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize one message as a length-prefixed frame and send it."""
    tail: List[bytes] = []
    offset = [0]
    header = json.dumps(_encode_value(message, tail, offset)).encode("utf-8")
    try:
        sock.sendall(
            _LEN_STRUCT.pack(len(header), offset[0]) + header + b"".join(tail)
        )
    except OSError as exc:
        raise WorkerDied(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise WorkerDied(f"recv failed: {exc}") from exc
        if not chunk:
            raise WorkerDied("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one length-prefixed frame and decode it.

    Returns the frame's JSON object; anything else the stream carries
    raises :class:`WorkerDied`.
    """
    header_len, tail_len = _LEN_STRUCT.unpack(_recv_exact(sock, _LEN_STRUCT.size))
    if header_len + tail_len > _MAX_FRAME_BYTES:
        raise WorkerDied(
            f"oversized frame ({header_len + tail_len} bytes) — corrupt stream?"
        )
    header = _recv_exact(sock, header_len)
    tail = memoryview(_recv_exact(sock, tail_len)) if tail_len else memoryview(b"")
    try:
        message = _decode_value(json.loads(header.decode("utf-8")), tail)
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        # Undecodable UTF-8/JSON, nesting past the recursion limit, or a
        # bad ``__nd__`` marker (an Infinity offset overflows ``int``): the
        # stream is corrupt, so drop the connection like an oversized frame.
        raise WorkerDied(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WorkerDied(
            f"malformed frame: root is {type(message).__name__}, not an object"
        )
    return message


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """Per-process bookkeeping behind one worker's command handlers."""

    def __init__(self) -> None:
        self.attached: Dict[str, Optional[int]] = {}  # path -> budget
        self.ops_served = 0
        self.batches_served = 0
        self.invalidations = 0

    def handle(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """``(response, keep_running)`` for one request frame."""
        cmd = message.get("cmd")
        if message.get("v", PROTOCOL_VERSION) != PROTOCOL_VERSION:
            return (
                {
                    "ok": False,
                    "error": f"protocol version {message.get('v')} unsupported",
                },
                True,
            )
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid()}, True
        if cmd == "attach":
            path = str(message["path"])
            budget = message.get("max_resident_bytes")
            worker_attach(path, budget)
            self.attached[path] = budget
            return {"ok": True}, True
        if cmd == "run_batch":
            path = str(message["path"])
            results = []
            for op_spec in message["ops"]:
                results.append(
                    run_shard_op(
                        (path, int(op_spec["shard"]), str(op_spec["op"]),
                         op_spec["payload"])
                    )
                )
                self.ops_served += 1
            self.batches_served += 1
            return {"ok": True, "results": results}, True
        if cmd == "invalidate":
            path = str(message["path"])
            dropped = worker_detach(path)
            self.attached.pop(path, None)
            self.invalidations += 1
            return {"ok": True, "dropped": dropped}, True
        if cmd == "stats":
            return (
                {
                    "ok": True,
                    "pid": os.getpid(),
                    "attached": sorted(self.attached),
                    "ops_served": self.ops_served,
                    "batches_served": self.batches_served,
                    "invalidations": self.invalidations,
                },
                True,
            )
        if cmd == "shutdown":
            return {"ok": True}, False
        return {"ok": False, "error": f"unknown command {cmd!r}"}, True


def _serve_connection(conn: socket.socket, state: _WorkerState) -> bool:
    """Answer frames on one coordinator connection until EOF/shutdown.

    Returns False when a shutdown command ended the worker.
    """
    with conn:
        while True:
            try:
                message = recv_message(conn)
            except WorkerDied:
                return True  # coordinator went away; await the next one
            try:
                response, keep_running = state.handle(message)
            except Exception as exc:  # noqa: BLE001 — shipped to coordinator
                response, keep_running = (
                    {
                        "ok": False,
                        "error": str(exc),
                        "kind": type(exc).__name__,
                    },
                    True,
                )
            try:
                send_message(conn, response)
            except WorkerDied:
                return True
            if not keep_running:
                return False


def serve_on_socket(listener: socket.socket) -> None:
    """Run a shard worker on an already-bound listening socket.

    One coordinator at a time: serve a connection to completion, then
    accept the next (a restarted coordinator reconnects to the same
    worker).  Returns when a coordinator sends ``shutdown``.
    """
    state = _WorkerState()
    with listener:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not _serve_connection(conn, state):
                return


def serve_worker(host: str = "127.0.0.1", port: int = 0) -> None:
    """Entry point for a standalone shard worker (``repro worker``).

    Binds, announces ``listening on host:port`` on stdout (port 0 resolves
    to the kernel-assigned one — scripts wait for this line), then serves
    until a coordinator sends ``shutdown`` or the process is killed.
    """
    listener = socket.create_server((host, port))
    bound_host, bound_port = listener.getsockname()[:2]
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    serve_on_socket(listener)


def _spawned_worker_main(listener: socket.socket) -> None:
    """Target of spawn-local worker processes (inherits the bound socket)."""
    serve_on_socket(listener)


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split a ``host:port`` worker address, or raise :class:`EngineError`.

    The one parser behind both :meth:`EngineConfig.validate` and
    :meth:`DistributedPool.connect`: the host must be non-empty and the
    port an integer in 1–65535.
    """
    host, sep, port = endpoint.strip().rpartition(":")
    if not sep or not host:
        raise EngineError(
            f"worker endpoint {endpoint!r} is not of the form host:port"
        )
    if not port.isdigit() or not 1 <= int(port) <= 65535:
        raise EngineError(
            f"worker endpoint {endpoint!r} needs a port in 1-65535"
        )
    return host, int(port)


def _connect(address: Tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=30.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Worker:
    """One slot of the pool: a connection plus how to resurrect it."""

    def __init__(
        self,
        address: Tuple[str, int],
        sock: socket.socket,
        process: Optional[multiprocessing.process.BaseProcess] = None,
    ) -> None:
        self.address = address
        self.sock: Optional[socket.socket] = sock
        self.process = process
        #: Spill paths this worker must re-attach after resurrection.
        self.attached: Dict[str, Optional[int]] = {}

    @property
    def local(self) -> bool:
        return self.process is not None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One round-trip; transport death raises :class:`WorkerDied`,
        worker-side application errors raise :class:`EngineError`."""
        if self.sock is None:
            raise WorkerDied("worker connection is closed")
        message.setdefault("v", PROTOCOL_VERSION)
        send_message(self.sock, message)
        response = recv_message(self.sock)
        if not response.get("ok"):
            raise EngineError(
                f"shard worker at {self.address[0]}:{self.address[1]} "
                f"failed: {response.get('error')}"
            )
        return response

    def drop_connection(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def close(self, *, shutdown_remote: bool) -> None:
        """Tear the slot down (best-effort: never raises)."""
        if self.sock is not None and (self.local or shutdown_remote):
            try:
                send_message(self.sock, {"cmd": "shutdown", "v": PROTOCOL_VERSION})
                recv_message(self.sock)
            except (WorkerDied, OSError):
                pass
        self.drop_connection()
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
            self.process = None


class DistributedPool:
    """A fixed roster of shard workers with sticky shard placement.

    Build one with :meth:`spawn_local` (single host: fork one worker
    process per slot) or :meth:`connect` (many hosts: standing ``repro
    worker`` servers).  :meth:`attach` points every worker at a spill
    directory; :meth:`run_shard_ops` then fans a query family's per-shard
    ops out — one ``run_batch`` frame per owning worker, issued
    concurrently — and returns the partial results in shard order.

    A worker that dies mid-batch is resurrected once (respawned if local,
    reconnected if remote), re-attached to every registered spill path,
    and the failed batch is retried; a second failure raises
    :class:`EngineError`.
    """

    def __init__(self, workers: List[_Worker], *, owns_remote: bool = False) -> None:
        if not workers:
            raise EngineError("a DistributedPool needs at least one worker")
        self._workers = workers
        self._owns_remote = owns_remote
        self._closed = False
        self._executor: Optional[ThreadPoolExecutor] = None
        self._retries = 0

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def spawn_local(cls, workers: int) -> "DistributedPool":
        """Fork ``workers`` local worker processes on loopback sockets.

        The parent binds each listening socket first (so the port is known
        without a handshake) and the forked child inherits it; requires a
        ``fork`` platform.
        """
        workers = max(1, int(workers))
        context = multiprocessing.get_context("fork")
        slots: List[_Worker] = []
        try:
            for _ in range(workers):
                listener = socket.create_server(("127.0.0.1", 0))
                address = listener.getsockname()[:2]
                process = context.Process(
                    target=_spawned_worker_main,
                    args=(listener,),
                    daemon=True,
                )
                process.start()
                listener.close()  # the child keeps its inherited copy
                slots.append(_Worker(address, _connect(address), process))
        except BaseException:
            for slot in slots:
                slot.close(shutdown_remote=False)
            raise
        return cls(slots)

    @classmethod
    def connect(cls, endpoints: Sequence[str]) -> "DistributedPool":
        """Connect to standing workers at ``host:port`` addresses."""
        addresses = [parse_endpoint(endpoint) for endpoint in endpoints]
        slots: List[_Worker] = []
        try:
            for address in addresses:
                try:
                    slots.append(_Worker(address, _connect(address)))
                except OSError as exc:
                    raise EngineError(
                        f"cannot reach shard worker at "
                        f"{address[0]}:{address[1]}: {exc}"
                    ) from exc
        except BaseException:
            for slot in slots:
                slot.close(shutdown_remote=False)
            raise
        return cls(slots, owns_remote=False)

    def close(self) -> None:
        """Shut down every slot (and spawned process); idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for worker in self._workers:
            worker.close(shutdown_remote=self._owns_remote)

    # -- placement ------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return len(self._workers)

    @property
    def retry_count(self) -> int:
        """How many worker resurrections this pool has performed."""
        return self._retries

    def worker_pids(self) -> List[Optional[int]]:
        """Spawn-local worker pids (``None`` for remote slots)."""
        return [worker.pid for worker in self._workers]

    def slot_for(self, shard_id: int) -> int:
        """The worker slot owning ``shard_id`` — stable across queries."""
        return int(shard_id) % len(self._workers)

    def placement(self, shard_count: int) -> List[int]:
        """``shard id -> worker slot`` for a ``shard_count``-shard store."""
        return [self.slot_for(shard) for shard in range(shard_count)]

    # -- commands -------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("DistributedPool is closed")

    def _resurrect(self, slot: int) -> None:
        """Replace a dead worker in place and re-attach its spill paths."""
        worker = self._workers[slot]
        worker.drop_connection()
        if worker.local:
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
            context = multiprocessing.get_context("fork")
            listener = socket.create_server(("127.0.0.1", 0))
            worker.address = listener.getsockname()[:2]
            worker.process = context.Process(
                target=_spawned_worker_main, args=(listener,), daemon=True
            )
            worker.process.start()
            listener.close()
            worker.sock = _connect(worker.address)
        else:
            last_error: Optional[BaseException] = None
            for delay in _RECONNECT_DELAYS:
                try:
                    worker.sock = _connect(worker.address)
                    break
                except OSError as exc:
                    last_error = exc
                    time.sleep(delay)
            if worker.sock is None:
                raise EngineError(
                    f"shard worker at {worker.address[0]}:"
                    f"{worker.address[1]} is unreachable: {last_error}"
                )
        self._retries += 1
        for path, budget in worker.attached.items():
            worker.request(
                {"cmd": "attach", "path": path, "max_resident_bytes": budget}
            )

    def _request_with_retry(
        self, slot: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        worker = self._workers[slot]
        try:
            return worker.request(dict(message))
        except WorkerDied:
            self._resurrect(slot)
            return self._workers[slot].request(dict(message))

    def attach(
        self,
        path: str,
        shard_count: int,
        *,
        max_resident_bytes: Optional[int] = None,
    ) -> None:
        """Attach every worker to a spill directory (idempotent)."""
        self._check_open()
        path = str(path)
        for slot, worker in enumerate(self._workers):
            self._request_with_retry(
                slot,
                {
                    "cmd": "attach",
                    "path": path,
                    "max_resident_bytes": max_resident_bytes,
                },
            )
            worker.attached[path] = max_resident_bytes

    def invalidate(self, path: str, dirty_shards: Sequence[int]) -> int:
        """Drop a retired spill path from the workers owning dirty shards.

        Clean shards were hard-linked into the successor directory, so the
        other workers keep serving their (identical-inode) bytes without a
        page-cache flush.  Every slot forgets the path for reattach
        purposes; only dirty owners get an ``invalidate`` frame.  Returns
        how many workers were messaged.
        """
        self._check_open()
        path = str(path)
        dirty_slots = {self.slot_for(shard) for shard in dirty_shards}
        messaged = 0
        for slot, worker in enumerate(self._workers):
            if slot in dirty_slots and path in worker.attached:
                try:
                    self._request_with_retry(
                        slot, {"cmd": "invalidate", "path": path}
                    )
                    messaged += 1
                except EngineError:
                    pass  # a worker that lost the path anyway is fine
            worker.attached.pop(path, None)
        return messaged

    def worker_stats(self) -> List[Dict[str, Any]]:
        """One ``stats`` snapshot per worker slot, in slot order."""
        self._check_open()
        return [
            self._request_with_retry(slot, {"cmd": "stats"})
            for slot in range(len(self._workers))
        ]

    def run_shard_ops(
        self, path: str, op: str, payloads: Sequence[Any]
    ) -> List[Any]:
        """Execute ``(op, payloads[k])`` for every shard ``k``; results in
        shard order.

        Ops are grouped by owning slot and shipped as one ``run_batch``
        frame per worker, issued concurrently, so a query family costs one
        round-trip regardless of shard count.
        """
        self._check_open()
        path = str(path)
        batches: Dict[int, List[int]] = {}
        for shard_id in range(len(payloads)):
            batches.setdefault(self.slot_for(shard_id), []).append(shard_id)

        def _run(slot_and_shards: Tuple[int, List[int]]) -> List[Any]:
            slot, shard_ids = slot_and_shards
            response = self._request_with_retry(
                slot,
                {
                    "cmd": "run_batch",
                    "path": path,
                    "ops": [
                        {
                            "shard": shard_id,
                            "op": op,
                            "payload": payloads[shard_id],
                        }
                        for shard_id in shard_ids
                    ],
                },
            )
            return response["results"]

        items = sorted(batches.items())
        if len(items) == 1:
            outputs = [_run(items[0])]
        else:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=len(self._workers),
                    thread_name_prefix="repro-dist",
                )
            outputs = list(self._executor.map(_run, items))

        results: List[Any] = [None] * len(payloads)
        for (slot, shard_ids), batch_results in zip(items, outputs):
            if len(batch_results) != len(shard_ids):
                raise EngineError(
                    f"worker slot {slot} returned {len(batch_results)} "
                    f"results for {len(shard_ids)} ops"
                )
            for shard_id, result in zip(shard_ids, batch_results):
                results[shard_id] = result
        return results

    def __enter__(self) -> "DistributedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
