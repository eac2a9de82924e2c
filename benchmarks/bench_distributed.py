"""Distributed execution benchmark: socket fan-out and delta re-spill.

Two pins, one artifact (``BENCH_distributed.json``):

* **Delta re-spill** — a spilled shard store takes a small delivery
  (<= 5% of rows, all duplicating combinations from ONE shard's slice, the
  localized-arrival case incremental reuse exists for) and re-indexes via
  :meth:`ShardStoreWriter.delta_write`.  The pins: the delta pass rewrites
  **<= 25% of the store's bytes** (every clean shard is hard-linked, not
  re-serialized) and is **>= 5x faster** than rebuilding the spill from
  scratch; attaching the delta'd directory passes the v2 per-shard
  fingerprint validation and answers a probe workload bit-identically to
  a fresh engine over the appended dataset.
* **Socket fan-out** — the same batched mask workload runs over the same
  attached spill directory evaluated serially and on spawn-local socket
  shard workers answering length-prefixed frames.  The pin: single-host
  socket execution stays **within 1.3x of serial wall clock** (the bound
  that keeps per-query IPC overhead honest), and full MUP identification
  on the socket engine returns a set bit-identical to the dense
  reference.

Also runnable standalone (the CI distributed smoke job):

    python benchmarks/bench_distributed.py --smoke
"""

import argparse
import sys
import tempfile

import numpy as np

import _config as config
from _harness import emit_bench, timed

from repro.core.engine import (
    DenseBoolEngine,
    ShardedEngine,
    ShardStoreWriter,
)
from repro.core.engine.sharded import _fork_available
from repro.core.mups.base import find_mups
from repro.core.pattern import Pattern, X
from repro.data.synthetic import random_categorical_dataset

#: The pin: a localized <= 5% delivery rewrites at most this byte share.
MAX_DELTA_BYTE_SHARE = 0.25

#: The pin: the delta pass beats a from-scratch re-spill by this factor.
MIN_DELTA_SPEEDUP = 5.0

#: The pin: socket fan-out stays within this factor of serial evaluation.
MAX_SOCKET_OVER_SERIAL = 1.3

#: Delta leg: many shards keep the dirty fraction (1 shard) small, and
#: high-cardinality attributes make the per-shard membership blocks (the
#: bytes reuse skips) dominate the fixed re-index costs every path pays
#: (unique aggregation, dataset payload, fingerprinting) — the regime
#: incremental reuse exists for.
DELTA_N = config.pick(300_000, 2_000_000)
DELTA_CARDINALITIES = config.pick(
    (256, 192, 128, 96), (384, 256, 192, 128)
)
DELTA_SHARDS = 24
DELTA_APPEND_SHARE = 0.02  # 2% of rows, well under the 5% pin premise

#: Socket leg: the batched out-of-core workload from BENCH_outofcore.
SOCKET_N = config.pick(300_000, 2_000_000)
SOCKET_CARDINALITIES = config.pick((16, 12, 10, 10, 8), (24, 18, 12, 10, 10, 8))
SOCKET_N_MASKS = config.pick(512, 1024)
SOCKET_SHARDS = 4
SOCKET_WORKERS = 2
REPS = 3

#: MUP-identification cross-check: small enough for a dense reference.
MUP_N = config.pick(4_000, 20_000)
MUP_CARDINALITIES = (5, 4, 3, 3)
MUP_THRESHOLD = 5


def _patterns(dataset, k, seed=7):
    rng = np.random.default_rng(seed)
    patterns = []
    for _ in range(k):
        values = [
            X if rng.random() < 0.6 else int(rng.integers(c))
            for c in dataset.cardinalities
        ]
        patterns.append(Pattern(values))
    return patterns


def _best_of(fn, reps=REPS):
    best, result = None, None
    for _ in range(reps):
        result, seconds = timed(fn)
        best = seconds if best is None else min(best, seconds)
    return result, best


# ----------------------------------------------------------------------
# leg 1: incremental spill reuse
# ----------------------------------------------------------------------
def run_delta_leg(root, rows, payload):
    dataset = random_categorical_dataset(
        DELTA_N, DELTA_CARDINALITIES, seed=31, skew=0.3
    )
    engine = ShardedEngine(
        dataset, shards=DELTA_SHARDS, spill_dir=root, mask_cache_size=0
    )
    store_bytes = engine.store.data_nbytes

    # The localized delivery: duplicates of combinations that all live in
    # shard 0's slice of the sorted unique space.
    info = engine.shard_infos[0]
    rng = np.random.default_rng(4)
    n_append = max(1, int(dataset.n * DELTA_APPEND_SHARE))
    picks = rng.integers(0, len(info.unique_rows), size=n_append)
    appended = dataset.append_rows(info.unique_rows[picks].copy())
    assert appended.n - dataset.n <= 0.05 * dataset.n

    # Both re-index paths share the appended dataset's unique-combination
    # aggregation (the dataset caches it); warm it up front so the pin
    # measures serialization — the cost delta reuse actually removes —
    # not a one-time sort both paths pay identically.
    appended.unique_rows()
    appended.unique_inverse()

    result = None
    delta_seconds = None
    delta_dir = None
    # Delta passes are ~ms-scale, so extra reps are cheap insurance
    # against scheduler noise on shared CI runners.
    for _ in range(REPS + 2):
        candidate_dir = tempfile.mkdtemp(prefix="repro-delta-", dir=root)
        candidate, seconds = timed(
            lambda d=candidate_dir: ShardStoreWriter.delta_write(
                engine.store, appended, d, owns_files=False
            )
        )
        candidate.store.close()
        if delta_seconds is None or seconds < delta_seconds:
            delta_seconds = seconds
            result = candidate
            delta_dir = candidate_dir

    def full_rebuild():
        fresh = ShardedEngine(
            appended, shards=DELTA_SHARDS, spill_dir=root, mask_cache_size=0
        )
        fresh.close()

    _, full_seconds = _best_of(full_rebuild)

    total_bytes = result.reused_bytes + result.written_bytes
    byte_share = result.written_bytes / max(1, total_bytes)
    speedup = full_seconds / delta_seconds

    # attach() recomputes every shard fingerprint — including the
    # hard-linked ones — against the appended dataset, and the probe
    # workload must be bit-identical to a fresh engine.
    attached = ShardedEngine.attach(appended, delta_dir, mask_cache_size=0)
    reference = ShardedEngine(
        appended, shards=DELTA_SHARDS, spill_dir=root, mask_cache_size=0
    )
    probes = _patterns(appended, 128, seed=9)
    assert list(attached.coverage_many(probes)) == list(
        reference.coverage_many(probes)
    )
    attached.close()
    reference.close()
    engine.close()

    payload["delta"] = {
        "n": dataset.n,
        "appended_rows": int(appended.n - dataset.n),
        "shards": DELTA_SHARDS,
        "store_nbytes": store_bytes,
        "reused_shards": result.reused_shards,
        "rewritten_shards": result.rewritten_shards,
        "reused_bytes": result.reused_bytes,
        "written_bytes": result.written_bytes,
        "written_byte_share": byte_share,
        "delta_seconds": delta_seconds,
        "full_rebuild_seconds": full_seconds,
        "speedup_over_full": speedup,
    }
    rows.append(
        (
            "delta re-spill",
            f"{delta_seconds:.3f}",
            f"{full_seconds:.3f}",
            f"{result.reused_shards}/{DELTA_SHARDS} reused",
            f"{byte_share:.1%} bytes rewritten",
        )
    )
    print(
        f"delta: {result.rewritten_shards} dirty shard(s), "
        f"{byte_share:.1%} of bytes rewritten, "
        f"{speedup:.1f}x faster than full rebuild"
    )
    assert byte_share <= MAX_DELTA_BYTE_SHARE, (
        f"delta rewrote {byte_share:.1%} of store bytes "
        f"(pin: <= {MAX_DELTA_BYTE_SHARE:.0%})"
    )
    assert speedup >= MIN_DELTA_SPEEDUP, (
        f"delta re-spill only {speedup:.2f}x faster than a full rebuild "
        f"(pin: >= {MIN_DELTA_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# leg 2: socket fan-out vs serial evaluation
# ----------------------------------------------------------------------
def run_socket_leg(root, rows, payload):
    dataset = random_categorical_dataset(
        SOCKET_N, SOCKET_CARDINALITIES, seed=23, skew=0.25
    )
    patterns = _patterns(dataset, SOCKET_N_MASKS)
    writer = ShardedEngine(
        dataset, shards=SOCKET_SHARDS, spill_dir=root, mask_cache_size=0
    )
    spill_path = writer.spill_path

    modes = {
        "serial": ShardedEngine.attach(dataset, spill_path, mask_cache_size=0),
        "socket": ShardedEngine.attach(
            dataset, spill_path, workers=SOCKET_WORKERS, mask_cache_size=0
        ),
    }
    expected = None
    seconds = {}
    for label, engine in modes.items():
        assert engine.fan_out == label
        masks = [engine.match_mask(p) for p in patterns]
        counts, best = _best_of(lambda e=engine, m=masks: e.count_many(m))
        counts = list(counts)
        if expected is None:
            expected = counts
        assert counts == expected, f"{label} diverged from serial counts"
        seconds[label] = best
        payload["fanout"][label] = {"seconds": best}
        rows.append((f"fanout={label}", f"{best:.3f}", "-", "-", "-"))
        engine.close()
    writer.close()

    ratio = seconds["socket"] / seconds["serial"]
    payload["socket_over_serial_time_ratio"] = ratio
    print(f"socket fan-out at {ratio:.2f}x serial wall clock")
    assert ratio <= MAX_SOCKET_OVER_SERIAL, (
        f"socket fan-out at {ratio:.2f}x serial time "
        f"(pin: <= {MAX_SOCKET_OVER_SERIAL}x)"
    )

    # Full MUP identification on a socket engine, bit-identical to dense.
    mup_dataset = random_categorical_dataset(
        MUP_N, MUP_CARDINALITIES, seed=11, skew=1.4
    )
    reference = find_mups(
        mup_dataset,
        threshold=MUP_THRESHOLD,
        engine=DenseBoolEngine(mup_dataset),
    )
    with tempfile.TemporaryDirectory(prefix="repro-mup-", dir=root) as mup_root:
        engine = ShardedEngine(
            mup_dataset,
            shards=SOCKET_SHARDS,
            workers=SOCKET_WORKERS,
            spill_dir=mup_root,
        )
        try:
            result = find_mups(
                mup_dataset, threshold=MUP_THRESHOLD, engine=engine
            )
        finally:
            engine.close()
    assert result.as_set() == reference.as_set(), (
        "socket MUP set diverged from the dense reference"
    )
    payload["mup_crosscheck"] = {
        "n": mup_dataset.n,
        "threshold": MUP_THRESHOLD,
        "mups": len(result.mups),
        "identical_to_dense": True,
    }
    rows.append(
        (
            "mup crosscheck",
            "-",
            "-",
            f"{len(result.mups)} MUPs",
            "bit-identical to dense",
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="smoke sizes (the default)"
    )
    parser.parse_args(argv)

    if not _fork_available():
        print("fork unavailable: distributed benchmark skipped")
        return 0

    payload = {
        "pins": {
            "max_delta_byte_share": MAX_DELTA_BYTE_SHARE,
            "min_delta_speedup": MIN_DELTA_SPEEDUP,
            "max_socket_over_serial": MAX_SOCKET_OVER_SERIAL,
        },
        "fanout": {},
    }
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-dist-bench-") as root:
        run_delta_leg(root, rows, payload)
        run_socket_leg(root, rows, payload)

    emit_bench(
        "distributed",
        f"distributed shard execution + incremental spill reuse "
        f"(delta n={DELTA_N}, fanout n={SOCKET_N}, "
        f"{SOCKET_N_MASKS} batched masks)",
        ["leg", "seconds", "baseline s", "reuse", "outcome"],
        rows,
        payload,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
