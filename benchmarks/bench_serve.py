"""Serving-layer benchmark: batching speedup and latency under deliveries.

Two pins, one artifact (``BENCH_serve.json``):

* **Batching QPS** — the same point-coverage workload (many concurrent
  single-pattern requests, drawn with repetition from a small pattern
  pool) runs against two services that differ only in the coalescing
  window: ``0`` (every request is its own engine query — the unbatched
  baseline) vs the default window (concurrent requests merge into
  ``coverage_many`` passes and identical in-flight patterns share one
  engine slot).  Requests drive the service's query path (batcher over the
  registered snapshot) directly, so the pin isolates the batching
  mechanism rather than JSON envelope costs that are identical in both
  modes.  The pin: **batched throughput is at least 3× unbatched**, and
  both modes return counts bit-identical to a serial oracle.
* **Latency under deliveries** — a real HTTP server (ephemeral port, the
  same transport production uses) takes concurrent ``label`` traffic from
  client threads while another thread streams row deliveries.  Every
  response must be internally consistent (the all-wildcard probe's count
  equals the same response's row total — a torn snapshot could not pass),
  and client p95 latency stays under the bound.

The result cache is disabled in both legs so the pins measure the batcher
and the snapshot path, not cache hits.  Also runnable standalone (the CI
serve smoke job):

    python benchmarks/bench_serve.py --smoke
"""

import argparse
import asyncio
import http.client
import json
import statistics
import sys
import threading
import time

import _config as config
from _harness import emit_bench, random_patterns

from repro.core.coverage import CoverageOracle
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset
from repro.serve import BackgroundServer, CoverageService, ServeConfig

#: The pin: coalescing must buy at least this throughput factor.
MIN_BATCH_SPEEDUP = 3.0

#: The pin: client p95 latency under concurrent deliveries stays under this.
LATENCY_BOUND_MS = 250.0

#: QPS leg: a dataset large enough that a point query costs real engine
#: work (the regime batching exists for), and a pattern pool small enough
#: that concurrent traffic repeats patterns — the serving hot-query case.
QPS_ROWS = config.pick(200_000, 500_000)
QPS_CARDINALITIES = (40, 30, 20, 12)
N_REQUESTS = config.pick(4_000, 10_000)
N_DISTINCT = 32
QPS_REPS = 5

#: HTTP leg: label requests per client thread, client threads, deliveries.
HTTP_ROWS = config.pick(20_000, 100_000)
HTTP_CARDINALITIES = (4, 3, 3, 2, 2)
HTTP_REQUESTS = config.pick(40, 150)
HTTP_CLIENTS = 4
HTTP_DELIVERIES = config.pick(6, 20)


# ----------------------------------------------------------------------
# leg 1: batched vs unbatched QPS at the service query path
# ----------------------------------------------------------------------
def _measure_qps(dataset, workload, batch_window_ms):
    """Median QPS over reps for one service mode; returns (qps, counts).

    Drives the service's query path — the batcher against the registered
    snapshot — with one request per workload pattern.  The result cache is
    disabled, so the unbatched baseline pays each query's engine cost.
    """

    async def _run():
        service = CoverageService(
            ServeConfig(
                port=0,
                batch_window_ms=batch_window_ms,
                result_cache_size=0,
            )
        )
        try:
            report = await service.register_dataset(
                dataset.rows.tolist(), names=list(dataset.schema.names)
            )
            snapshot = service.registry.get(report["dataset"]).snapshot
            # Warmup rep: flush-task and executor spin-up.
            await asyncio.gather(
                *(service.batcher.coverage(snapshot, p) for p in workload)
            )
            rates = []
            counts = None
            for _ in range(QPS_REPS):
                start = time.perf_counter()
                counts = await asyncio.gather(
                    *(service.batcher.coverage(snapshot, p) for p in workload)
                )
                seconds = time.perf_counter() - start
                rates.append(len(workload) / seconds)
            return statistics.median(rates), list(counts), service.batcher.info()
        finally:
            service.close()

    return asyncio.run(_run())


def run_qps_leg(dataset, payload):
    pool = random_patterns(dataset, N_DISTINCT, seed=13)
    workload = [pool[i % N_DISTINCT] for i in range(N_REQUESTS)]
    oracle = CoverageOracle(dataset)
    expected = [oracle.coverage(p) for p in workload]

    unbatched_qps, unbatched_counts, _ = _measure_qps(dataset, workload, 0.0)
    batched_qps, batched_counts, batcher = _measure_qps(
        dataset, workload, ServeConfig().batch_window_ms
    )
    assert unbatched_counts == expected, "unbatched counts diverge from serial"
    assert batched_counts == expected, "batched counts diverge from serial"
    ratio = batched_qps / unbatched_qps
    payload["qps"] = {
        "n": dataset.n,
        "d": dataset.d,
        "requests": N_REQUESTS,
        "distinct_patterns": N_DISTINCT,
        "unbatched_qps": unbatched_qps,
        "batched_qps": batched_qps,
        "batched_over_unbatched": ratio,
        "min_speedup": MIN_BATCH_SPEEDUP,
        "batcher": batcher,
    }
    return [
        (
            "qps point-query",
            f"{unbatched_qps:,.0f} q/s",
            f"{batched_qps:,.0f} q/s",
            f"{ratio:.1f}x",
        )
    ]


# ----------------------------------------------------------------------
# leg 2: HTTP p95 latency under concurrent deliveries
# ----------------------------------------------------------------------
def _post(host, port, path, body, timeout=60):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            path,
            json.dumps(body),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def run_http_leg(dataset, payload):
    probe = [None] * dataset.d  # all-wildcard: coverage must equal n
    latencies = []
    failures = []
    lock = threading.Lock()

    with BackgroundServer(ServeConfig(port=0, result_cache_size=0)) as server:
        status, report = _post(
            server.host,
            server.port,
            "/datasets",
            {
                "rows": dataset.rows.tolist(),
                "names": list(dataset.schema.names),
            },
        )
        assert status == 200, report
        key = report["dataset"]

        def client():
            for _ in range(HTTP_REQUESTS):
                start = time.perf_counter()
                code, body = _post(
                    server.host, server.port, "/label",
                    {"dataset": key, "patterns": [probe]},
                )
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    if code != 200:
                        failures.append(body)
                    elif body["coverage"][0] != body["total"]:
                        # The probe matches every row, so its count and the
                        # response's row total must come from one snapshot.
                        failures.append(body)

        def deliverer():
            rows = dataset.rows[:5].tolist()
            for _ in range(HTTP_DELIVERIES):
                code, body = _post(
                    server.host, server.port, "/deliver",
                    {"dataset": key, "rows": rows, "threshold": 1},
                )
                with lock:
                    if code != 200:
                        failures.append(body)

        threads = [
            threading.Thread(target=client) for _ in range(HTTP_CLIENTS)
        ] + [threading.Thread(target=deliverer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not failures, failures[:3]
    latencies.sort()
    p50 = latencies[len(latencies) // 2] * 1000
    p95 = latencies[int(len(latencies) * 0.95)] * 1000
    payload["http"] = {
        "clients": HTTP_CLIENTS,
        "requests": len(latencies),
        "deliveries": HTTP_DELIVERIES,
        "p50_ms": p50,
        "p95_ms": p95,
        "latency_bound_ms": LATENCY_BOUND_MS,
    }
    return [
        (
            "http under deliveries",
            f"p50 {p50:.1f} ms",
            f"p95 {p95:.1f} ms",
            f"bound {LATENCY_BOUND_MS:.0f} ms",
        )
    ]


def _served_dataset(n, cardinalities, seed):
    """A synthetic dataset normalized through ``from_rows``.

    Registration rebuilds the posted rows via ``Dataset.from_rows``, which
    *infers* cardinalities from the observed values — so patterns (and the
    serial truth) must be generated against the same inferred schema, not
    the generator's nominal one.
    """
    raw = random_categorical_dataset(n, cardinalities, seed=seed, skew=0.4)
    return Dataset.from_rows(
        raw.rows.tolist(), names=list(raw.schema.names)
    )


def run(full=False):
    payload = {
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
        "latency_bound_ms": LATENCY_BOUND_MS,
    }
    rows = run_qps_leg(
        _served_dataset(QPS_ROWS, QPS_CARDINALITIES, seed=17), payload
    )
    rows += run_http_leg(
        _served_dataset(HTTP_ROWS, HTTP_CARDINALITIES, seed=23), payload
    )
    emit_bench(
        "serve",
        f"serving layer: batching QPS + latency under deliveries "
        f"({N_REQUESTS} point queries, {N_DISTINCT} distinct)",
        ["leg", "baseline", "measured", "verdict"],
        rows,
        payload,
    )
    # The pins.
    assert payload["qps"]["batched_over_unbatched"] >= MIN_BATCH_SPEEDUP, (
        payload["qps"]["batched_over_unbatched"]
    )
    assert payload["http"]["p95_ms"] <= LATENCY_BOUND_MS, (
        payload["http"]["p95_ms"]
    )
    return payload


def test_bench_serve():
    run(full=config.FULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true", help="smoke sizes (the default)"
    )
    mode.add_argument("--full", action="store_true", help="paper-sized runs")
    args = parser.parse_args(argv)
    run(full=args.full or config.FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
