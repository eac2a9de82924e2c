"""Tests for the async serving layer: registry, batcher, admission, HTTP.

The concurrency-sensitive pieces get stress tests (registry eviction under
threaded load, coalescing correctness against serial answers, snapshot
isolation while deliveries land mid-traffic); the HTTP transport gets an
end-to-end pass over a real socket via :class:`BackgroundServer`.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.analysis.sweep import sweep_mups, threshold_sensitivity
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineConfig
from repro.core.mups import find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import AdmissionError, ServeError
from repro.serve import (
    BackgroundServer,
    CoverageService,
    EngineRegistry,
    ResultCache,
    ServeConfig,
)


def make_random_dataset(seed, n=40, cardinalities=(2, 3, 2)):
    """Small seeded dataset, normalized through ``from_rows`` so its
    schema matches what registration infers from the posted rows."""
    raw = random_categorical_dataset(n, cardinalities, seed=seed, skew=0.8)
    return Dataset.from_rows(raw.rows.tolist())


def service_config(**overrides) -> ServeConfig:
    defaults = dict(port=0, batch_window_ms=1.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def run_service(config, scenario):
    """Run ``scenario(service)`` (a coroutine function) on a fresh loop."""

    async def _main():
        service = CoverageService(config)
        try:
            return await scenario(service)
        finally:
            service.close()

    return asyncio.run(_main())


async def register(service, dataset):
    report = await service.register_dataset(
        dataset.rows.tolist(), names=list(dataset.schema.names)
    )
    return report["dataset"]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.batch_window_seconds == pytest.approx(0.002)
        assert config.engine.backend == "auto"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_window_ms", -1.0),
            ("max_batch", 0),
            ("registry_max_entries", 0),
            ("registry_max_bytes", 0),
            ("memory_budget_bytes", 0),
            ("latency_budget_ms", 0.0),
            ("max_concurrent", 0),
            ("max_queue", -1),
            ("result_cache_size", -1),
            ("engine", "packed"),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ServeError) as excinfo:
            ServeConfig(**{field: value})
        assert excinfo.value.code == "bad_config"

    def test_to_dict_round_trips_engine(self):
        payload = ServeConfig().to_dict()
        assert payload["engine"]["backend"] == "auto"
        assert payload["port"] == 8642


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_bound_and_counters(self):
        cache = ResultCache(max_entries=2)
        cache.put(("cov", "a", 1), 10)
        cache.put(("cov", "a", 2), 20)
        assert cache.get(("cov", "a", 1)) == 10  # refreshes recency
        cache.put(("cov", "a", 3), 30)  # evicts key 2
        assert cache.get(("cov", "a", 2)) is None
        assert cache.get(("cov", "a", 1)) == 10
        info = cache.info()
        assert info["entries"] == 2
        assert info["evictions"] == 1
        assert info["hits"] == 2 and info["misses"] == 1

    def test_invalidate_drops_only_that_fingerprint(self):
        cache = ResultCache(max_entries=8)
        cache.put(("cov", "old", 1), 1)
        cache.put(("mups", "old", 2), 2)
        cache.put(("cov", "new", 1), 3)
        assert cache.invalidate("old") == 2
        assert cache.get(("cov", "old", 1)) is None
        assert cache.get(("cov", "new", 1)) == 3

    def test_zero_size_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put(("cov", "a", 1), 10)
        assert cache.get(("cov", "a", 1)) is None
        assert not cache.enabled


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_reregistration_returns_same_warm_entry(self):
        dataset = make_random_dataset(3)
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=4, max_bytes=1 << 30
        )
        try:
            entry, created = registry.register(dataset)
            again, created_again = registry.register(dataset)
            assert created and not created_again
            assert again is entry
            assert registry.info()["entries"] == 1
        finally:
            registry.close()

    def test_unknown_key_is_structured_404(self):
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=4, max_bytes=1 << 30
        )
        with pytest.raises(ServeError) as excinfo:
            registry.get("missing")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_dataset"

    def test_lru_eviction_under_entry_cap(self):
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=2, max_bytes=1 << 30
        )
        try:
            datasets = [make_random_dataset(seed) for seed in range(5)]
            keys = [registry.register(d)[0].key for d in datasets]
            info = registry.info()
            assert info["entries"] == 2
            assert info["evictions"] == 3
            # The two most recently registered survive.
            assert registry.get(keys[-1]).key == keys[-1]
            assert registry.get(keys[-2]).key == keys[-2]
            with pytest.raises(ServeError):
                registry.get(keys[0])
        finally:
            registry.close()

    def test_byte_budget_keeps_newest(self):
        first = make_random_dataset(1)
        second = make_random_dataset(2)
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=8, max_bytes=1
        )
        try:
            registry.register(first)
            entry, _ = registry.register(second)
            # Over-budget, but the newest entry always survives.
            info = registry.info()
            assert info["entries"] == 1
            assert registry.get(entry.key) is entry
        finally:
            registry.close()

    def test_concurrent_registration_under_load(self):
        """Threads hammering register/get; entry cap holds, no errors."""
        datasets = [make_random_dataset(seed, n=60) for seed in range(6)]
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=3, max_bytes=1 << 30
        )
        errors = []

        def worker(offset):
            try:
                for i in range(30):
                    dataset = datasets[(offset + i) % len(datasets)]
                    entry, _ = registry.register(dataset)
                    try:
                        registry.get(entry.key)
                    except ServeError:
                        pass  # evicted by a concurrent register: legal
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert not errors
            info = registry.info()
            assert info["entries"] <= 3
            assert info["nbytes"] == sum(
                d["nbytes"] for d in info["datasets"]
            )
        finally:
            registry.close()

    def test_delivery_swaps_snapshot_and_aliases(self):
        dataset = make_random_dataset(7)
        registry = EngineRegistry(
            EngineConfig(backend="auto"), max_entries=4, max_bytes=1 << 30
        )
        try:
            entry, _ = registry.register(dataset)
            old_snapshot = entry.snapshot
            report = registry.deliver(
                entry, [tuple(dataset.rows[0])], threshold=1,
                algorithm="deepdiver",
            )
            assert report["rows_total"] == dataset.n + 1
            assert entry.snapshot is not old_snapshot
            # Both the registration key and the new fingerprint resolve.
            assert registry.get(entry.key) is entry
            assert registry.get(report["fingerprint"]) is entry
        finally:
            registry.close()


# ----------------------------------------------------------------------
# batching and coalescing
# ----------------------------------------------------------------------
class TestBatching:
    def test_coalesced_counts_match_serial(self):
        dataset = random_categorical_dataset(300, (3, 3, 2), seed=5, skew=0.5)
        dataset = Dataset.from_rows(dataset.rows.tolist())
        patterns = []
        for a in (-1, 0, 1, 2):
            for b in (-1, 0, 1):
                patterns.append(Pattern([a, b, -1]))
        workload = patterns * 25  # heavy repetition: coalescing territory
        oracle = CoverageOracle(dataset)
        expected = [oracle.coverage(p) for p in workload]
        oracle.engine.close()

        async def scenario(service):
            key = await register(service, dataset)
            snapshot = service.registry.get(key).snapshot
            counts = await asyncio.gather(
                *(service.batcher.coverage(snapshot, p) for p in workload)
            )
            return list(counts), service.batcher.info()

        counts, info = run_service(service_config(), scenario)
        assert counts == expected
        assert info["coalesced"] > 0
        assert info["batched_queries"] <= len(set(patterns)) * info["batches"]

    def test_zero_window_disables_batching(self):
        dataset = make_random_dataset(11)

        async def scenario(service):
            key = await register(service, dataset)
            snapshot = service.registry.get(key).snapshot
            pattern = Pattern([-1] * dataset.d)
            counts = await asyncio.gather(
                *(service.batcher.coverage(snapshot, pattern) for _ in range(8))
            )
            return list(counts), service.batcher.info()

        counts, info = run_service(
            service_config(batch_window_ms=0.0), scenario
        )
        assert counts == [dataset.n] * 8
        assert info["batches"] == 0 and info["coalesced"] == 0

    def test_max_batch_flushes_early(self):
        dataset = random_categorical_dataset(100, (4, 4, 3), seed=9, skew=0.3)
        dataset = Dataset.from_rows(dataset.rows.tolist())
        distinct = [
            Pattern([a, b, -1])
            for a in range(dataset.cardinalities[0])
            for b in range(dataset.cardinalities[1])
        ]

        async def scenario(service):
            key = await register(service, dataset)
            snapshot = service.registry.get(key).snapshot
            await asyncio.gather(
                *(service.batcher.coverage(snapshot, p) for p in distinct)
            )
            return service.batcher.info()

        info = run_service(
            # Window long enough that only max_batch can trigger the flush.
            service_config(batch_window_ms=5_000.0, max_batch=4),
            scenario,
        )
        assert info["batches"] >= len(distinct) // 4
        assert info["max_batch_size"] <= 4

    def test_engine_failure_fans_out_to_waiters(self):
        class BrokenOracle:
            def coverage_many(self, patterns):
                raise RuntimeError("engine exploded")

        class BrokenSnapshot:
            fingerprint = "broken"
            oracle = BrokenOracle()

        dataset = make_random_dataset(13)

        async def scenario(service):
            snapshot = BrokenSnapshot()
            pattern = Pattern([0] * dataset.d)
            results = await asyncio.gather(
                *(
                    service.batcher.coverage(snapshot, pattern)
                    for _ in range(3)
                ),
                return_exceptions=True,
            )
            return results

        results = run_service(service_config(), scenario)
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
    def test_out_of_range_pattern_fails_only_its_own_request(self):
        """A bad value is rejected before queueing, so the valid query
        sharing its batch window still gets its count."""
        dataset = Dataset.from_rows([[0, 1], [1, 0], [0, 0], [1, 1]])

        async def scenario(service):
            key = await register(service, dataset)
            return await asyncio.gather(
                service.label(key, [[0, 1]]),
                service.label(key, [[0, 5]]),
                return_exceptions=True,
            )

        good, bad = run_service(
            service_config(batch_window_ms=2.0), scenario
        )
        assert good["coverage"] == [1]
        assert isinstance(bad, ServeError)
        assert (bad.status, bad.code) == (400, "bad_pattern")


class TestAdmission:
    def test_over_budget_registration_rejected(self):
        dataset = random_categorical_dataset(
            2_000, (6, 5, 4, 3), seed=3, skew=0.3
        )

        async def scenario(service):
            with pytest.raises(AdmissionError) as excinfo:
                await service.register_dataset(dataset.rows.tolist())
            return excinfo.value

        error = run_service(
            service_config(memory_budget_bytes=16), scenario
        )
        assert error.status == 413
        assert error.code == "over_budget"
        assert error.payload()["detail"]["budget_bytes"] == 16

    def test_over_latency_registration_rejected(self):
        dataset = random_categorical_dataset(
            2_000, (6, 5, 4, 3), seed=3, skew=0.3
        )

        async def scenario(service):
            with pytest.raises(AdmissionError) as excinfo:
                await service.register_dataset(dataset.rows.tolist())
            return excinfo.value, service.admission.info()

        error, info = run_service(
            service_config(latency_budget_ms=1e-9), scenario
        )
        assert error.status == 413
        assert error.code == "over_latency"
        assert error.payload()["detail"]["latency_budget_ms"] == 1e-9
        assert info["rejected_over_budget"] == 1

    def test_scan_projection_prices_the_planned_index(self):
        """Admission returns the plan and prices one scan of the planned
        index at the calibrated packed throughput."""
        from repro.core.engine import plan_engine
        from repro.serve.admission import (
            PACKED_SCAN_BYTES_PER_SECOND,
            AdmissionController,
        )

        dataset = random_categorical_dataset(
            2_000, (6, 5, 4, 3), seed=3, skew=0.3
        )
        config = EngineConfig(backend="auto")
        expected = plan_engine(dataset, config)
        assert expected.config.backend == "dense"
        scan_ms = (
            expected.stats.projected_dense_bytes
            / PACKED_SCAN_BYTES_PER_SECOND
            * 1000
        )
        admits = AdmissionController(config, None, 1.0, 1, 1)
        assert admits.check_budget(dataset) == expected
        rejects = AdmissionController(config, None, scan_ms / 2000, 1, 1)
        with pytest.raises(AdmissionError) as excinfo:
            rejects.check_budget(dataset)
        detail = excinfo.value.payload()["detail"]
        assert detail["projected_scan_ms"] == pytest.approx(scan_ms)
        assert detail["backend"] == "dense"

    def test_saturation_rejects_beyond_queue(self):
        async def scenario(service):
            release = asyncio.Event()

            async def hold():
                async with service.admission.heavy():
                    await release.wait()

            holders = [asyncio.create_task(hold()) for _ in range(2)]
            await asyncio.sleep(0.05)  # let one run and one queue
            with pytest.raises(AdmissionError) as excinfo:
                async with service.admission.heavy():
                    pass
            release.set()
            await asyncio.gather(*holders)
            return excinfo.value, service.admission.info()

        error, info = run_service(
            service_config(max_concurrent=1, max_queue=1), scenario
        )
        assert error.status == 429
        assert error.code == "saturated"
        assert info["rejected_saturated"] == 1
        assert info["active"] == 0 and info["waiting"] == 0

    def test_admitted_requests_all_complete(self):
        async def scenario(service):
            done = []

            async def job(i):
                async with service.admission.heavy():
                    await asyncio.sleep(0.001)
                    done.append(i)

            await asyncio.gather(*(job(i) for i in range(20)))
            return done, service.admission.info()

        done, info = run_service(
            service_config(max_concurrent=2, max_queue=64), scenario
        )
        assert sorted(done) == list(range(20))
        assert info["admitted"] == 20


# ----------------------------------------------------------------------
# service semantics
# ----------------------------------------------------------------------
class TestService:
    def test_identify_matches_find_mups(self, example1_dataset):
        expected = find_mups(
            example1_dataset, threshold=1, algorithm="deepdiver"
        ).as_set()

        async def scenario(service):
            key = await register(service, example1_dataset)
            first = await service.identify(key, 1)
            again = await service.identify(key, 1)
            return first, again, service.cache.info()

        first, again, cache = run_service(service_config(), scenario)
        assert set(first["mup_strings"]) == {str(p) for p in expected}
        assert again["mups"] == first["mups"]
        assert cache["hits"] >= 1  # second identify came from the cache

    def test_label_threshold_flags(self, example1_dataset):
        async def scenario(service):
            key = await register(service, example1_dataset)
            return await service.label(
                key, ["1XX", "0XX", [0, None, None]], threshold=2
            )

        body = run_service(service_config(), scenario)
        assert body["coverage"] == [0, 5, 5]
        assert body["covered"] == [False, True, True]
        # List and compact forms of the same pattern answer identically.
        assert body["coverage"][1] == body["coverage"][2]

    def test_enhance_plans_against_served_snapshot(self, example1_dataset):
        async def scenario(service):
            key = await register(service, example1_dataset)
            return await service.enhance(key, 1, 1)

        body = run_service(service_config(), scenario)
        # Example 1's MUP is 1XX: one level-1 target, hit by any 1?? row.
        assert body["targets"] == 1
        assert all(combo[0] == 1 for combo in body["combinations"])
        assert body["unhittable"] == []

    def test_delivery_during_queries_keeps_snapshots_consistent(self):
        """Concurrent label traffic while rows land: every response must be
        internally consistent (the all-wildcard count equals that same
        response's total), though different responses may see different
        generations."""
        dataset = make_random_dataset(17, n=120)
        probe = [None] * dataset.d

        async def scenario(service):
            key = await register(service, dataset)

            async def reader():
                bodies = []
                for _ in range(12):
                    bodies.append(await service.label(key, [probe]))
                return bodies

            async def writer():
                for _ in range(4):
                    await service.deliver(
                        key, [tuple(dataset.rows[0])], threshold=1
                    )
                    await asyncio.sleep(0)

            results = await asyncio.gather(
                reader(), reader(), reader(), writer()
            )
            return results[:3]

        for bodies in run_service(service_config(), scenario):
            totals = []
            for body in bodies:
                assert body["coverage"][0] == body["total"]
                totals.append(body["total"])
            # Readers may straddle generations, but never go backwards.
            assert totals == sorted(totals)

    def test_delivery_invalidates_result_cache(self):
        dataset = make_random_dataset(19, n=80)
        probe = [None] * dataset.d

        async def scenario(service):
            key = await register(service, dataset)
            before = await service.label(key, [probe])
            await service.deliver(key, [tuple(dataset.rows[0])], threshold=1)
            after = await service.label(key, [probe])
            return before, after

        before, after = run_service(service_config(), scenario)
        assert before["coverage"][0] == dataset.n
        assert after["coverage"][0] == dataset.n + 1
        assert before["fingerprint"] != after["fingerprint"]

    def test_stats_shape(self, example1_dataset):
        async def scenario(service):
            key = await register(service, example1_dataset)
            await service.label(key, ["XXX"])
            return service.stats()

        stats = run_service(service_config(), scenario)
        assert stats["registry"]["entries"] == 1
        assert stats["batcher"]["requests"] == 1
        assert stats["config"]["engine"]["backend"] == "auto"
        assert "admission" in stats and "result_cache" in stats


# ----------------------------------------------------------------------
# threshold sweeps
# ----------------------------------------------------------------------
class TestSweepEndpoint:
    def test_sweep_matches_library(self):
        dataset = make_random_dataset(31, n=90)

        async def scenario(service):
            key = await register(service, dataset)
            return await service.sweep(key, [2, 4, 7], bootstrap=2, seed=5)

        body = run_service(service_config(), scenario)
        reference = sweep_mups(dataset, [2, 4, 7])
        for tau in (2, 4, 7):
            assert body["counts"][str(tau)] == len(reference.mups_at(tau))
            assert body["mups"][str(tau)] == [
                str(p) for p in reference.mups_at(tau).mups
            ]
        report = threshold_sensitivity(
            dataset, [2, 4, 7], bootstrap=2, seed=5
        )
        expected = report.as_dict()
        for field in ("appeared", "disappeared", "transitions", "support"):
            assert body[field] == expected[field]

    def test_sweep_accepts_range_string_and_attribute_names(self):
        dataset = make_random_dataset(33, n=60)

        async def scenario(service):
            key = await register(service, dataset)
            ranged = await service.sweep(key, "2:6:2")
            named = await service.sweep(key, [2], attributes=["A1", "A3"])
            return ranged, named

        ranged, named = run_service(service_config(), scenario)
        assert ranged["thresholds"] == [2, 4, 6]
        assert named["attributes"] == [0, 2]
        reference = sweep_mups(dataset, [2], attributes=[0, 2])
        assert named["mups"]["2"] == [
            str(p) for p in reference.mups_at(2).mups
        ]

    def test_sweep_bad_inputs(self, example1_dataset):
        async def scenario(service):
            key = await register(service, example1_dataset)
            errors = {}
            for name, call in {
                "empty": service.sweep(key, []),
                "zero": service.sweep(key, [0]),
                "range": service.sweep(key, "9:1"),
                "attr": service.sweep(key, [2], attributes=["nope"]),
                "attr_idx": service.sweep(key, [2], attributes=[9]),
                "boot": service.sweep(key, [2], bootstrap=-1),
            }.items():
                try:
                    await call
                except ServeError as error:
                    errors[name] = error.code
            return errors

        errors = run_service(service_config(), scenario)
        assert set(errors) == {
            "empty", "zero", "range", "attr", "attr_idx", "boot"
        }
        assert set(errors.values()) == {"bad_request"}

    def test_delivery_invalidates_sweep_results(self):
        """Regression: sweep results must key on the snapshot's *content
        fingerprint*, not the mutable dataset alias.  The alias IS the
        registration-time fingerprint, so the first delivery's
        ``invalidate(old_fingerprint)`` would scrub an alias-keyed entry
        by coincidence — the bug only shows from the second delivery on,
        when the retiring fingerprint no longer equals the alias.  Hence:
        sweep, deliver, sweep, deliver, sweep."""
        import numpy as np

        dataset = make_random_dataset(37, n=80)
        new_rows = [dataset.rows[0].tolist()] * 5

        async def scenario(service):
            key = await register(service, dataset)
            gen0 = await service.sweep(key, [2, 5])
            cached = await service.sweep(key, [2, 5])
            await service.deliver(key, new_rows, threshold=2)
            gen1 = await service.sweep(key, [2, 5])
            await service.deliver(key, new_rows, threshold=2)
            gen2 = await service.sweep(key, [2, 5])
            return gen0, cached, gen1, gen2, service.cache.info()

        gen0, cached, gen1, gen2, cache_info = run_service(
            service_config(), scenario
        )
        assert cached == gen0  # pre-delivery repeat rides the cache
        assert cache_info["hits"] >= 1
        fingerprints = {g["fingerprint"] for g in (gen0, gen1, gen2)}
        assert len(fingerprints) == 3
        for generation, body in enumerate((gen0, gen1, gen2)):
            appended = Dataset(
                dataset.schema,
                np.vstack(
                    [dataset.rows] + [new_rows] * generation
                ).astype(np.int32),
            )
            reference = sweep_mups(appended, [2, 5])
            for tau in (2, 5):
                assert body["mups"][str(tau)] == [
                    str(p) for p in reference.mups_at(tau).mups
                ], (generation, tau)

    def test_threaded_sweeps_during_deliveries_stay_consistent(self):
        """Concurrent /sweep traffic while deliveries land: every response
        must pair its fingerprint with that generation's MUP counts (a
        stale alias-keyed cache entry would pair an old body with a live
        generation)."""
        import numpy as np

        dataset = make_random_dataset(41, n=70)
        new_row = dataset.rows[0].tolist()
        deliveries = 3
        responses = []
        failures = []
        with BackgroundServer(service_config()) as server:
            _, reg = http_call(
                server, "POST", "/datasets", {"rows": dataset.rows.tolist()}
            )
            key = reg["dataset"]

            def sweeper():
                for _ in range(8):
                    status, body = http_call(
                        server, "POST", "/sweep",
                        {"dataset": key, "tau_range": "2:4"},
                    )
                    if status != 200:
                        failures.append((status, body))
                    else:
                        responses.append(body)

            def deliverer():
                for _ in range(deliveries):
                    status, body = http_call(
                        server, "POST", "/deliver",
                        {"dataset": key, "rows": [new_row]},
                    )
                    if status != 200:
                        failures.append((status, body))

            threads = [threading.Thread(target=sweeper) for _ in range(3)]
            threads.append(threading.Thread(target=deliverer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        # Ground truth per generation: base rows plus k delivered copies.
        expected = {}
        for k in range(deliveries + 1):
            generation = Dataset(
                dataset.schema,
                np.vstack([dataset.rows] + [[new_row]] * k).astype(np.int32)
                if k
                else dataset.rows,
            )
            reference = sweep_mups(generation, [2, 3, 4])
            expected[generation.content_fingerprint()] = {
                str(tau): [str(p) for p in reference.mups_at(tau).mups]
                for tau in (2, 3, 4)
            }
        for body in responses:
            assert body["fingerprint"] in expected, body["fingerprint"]
            assert body["mups"] == expected[body["fingerprint"]]


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------
def http_call(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(
            method, path, payload, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _drop_seconds(body):
    """Strip wall-clock timings so response bodies compare deterministically."""
    if isinstance(body, dict):
        return {
            key: _drop_seconds(value)
            for key, value in body.items()
            if key != "seconds"
        }
    if isinstance(body, list):
        return [_drop_seconds(item) for item in body]
    return body


class TestHierarchyEndpoint:
    SPEC = {"A2": [[0, 0, 1]], "A1": [[0, 0]]}

    def reference(self, dataset, threshold, max_level=None, remedies=True):
        from repro.analysis.hierarchy import (
            HierarchyStack,
            find_mups_hierarchical,
        )
        from repro.data.hierarchy import AttributeHierarchy

        stack = HierarchyStack.of(
            dataset,
            {
                name: [AttributeHierarchy.of(name, level) for level in chain]
                for name, chain in self.SPEC.items()
            },
        )
        return find_mups_hierarchical(
            dataset,
            stack,
            threshold=threshold,
            max_level=max_level,
            remedies=remedies,
        )

    def test_hierarchy_matches_library(self):
        dataset = make_random_dataset(41, n=70)

        async def scenario(service):
            key = await register(service, dataset)
            return await service.hierarchy(key, self.SPEC, 4)

        body = run_service(service_config(), scenario)
        expected = self.reference(dataset, 4).as_dict()
        assert body["depth"] == 1
        assert _drop_seconds(body["levels"]) == _drop_seconds(expected["levels"])
        assert body["remedies"] == expected["remedies"]

    def test_hierarchy_max_level_and_no_remedies(self):
        dataset = make_random_dataset(43, n=60)

        async def scenario(service):
            key = await register(service, dataset)
            return await service.hierarchy(
                key, self.SPEC, 3, max_level=1, remedies=False
            )

        body = run_service(service_config(), scenario)
        expected = self.reference(
            dataset, 3, max_level=1, remedies=False
        ).as_dict()
        assert _drop_seconds(body["levels"]) == _drop_seconds(expected["levels"])
        assert body["remedies"] == []
        assert body["max_level"] == 1

    def test_hierarchy_results_are_cached(self):
        dataset = make_random_dataset(47, n=60)

        async def scenario(service):
            key = await register(service, dataset)
            first = await service.hierarchy(key, self.SPEC, 4)
            second = await service.hierarchy(key, self.SPEC, 4)
            return first, second, service.cache.info()

        first, second, cache_info = run_service(service_config(), scenario)
        assert first == second
        assert cache_info["hits"] >= 1

    def test_hierarchy_bad_inputs(self):
        dataset = make_random_dataset(51, n=40)

        async def scenario(service):
            key = await register(service, dataset)
            errors = {}
            for name, call in {
                "spec_type": service.hierarchy(key, ["A1"], 4),
                "empty_spec": service.hierarchy(key, {}, 4),
                "chain_type": service.hierarchy(key, {"A1": 3}, 4),
                "sparse_codes": service.hierarchy(key, {"A1": [[0, 7]]}, 4),
                "wrong_domain": service.hierarchy(
                    key, {"A1": [[0, 0, 1]]}, 4
                ),
                "threshold": service.hierarchy(key, self.SPEC, 0),
                "max_level": service.hierarchy(
                    key, self.SPEC, 4, max_level="deep"
                ),
            }.items():
                try:
                    await call
                except ServeError as error:
                    errors[name] = error.code
            return errors

        errors = run_service(service_config(), scenario)
        assert set(errors.values()) == {"bad_request"}
        assert len(errors) == 7

    def test_delivery_invalidates_hierarchy_results(self):
        dataset = make_random_dataset(53, n=60)

        async def scenario(service):
            key = await register(service, dataset)
            before = await service.hierarchy(key, self.SPEC, 4)
            await service.deliver(
                key, [dataset.rows[0].tolist()] * 3, threshold=2
            )
            after = await service.hierarchy(key, self.SPEC, 4)
            return before, after

        before, after = run_service(service_config(), scenario)
        assert before["fingerprint"] != after["fingerprint"]


class TestHttpEndToEnd:
    def test_full_request_cycle(self, example1_dataset):
        rows = example1_dataset.rows.tolist()
        with BackgroundServer(service_config()) as server:
            status, health = http_call(server, "GET", "/healthz")
            assert (status, health) == (200, {"status": "ok"})

            status, reg = http_call(
                server, "POST", "/datasets", {"rows": rows}
            )
            assert status == 200 and reg["created"]
            key = reg["dataset"]

            status, label = http_call(
                server, "POST", "/label",
                {"dataset": key, "patterns": ["1XX"], "threshold": 1},
            )
            assert status == 200
            assert label["coverage"] == [0] and label["covered"] == [False]

            status, ident = http_call(
                server, "POST", "/identify", {"dataset": key, "threshold": 1}
            )
            assert status == 200 and ident["mup_strings"] == ["1XX"]

            status, enhance = http_call(
                server, "POST", "/enhance",
                {"dataset": key, "threshold": 1, "level": 1},
            )
            assert status == 200 and enhance["targets"] == 1

            status, deliver = http_call(
                server, "POST", "/deliver",
                {"dataset": key, "rows": [[1, 1, 1]], "threshold": 1},
            )
            assert status == 200
            assert deliver["resolved"] == ["1XX"]
            assert deliver["rows_total"] == len(rows) + 1

            status, stats = http_call(server, "GET", "/stats")
            assert status == 200
            assert stats["registry"]["entries"] == 1

    def test_hierarchy_route(self):
        dataset = make_random_dataset(57, n=60)
        with BackgroundServer(service_config()) as server:
            _, reg = http_call(
                server, "POST", "/datasets",
                {"rows": dataset.rows.tolist()},
            )
            key = reg["dataset"]

            status, body = http_call(
                server, "POST", "/hierarchy",
                {
                    "dataset": key,
                    "hierarchies": {"A2": [[0, 0, 1]]},
                    "threshold": 4,
                },
            )
            assert status == 200
            assert body["depth"] == 1
            assert [entry["level"] for entry in body["levels"]] == [0, 1]

            status, bad = http_call(
                server, "POST", "/hierarchy",
                {"dataset": key, "threshold": 4},
            )
            assert status == 400 and "hierarchies" in bad["message"]

    def test_error_statuses(self, example1_dataset):
        with BackgroundServer(service_config()) as server:
            status, body = http_call(
                server, "POST", "/label",
                {"dataset": "nope", "patterns": ["XXX"]},
            )
            assert status == 404 and body["code"] == "unknown_dataset"

            status, reg = http_call(
                server, "POST", "/datasets",
                {"rows": example1_dataset.rows.tolist()},
            )
            key = reg["dataset"]

            status, body = http_call(
                server, "POST", "/label",
                {"dataset": key, "patterns": ["1X"]},  # wrong arity
            )
            assert status == 400 and body["code"] == "bad_pattern"

            status, body = http_call(
                server, "POST", "/identify", {"dataset": key}
            )
            assert status == 400 and "threshold" in body["message"]

            status, body = http_call(server, "GET", "/nowhere")
            assert status == 404 and body["code"] == "not_found"

            status, body = http_call(server, "GET", "/label")
            assert status == 405 and body["code"] == "method_not_allowed"

    @pytest.mark.parametrize(
        "route, fields",
        [
            ("/label", {"patterns": ["XX"], "threshold": "abc"}),
            ("/deliver", {"rows": [[0, "a"]]}),
            ("/deliver", {"rows": [[0, 1, 2]]}),
            ("/deliver", {"rows": [[0, 7]]}),
            ("/deliver", {"rows": [[0, 1]], "threshold": "x"}),
            ("/deliver", {"rows": [[0, 1]], "algorithm": "bogus"}),
            ("/datasets", {"rows": [[3000000000, 1]]}),
        ],
        ids=[
            "label-threshold",
            "deliver-string-value",
            "deliver-long-row",
            "deliver-out-of-range",
            "deliver-threshold",
            "deliver-algorithm",
            "register-past-int32",
        ],
    )
    def test_client_errors_are_400(self, route, fields):
        rows = [[0, 1], [1, 0], [0, 0], [1, 1]]
        with BackgroundServer(service_config()) as server:
            _, reg = http_call(server, "POST", "/datasets", {"rows": rows})
            key = reg["dataset"]
            status, body = http_call(
                server, "POST", route, {"dataset": key, **fields}
            )
            assert status == 400, body
            assert body["code"] == "bad_request"
            # A rejected request leaves the served dataset untouched.
            _, label = http_call(
                server, "POST", "/label", {"dataset": key, "patterns": ["XX"]}
            )
            assert label["total"] == len(rows)

    def test_negative_content_length_is_400(self):
        with BackgroundServer(service_config()) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as client:
                client.sendall(
                    b"POST /label HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: -5\r\n\r\n"
                )
                response = b""
                while chunk := client.recv(4096):
                    response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"bad Content-Length" in response

    def test_concurrent_clients_with_deliveries(self):
        dataset = make_random_dataset(23, n=100)
        probe = [None] * dataset.d
        failures = []
        with BackgroundServer(service_config()) as server:
            _, reg = http_call(
                server, "POST", "/datasets",
                {"rows": dataset.rows.tolist()},
            )
            key = reg["dataset"]

            def client():
                for _ in range(10):
                    status, body = http_call(
                        server, "POST", "/label",
                        {"dataset": key, "patterns": [probe]},
                    )
                    if status != 200 or body["coverage"][0] != body["total"]:
                        failures.append((status, body))

            def deliverer():
                for _ in range(3):
                    status, body = http_call(
                        server, "POST", "/deliver",
                        {
                            "dataset": key,
                            "rows": [dataset.rows[0].tolist()],
                            "threshold": 1,
                        },
                    )
                    if status != 200:
                        failures.append((status, body))

            threads = [threading.Thread(target=client) for _ in range(3)]
            threads.append(threading.Thread(target=deliverer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
