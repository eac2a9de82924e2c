"""End-to-end coverage benchmark: three seeded workloads, checked answers,
and a traced per-layer breakdown.

    python3 benchmarks/e2e/run.py --workload identify-airbnb --seed 11 \\
        --seconds 10 --trace 0

Run from the repository root.  Every metric is printed as ``name value
unit``; the last line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Without ``--workload`` every
workload runs, each in a fresh child process.  The exit code is 1 when
any answer is wrong and 2 when the program cannot be found.

Workloads (see README.md for why each was chosen):

* ``identify-airbnb`` — PATTERN-BREAKER, PATTERN-COMBINER and DEEPDIVER on
  30,000 AirBnB listings over 10 binary amenities, τ at rate 1e-3;
* ``identify-bluenile`` — the same three algorithms on the 116,300-row
  BlueNile catalog (7 attributes, cardinalities 3–10), τ = 117;
* ``remedy-airbnb`` — an 8-τ ``sweep_mups`` plus the CLI's enhance path
  (DEEPDIVER to level λ = 6, ``uncovered_at_level``, ``greedy_cover``)
  at the highest τ.

End-to-end times are scaled to a fixed host speed (see :class:`HostClock`):
the shared host's own speed drifts by more than a regression bound within
one run.  The unscaled times print beside them.

The benchmark reaches each layer only through its public functions and
checks every answer with code that does not share the code under test.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: The benchmark's declaration: run length, workloads and metric units.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]

#: End-to-end metrics, reported by every workload from an untraced run.
#: ``op`` is the workload's foreground operation: one round of its
#: identify or remedy operations.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

#: Per-operation detail printed by untraced runs.  They carry no bound;
#: compare.py prints their spread beside the end-to-end metrics.
DETAIL_METRICS = (
    "pattern_breaker_s", "pattern_combiner_s", "deepdiver_s",
    "sweep_s", "enhance_s", "op_p50_wall_ms", "host_speed",
)

#: Per-layer metrics, reported by every workload from a traced run (0 when
#: the workload does not reach the layer), per traced round.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

ALGORITHMS = ("pattern_breaker", "pattern_combiner", "deepdiver")

#: Data set-ups timed per run; setup_s is their median.
SETUP_REPS = 7
#: Sampled MUPs re-checked against a raw row scan.
SAMPLE_MUPS = 200
#: τ as a share of n (the paper's threshold rate).
TAU_RATE = 1e-3
#: remedy-airbnb: swept τ rates (30 … 900 at n = 30,000); enhancement
#: runs at the last one.
SWEEP_RATES = (1e-3, 2e-3, 3e-3, 5e-3, 7e-3, 1e-2, 2e-2, 3e-2)

#: Nominal seconds of one round on a 2-core x86 VM; ``--seconds`` divided
#: by it fixes the round count.
ROUND_SECONDS = {
    "identify-airbnb": 3.7,
    "identify-bluenile": 11.8,
    "remedy-airbnb": 4.4,
}

#: Input sizes; ``--smoke`` runs every workload in a few seconds.
SIZES = {
    False: dict(airbnb_n=30_000, airbnb_d=10, bluenile_n=116_300,
                bluenile_attrs=7, enhance_level=6),
    True: dict(airbnb_n=5_000, airbnb_d=7, bluenile_n=20_000,
               bluenile_attrs=5, enhance_level=4),
}

DEFAULT_SEEDS = {"airbnb": 11, "bluenile": 23}

#: Host-speed probe period.
PROBE_PERIOD_S = 0.02
#: Median probe time on the 2-vCPU x86 VM the benchmark was sized on;
#: scaled times are at that speed.
PROBE_NOMINAL_S = 2.5e-4
#: Fewest probes one interval's speed is taken from.
PROBE_WINDOW = 25

_perf = time.perf_counter


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def probe() -> int:
    """A fixed piece of interpreter work (about 0.25 ms)."""
    total = 0
    for i in range(3_000):
        total += i * i % 7
    return total


class HostClock:
    """Wall time scaled to a fixed host speed.

    On a shared host one vCPU's speed drifts by up to 1.4x within tens of
    seconds, and the two vCPUs drift independently, so neither a longer
    run nor a reference on another core removes it.  While running, a
    SIGALRM handler times :func:`probe` every ``PROBE_PERIOD_S``.  Python
    runs the handler between the bytecodes of the code being measured, on
    its thread, so each probe sees the speed that code saw.
    :meth:`seconds` removes the probes' own time from an interval and
    scales the rest by ``PROBE_NOMINAL_S`` over the median probe time in
    it (or in the ``PROBE_WINDOW`` probes nearest to it).  Without probes
    it returns plain wall time.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []
        self._previous = None
        self._running = False

    def _sample(self, signum, frame) -> None:
        start = _perf()
        probe()
        self.starts.append(start)
        self.times.append(_perf() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end)`` at the nominal host speed."""
        starts = self.starts
        if not starts:
            return end - start
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        busy = end - start - sum(self.times[lo:hi])
        while hi - lo < PROBE_WINDOW and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and start - starts[lo - 1] <= starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return busy * PROBE_NOMINAL_S / statistics.median(self.times[lo:hi])

    def speed(self) -> float:
        """The run's median host speed relative to the nominal one."""
        return PROBE_NOMINAL_S / statistics.median(self.times) if self.times else 1.0


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
Interval = Tuple[float, float]


class Run:
    """One workload run: arguments, op accounting, printed metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = SIZES[smoke]
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.detail: List[Tuple[str, object, str]] = []
        self.clock = HostClock()
        self.tracer = None
        if trace:
            import spans

            self.tracer = spans.Tracer()
            spans.install(self.tracer)
        else:
            # Traced runs report wall time: the probes would land in spans.
            self.clock.start()

    def rng(self, stream: int) -> np.random.Generator:
        """An input stream derived from the seed (same seed, same inputs)."""
        return np.random.default_rng([self.seed, stream])

    def note(self, name: str, value, unit: str) -> None:
        self.detail.append((name, value, unit))

    def elapsed(self, interval: Interval) -> float:
        return self.clock.seconds(*interval)

    def setup(self, make: Callable[[], object]):
        """Generate and prime the dataset ``SETUP_REPS`` times.

        Returns the last dataset; :meth:`finish_rounds` turns the timings
        into ``setup_s`` and the data-layer times (medians).
        """
        self.setups: List[Tuple[Interval, Interval]] = []
        for _ in range(SETUP_REPS):
            gc.collect()
            start = _perf()
            dataset = make()
            middle = _perf()
            dataset.unique_rows()
            self.setups.append(((start, middle), (middle, _perf())))
        return dataset

    def rounds(self, body: Callable[[], object]) -> List[Tuple[bool, Interval, object]]:
        """Run ``body`` for about ``--seconds``, at least twice.

        The round count comes from the workload's nominal round time, not
        from the clock, so every run of one ``--seconds`` does the same
        work (and reaches the same memory peak).  Returns ``(traced,
        interval, value)`` per round.  A traced run alternates untraced and
        traced rounds, so the overhead of tracing is measured in the same
        process on the same data.  Host-speed probing ends with the rounds.
        """
        count = max(2, round(self.seconds / ROUND_SECONDS[self.workload]))
        done: List[Tuple[bool, Interval, object]] = []
        for index in range(count):
            traced = self.trace and index % 2 == 1
            gc.collect()
            if traced:
                self.tracer.enabled = True
            start = _perf()
            value = self.tracer.region("round", body) if traced else body()
            end = _perf()
            if traced:
                self.tracer.enabled = False
            done.append((traced, (start, end), value))
        self.clock.stop()
        return done

    def finish_rounds(self, done: Sequence[Tuple[bool, Interval, object]]) -> None:
        """Set-up, end-to-end (untraced rounds) and per-layer (traced) metrics."""
        generate = [self.elapsed(g) for g, _ in self.setups]
        unique = [self.elapsed(u) for _, u in self.setups]
        self.metrics["setup_s"] = statistics.median(g + u for g, u in zip(generate, unique))
        self.data_times = (statistics.median(generate), statistics.median(unique))
        plain = [interval for traced, interval, _ in done if not traced]
        self.metrics["op_p50_ms"] = statistics.median(map(self.elapsed, plain)) * 1000
        self.note("op_p50_wall_ms",
                  statistics.median(end - start for start, end in plain) * 1000, "ms")
        self.note("host_speed", self.clock.speed(), "ratio")
        if self.trace:
            traced = [end - start for flag, (start, end), _ in done if flag]
            self.dump = self.tracer.dump()
            self.layer, self.layers = layer_metrics(self.dump, len(traced))
            self.layer["trace.overhead_frac"] = (
                statistics.median(traced)
                / statistics.median(end - start for start, end in plain) - 1
            )

    def peak_rss(self) -> None:
        """Peak RSS of this process (which runs the program in-process)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.metrics["peak_rss_mb"] = own / 1024.0


def digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def sampled(items: Sequence, rng: np.random.Generator, count: int) -> List:
    if len(items) <= count:
        return list(items)
    return [items[i] for i in sorted(rng.choice(len(items), count, replace=False))]


def bad_mups(dataset, mups, tau: int) -> List:
    """MUPs that a raw row scan does not confirm as maximal uncovered."""
    from repro.core.coverage import coverage_scan

    return [
        mup for mup in mups
        if coverage_scan(dataset, mup) >= tau
        or any(coverage_scan(dataset, p) < tau for p in mup.parents())
    ]


def airbnb(run: Run):
    from repro.data.airbnb import load_airbnb

    return load_airbnb(n=run.size["airbnb_n"], d=run.size["airbnb_d"], seed=run.seed)


def bluenile(run: Run):
    from repro.data.bluenile import load_bluenile

    dataset = load_bluenile(n=run.size["bluenile_n"], seed=run.seed)
    return dataset.project(list(range(run.size["bluenile_attrs"])))


# ----------------------------------------------------------------------
# identify-airbnb / identify-bluenile
# ----------------------------------------------------------------------
def identify_workload(run: Run, make) -> None:
    import repro
    from repro.core.coverage import threshold_from_rate

    dataset = run.setup(lambda: make(run))
    tau = threshold_from_rate(TAU_RATE, dataset.n)

    def one_round():
        found, intervals = {}, {}
        for algorithm in ALGORITHMS:
            start = _perf()
            result = repro.find_mups(
                dataset, threshold=tau, algorithm=algorithm, engine="auto"
            )
            intervals[algorithm] = (start, _perf())
            found[algorithm] = result.as_set()
        return found, intervals

    done = run.rounds(one_round)
    run.finish_rounds(done)
    run.peak_rss()

    # Checks (untimed): the three algorithms agree every round, and a
    # sample of the MUPs survives a raw row scan.
    failures = set()
    for index, (_, _, (found, _)) in enumerate(done):
        consensus, _ = Counter(found.values()).most_common(1)[0]
        failures.update(
            (index, a) for a, mups in found.items() if mups != consensus
        )
    union = sorted(set().union(*done[0][2][0].values()))
    for mup in bad_mups(dataset, sampled(union, run.rng(1), SAMPLE_MUPS), tau):
        failures.update(
            (index, a)
            for index, (_, _, (found, _)) in enumerate(done)
            for a, mups in found.items() if mup in mups
        )
    run.attempted += len(done) * len(ALGORITHMS)
    run.failed += len(failures)

    plain = [value for traced, _, value in done if not traced]
    for algorithm in ALGORITHMS:
        run.note(
            f"{algorithm}_s",
            statistics.median(run.elapsed(iv[algorithm]) for _, iv in plain), "s",
        )
    first = done[0][2][0]
    run.note("tau", tau, "count")
    run.note("mups", len(first["deepdiver"]), "count")
    run.note("rounds", len(plain), "count")
    run.answer = digest(
        f"{a}:{sorted(str(m) for m in first[a])}" for a in ALGORITHMS
    )


# ----------------------------------------------------------------------
# remedy-airbnb
# ----------------------------------------------------------------------
def remedy_workload(run: Run) -> None:
    import repro
    import repro.analysis.sweep as sweep_module
    from repro.core.coverage import threshold_from_rate
    from repro.core.engine import engine_name
    from repro.core.pattern_graph import PatternSpace

    dataset = run.setup(lambda: airbnb(run))
    taus = sorted({threshold_from_rate(rate, dataset.n) for rate in SWEEP_RATES})
    tau, level = taus[-1], run.size["enhance_level"]

    def one_round():
        start = _perf()
        sweep = sweep_module.sweep_mups(dataset, taus, engine="auto")
        middle = _perf()
        # The CLI's enhance path: one planned engine, a level-capped
        # DEEPDIVER, the Appendix C expansion, then the greedy cover.
        oracle = repro.CoverageOracle(dataset, engine="auto")
        found = repro.find_mups(
            dataset, threshold=tau, algorithm="deepdiver",
            max_level=level, oracle=oracle,
        )
        space = PatternSpace.for_dataset(dataset)
        targets = repro.uncovered_at_level(found.mups, space, level)
        plan = repro.greedy_cover(targets, space, engine=engine_name(oracle.engine))
        return sweep, found.as_set(), plan, ((start, middle), (middle, _perf()))

    done = run.rounds(one_round)
    run.finish_rounds(done)
    run.peak_rss()

    # Checks (untimed).  Every round gives the first round's answers; the
    # sweep agrees with the level-capped DEEPDIVER at τ; sampled sweep MUPs
    # survive a raw row scan; and after collecting the plan's combinations
    # (τ copies each, as enhance_coverage does) no MUP is left at level λ
    # or above it in the lattice.
    sweep, found, plan, _ = done[0][2]
    failures = set()
    for index, (_, _, (other_sweep, other_found, other_plan, _)) in enumerate(done):
        if other_sweep.frontier != sweep.frontier:
            failures.add((index, "sweep"))
        if other_found != found or other_plan.combinations != plan.combinations:
            failures.add((index, "enhance"))
    capped = {m for m in sweep.mups_at(tau).mups if m.level <= level}
    if capped != found:
        failures.update((i, op) for i in range(len(done)) for op in ("sweep", "enhance"))
    low = sweep.mups_at(taus[0]).mups
    if bad_mups(dataset, sampled(low, run.rng(1), SAMPLE_MUPS), taus[0]):
        failures.update((i, "sweep") for i in range(len(done)))
    enhanced = dataset.append_rows(
        [combo for combo in plan.combinations for _ in range(tau)]
    )
    left = repro.find_mups(
        enhanced, threshold=tau, algorithm="deepdiver", max_level=level
    )
    if plan.unhittable or len(left):
        failures.update((i, "enhance") for i in range(len(done)))
    run.attempted += len(done) * 2
    run.failed += len(failures)

    plain = [value for traced, _, value in done if not traced]
    run.note("sweep_s", statistics.median(run.elapsed(v[3][0]) for v in plain), "s")
    run.note("enhance_s", statistics.median(run.elapsed(v[3][1]) for v in plain), "s")
    run.note("enhance_targets", plan.targets, "count")
    run.note("enhance_combinations", len(plan.combinations), "count")
    run.note("rounds", len(plain), "count")
    run.answer = digest(
        [f"{t}:{sorted(str(m) for m in sweep.mups_at(t).mups)}" for t in taus]
        + [repr(plan.combinations)]
    )


# ----------------------------------------------------------------------
# per-layer metrics from a trace dump
# ----------------------------------------------------------------------
def layer_metrics(dump: dict, per: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The PER_LAYER metrics (except data) from ``spans`` output, and the
    self seconds of every layer.

    Values are divided by ``per`` (traced rounds).  The wall time is the
    summed duration of the root spans, and the layers' self times must add
    up to it.
    """
    import spans

    records, counters = dump["spans"], dump["counters"]

    def self_s(prefixes) -> float:
        return sum(r["self_s"] for r in records if r["span"].startswith(prefixes))

    def spans_of(name) -> int:
        return sum(r["count"] for r in records if r["span"] == name)

    def count(name) -> float:
        return counters.get(name, 0)

    def ratio(hits, total) -> float:
        return count(hits) / count(total) if count(total) else 0.0

    by_layer: Dict[str, float] = {}
    for record in records:
        layer = spans.layer_of(record["span"])
        by_layer[layer] = by_layer.get(layer, 0.0) + record["self_s"]
    wall = sum(r["total_s"] for r in records if r["parent"] is None)
    if abs(sum(by_layer.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError("layer self times do not add up to the traced wall time")
    metrics = {
        "pattern.built": count("pattern.built"),
        "mups.self_s": self_s("mups."),
        "mups.nodes_generated": count("mups.nodes_generated"),
        "mups.coverage_evaluations": count("mups.coverage_evaluations"),
        "mups.pruned": count("mups.pruned"),
        "dominance.busy_s": self_s("dominance."),
        "dominance.queries": count("dominance.queries"),
        "engine.busy_s": self_s(("oracle.", "engine.")),
        "engine.build_s": self_s("engine.__init__"),
        "engine.masks_counted": count("engine.masks_counted"),
        "engine.restrict_children_calls": spans_of("engine.restrict_children"),
        "engine.bytes_scanned": count("engine.bytes_scanned"),
        "enhancement.expand_s": self_s("enhancement.uncovered_at_level"),
        "enhancement.greedy_s": self_s("enhancement.greedy_cover"),
        "enhancement.targets": count("enhancement.targets"),
        "enhancement.nodes_visited": count("enhancement.nodes_visited"),
        "sweep.self_s": self_s("sweep."),
        "sweep.evaluations": count("sweep.evaluations"),
        "trace.wall_s": wall,
        "trace.unattributed_s": by_layer.get("bench", 0.0),
    }
    for backend in ("dense", "packed", "compressed", "sharded"):
        metrics[f"engine.builds.{backend}"] = count(f"engine.builds.{backend}")
    metrics = {name: value / per for name, value in metrics.items()}
    metrics["dominance.hit_frac"] = ratio("dominance.hits", "dominance.queries")
    metrics["engine.mask_cache_hit_rate"] = ratio(
        "engine.mask_cache_hits", "engine.mask_cache_lookups"
    )
    return metrics, {
        layer: seconds / per for layer, seconds in sorted(by_layer.items())
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Tuple[str, Callable[[Run], None]]] = {
    "identify-airbnb": ("airbnb", lambda run: identify_workload(run, airbnb)),
    "identify-bluenile": ("bluenile", lambda run: identify_workload(run, bluenile)),
    "remedy-airbnb": ("airbnb", remedy_workload),
}


def run_workload(name: str, seed: Optional[int], seconds: float,
                 trace: bool, smoke: bool = False) -> Run:
    """Run one workload in this process and return its :class:`Run`."""
    dataset_name, body = WORKLOADS[name]
    run = Run(name, DEFAULT_SEEDS[dataset_name] if seed is None else seed,
              seconds, trace, smoke)
    try:
        body(run)
    finally:
        run.clock.stop()
    if trace:
        run.layer["data.generate_s"], run.layer["data.unique_rows_s"] = run.data_times
        for key in PER_LAYER:
            run.layer.setdefault(key, 0.0)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{name}.json").write_text(json.dumps({
            "workload": name, "seed": run.seed, "layers": run.layers,
            "metrics": {k: run.layer[k] for k in PER_LAYER},
            "trace": run.dump,
        }, indent=1))
    return run


def report(run: Run) -> dict:
    """Print every metric as ``name value unit`` and build the JSON line."""
    print(f"workload {run.workload} -")
    print(f"seed {run.seed} -")
    if run.trace:
        metrics = {name: run.layer[name] for name in PER_LAYER}
        units = PER_LAYER
        for layer, seconds in run.layers.items():
            print(f"layer.{layer}.self_s {seconds:.6f} s")
    else:
        metrics = {name: run.metrics[name] for name in END_TO_END}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value, unit in run.detail:
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {run.failed / run.attempted!r} frac")
    print(f"answer_digest {run.answer} sha256")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: 11 for AirBnB, 23 for BlueNile)",
    )
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs (the self-test)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        # Every workload, each in a fresh interpreter.
        code = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name,
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            if args.smoke:
                command.append("--smoke")
            code = max(code, subprocess.run(command, cwd=ROOT).returncode)
        return code
    sys.path.insert(0, str(SRC))
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result = report(run)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
