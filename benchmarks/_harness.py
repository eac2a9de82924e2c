"""Shared helpers for the benchmark harness.

Each bench module regenerates one table or figure from the paper's
evaluation section: it computes the same series the paper plots, prints it
as an aligned table (so ``pytest benchmarks/ --benchmark-only -s`` shows the
rows), and appends it to ``benchmarks/results/`` as JSON for EXPERIMENTS.md.
"""

from __future__ import annotations

import json

import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro._util import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def timed(fn: Callable, *args, **kwargs):
    """Run ``fn`` once; return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def emit(figure: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a figure's series and persist it under benchmarks/results/."""
    rows = [list(r) for r in rows]
    print()
    print(f"=== {figure} ===")
    print(format_table(headers, rows))
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"figure": figure, "headers": list(headers), "rows": rows}
    path = RESULTS_DIR / f"{figure.split(' ')[0].lower().replace('.', '')}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def emit_bench(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    payload: dict,
) -> Path:
    """Print an engine benchmark's table and write its canonical artifact.

    The single writer for every ``BENCH_*.json``: the table and the
    machine-readable payload land in **one** ``BENCH_<name>.json`` under
    ``benchmarks/results/`` (bench scripts must not write result files
    themselves — two writers once produced divergent
    ``bench_sharded.json`` / ``BENCH_sharded.json`` copies).
    """
    rows = [list(r) for r in rows]
    print()
    print(f"=== BENCH_{name} {title} ===")
    print(format_table(headers, rows))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "title": title,
        "headers": list(headers),
        "rows": rows,
        **payload,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


def fmt_rate(rate: float) -> str:
    return f"{rate:g}"


# ----------------------------------------------------------------------
# shared engine-benchmark workload and timing
# ----------------------------------------------------------------------

#: Calibrate each timed sample to span at least this long, so millisecond
#: workloads don't turn scheduler jitter on shared CI runners into
#: spurious ratio failures.
MIN_MEASURE_SECONDS = 0.05


def random_patterns(dataset, k: int, seed: int, wildcard_rate: float = 0.6):
    """``k`` random patterns over ``dataset`` (X with ``wildcard_rate``)."""
    import numpy as np

    from repro.core.pattern import Pattern, X

    rng = np.random.default_rng(seed)
    patterns = []
    for _ in range(k):
        values = [
            X if rng.random() < wildcard_rate else int(rng.integers(c))
            for c in dataset.cardinalities
        ]
        patterns.append(Pattern(values))
    return patterns


def mask_workload(engine, patterns):
    """The standard batched coverage workload: match masks + count_many."""
    masks = [engine.match_mask(p) for p in patterns]
    return engine.count_many(masks)


def measure_engines(engines, patterns, reps: int = 5):
    """Median per-run seconds for each engine, sampled in interleaved rounds.

    Fairness matters more than raw precision here: every engine gets the
    same number of samples, rounds interleave so machine drift lands on
    all engines evenly, a calibration pass sizes per-engine inner repeat
    counts so each sample spans :data:`MIN_MEASURE_SECONDS`, and the
    median — not the min, which biases toward whoever got more lucky
    draws — summarizes each engine.  Returns ``({label: seconds},
    {label: counts})``; the counts are for cross-engine answer
    verification.
    """
    import statistics

    inner = {}
    samples = {label: [] for label, _ in engines}
    counts = {}
    for label, engine in engines:
        result, calibration = timed(mask_workload, engine, patterns)
        counts[label] = list(result)
        inner[label] = max(
            1, int(MIN_MEASURE_SECONDS / max(calibration, 1e-9)) + 1
        )
    for _ in range(reps):
        for label, engine in engines:
            start = time.perf_counter()
            for _ in range(inner[label]):
                mask_workload(engine, patterns)
            samples[label].append(
                (time.perf_counter() - start) / inner[label]
            )
    return {
        label: statistics.median(runs) for label, runs in samples.items()
    }, counts
