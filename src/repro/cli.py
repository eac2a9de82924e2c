"""Command-line interface: ``repro-coverage`` / ``python -m repro``.

Subcommands:

* ``identify`` — run MUP identification on a CSV file.
* ``label`` — print the nutritional-label coverage widget for a CSV file.
* ``enhance`` — plan an acquisition for a CSV file and a target level λ.
* ``sweep`` — amortized threshold sweep with a MUP sensitivity report.
* ``hierarchy`` — hierarchical MUP search over generalization lattices.
* ``bucketsweep`` — τ-coverage across bucket counts for a numeric column.
* ``demo`` — run the COMPAS walk-through on the bundled simulator.
* ``serve`` — run the persistent HTTP/JSON coverage service.
* ``worker`` — run a standalone shard worker for socket fan-out.

CSV files are expected to contain integer-coded categorical columns; use
``--attributes`` to select the attributes of interest.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro._util import format_table
from repro.analysis.hierarchy import HierarchyStack
from repro.analysis.nutrition import coverage_label
from repro.analysis.report import enhancement_report, mup_report
from repro.analysis.sweep import (
    SensitivityReport,
    parse_tau_range,
    threshold_sensitivity,
)
from repro.core.coverage import CoverageOracle
from repro.core.engine import (
    AUTO,
    DEFAULT_SHARDS,
    ENGINES,
    CoverageEngine,
    EngineConfig,
    engine_name,
    plan_engine,
    resolve_engine,
)
from repro.core.enhancement.greedy import greedy_cover
from repro.core.enhancement.expansion import uncovered_at_level
from repro.core.enhancement.oracle import ValidationOracle, ValidationRule
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern_graph import PatternSpace
from repro.data.compas import load_compas
from repro.data.dataset import Dataset
from repro.exceptions import DataError, ReproError, ValidationError


def _read_header(reader, path: str) -> List[str]:
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path} is empty; expected a header row")
    return header


def _data_rows(reader, header: List[str], path: str) -> Iterator[List[str]]:
    """The non-blank rows after the header, each as wide as the header."""
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}, line {reader.line_num}: {len(row)} field(s) "
                f"where the header has {len(header)}"
            )
        yield row


def _load_csv(path: str, attributes: Optional[Sequence[str]]) -> Dataset:
    """Read an integer-coded CSV with a header row into a Dataset."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        rows = [
            [int(cell) for cell in row]
            for row in _data_rows(reader, header, path)
        ]
    dataset = Dataset.from_rows(rows, names=header)
    if attributes:
        dataset = dataset.project(list(attributes))
    return dataset


def _load_csv_numeric(
    path: str, column: str, attributes: Optional[Sequence[str]]
) -> tuple:
    """Read a CSV whose ``column`` is numeric (float), the rest int-coded.

    Returns ``(dataset, values)``: the categorical dataset without the
    numeric column, plus the numeric column as floats.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        if column not in header:
            raise ReproError(f"column {column!r} not in CSV header {header}")
        numeric = header.index(column)
        values: List[float] = []
        rows = []
        for row in _data_rows(reader, header, path):
            values.append(float(row[numeric]))
            rows.append(
                [int(cell) for i, cell in enumerate(row) if i != numeric]
            )
    names = [name for name in header if name != column]
    dataset = Dataset.from_rows(rows, names=names)
    if attributes:
        dataset = dataset.project(list(attributes))
    return dataset, values


def _parse_hierarchy_spec(dataset: Dataset, path: str) -> HierarchyStack:
    """Load a hierarchy-stack spec from a JSON file.

    Format: ``{"attr": [level, ...], ...}`` where each level maps the
    attribute's *base* codes to that level's groups — either a plain list
    of group codes or ``{"groups": [...], "labels": [...]}``.
    """
    from repro.data.hierarchy import AttributeHierarchy

    with open(path) as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict) or not spec:
        raise ReproError(
            "hierarchy spec must be a JSON object mapping attribute names "
            "to lists of levels"
        )
    chains = {}
    for name, levels in spec.items():
        chain = []
        for level in levels:
            if isinstance(level, dict):
                chain.append(
                    AttributeHierarchy.of(
                        name, level["groups"], level.get("labels")
                    )
                )
            else:
                chain.append(AttributeHierarchy.of(name, level))
        chains[name] = chain
    return HierarchyStack.of(dataset, chains)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="path to an integer-coded CSV file")
    parser.add_argument(
        "--attributes",
        nargs="+",
        help="attributes of interest (default: all columns)",
    )
    parser.add_argument(
        "--threshold", type=int, required=True, help="coverage threshold τ"
    )
    parser.add_argument(
        "--algorithm",
        default="deepdiver",
        choices=sorted(ALGORITHMS),
        help="MUP identification algorithm",
    )
    parser.add_argument(
        "--max-level", type=int, default=None, help="level cap for the search"
    )
    _add_engine_options(parser)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default=AUTO,
        choices=sorted(ENGINES) + [AUTO],
        help="coverage-engine backend (default 'auto': a workload-aware "
        "planner inspects the dataset and escalates dense -> packed -> "
        "sharded as the projected index grows); 'dense' uses unpacked "
        "boolean vectors (reference), 'packed' uses uint64 bitsets with "
        "word-level popcount (8x smaller index), 'sharded' partitions the "
        "packed index row-wise into spilled, mmap-streamed shards",
    )
    parser.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the engine plan (chosen backend + rationale) before "
        "running the command",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for --engine sharded (clamped to the number of "
        f"distinct value combinations; default {DEFAULT_SHARDS})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="spawn this many local socket workers for --engine sharded "
        "shard fan-out; 2 or more fans out (default: evaluate shards "
        "serially)",
    )
    parser.add_argument(
        "--worker-endpoints",
        nargs="+",
        metavar="HOST:PORT",
        default=None,
        help="fan --engine sharded shards out to these standing "
        "`repro-coverage worker` addresses instead of spawning --workers "
        "local workers",
    )
    parser.add_argument(
        "--delta-spill",
        action="store_true",
        default=None,
        help="let rebuilds over appended data reuse the spill directory "
        "via delta writes: unchanged shards are hard-linked, only dirty "
        "shards re-serialize",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        help="spill root for --engine sharded: shard blocks go into a unique "
        "subdirectory of this path and stream via mmap (removed when the "
        "run finishes; default $TMPDIR or /var/tmp); with --engine auto "
        "this forces the sharded backend",
    )
    parser.add_argument(
        "--max-resident-bytes",
        type=int,
        default=None,
        help="byte budget for resident mmap shard slices (with --engine "
        "auto this is the planner's memory budget — the planner goes "
        "out-of-core when the projected index exceeds it)",
    )


def _build_engine(
    args: argparse.Namespace, dataset: Dataset, hierarchy: bool = False
) -> CoverageEngine:
    """The engine selected by the CLI flags, built against ``dataset``.

    The flags are lifted into one declarative :class:`EngineConfig`
    (whose ``validate()`` holds every cross-flag rule — programmatic
    callers constructing configs get identical errors), planned when the
    backend is ``auto``, and built.  ``--explain-plan`` prints the plan's
    rationale before the command runs.  ``hierarchy`` plans with the
    hierarchical search's dense ceiling.
    """
    plan = plan_engine(
        dataset, EngineConfig.from_cli_args(args), hierarchy=hierarchy
    )
    if getattr(args, "explain_plan", False):
        print(plan.describe())
        print()
    # Unset options stay None in the plan; the backend constructors apply
    # their own defaults (e.g. an explicit --engine sharded without
    # --shards builds the stock shard count).
    return resolve_engine(plan.config, dataset)


@contextmanager
def _engine_scope(
    args: argparse.Namespace, dataset: Dataset, hierarchy: bool = False
) -> Iterator[CoverageEngine]:
    """Build the CLI-selected engine and close it when the command ends.

    Engines are closed explicitly so worker pools shut down and
    out-of-core spill directories are removed when the run finishes, not
    whenever GC gets around to it.
    """
    engine = _build_engine(args, dataset, hierarchy=hierarchy)
    try:
        yield engine
    finally:
        engine.close()


def _cmd_identify(args: argparse.Namespace) -> int:
    dataset = _load_csv(args.csv, args.attributes)
    with _engine_scope(args, dataset) as engine:
        # One oracle serves both the search and the report, so the inverted
        # index is built once.
        oracle = CoverageOracle(dataset, engine=engine)
        result = find_mups(
            dataset,
            threshold=args.threshold,
            algorithm=args.algorithm,
            max_level=args.max_level,
            oracle=oracle,
        )
        print(mup_report(dataset, result, limit=args.limit, oracle=oracle))
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    dataset = _load_csv(args.csv, args.attributes)
    with _engine_scope(args, dataset) as engine:
        label = coverage_label(
            dataset,
            threshold=args.threshold,
            algorithm=args.algorithm,
            max_level=args.max_level,
            engine=engine,
        )
        print(label.render())
    return 0


def _render_sensitivity(report: SensitivityReport, limit: int) -> str:
    """Plain-text sensitivity report: the τ curve, diffs, and breakpoints."""
    lines = [
        f"threshold sweep over τ ∈ [{report.thresholds[0]}, "
        f"{report.thresholds[-1]}] ({len(report.thresholds)} settings)",
        "",
    ]
    rows = []
    for tau in report.thresholds:
        rows.append(
            [
                tau,
                report.counts[tau],
                len(report.appeared.get(tau, ())),
                len(report.disappeared.get(tau, ())),
            ]
        )
    lines.append(
        format_table(["tau", "mups", "appeared", "disappeared"], rows)
    )
    if report.transitions:
        lines.append("")
        lines.append(f"τ* breakpoints (first {limit}):")
        rows = [
            [
                str(t.pattern),
                t.appears_at,
                "-" if t.disappears_above is None else t.disappears_above,
            ]
            for t in report.transitions[:limit]
        ]
        lines.append(
            format_table(["pattern", "appears at", "disappears above"], rows)
        )
        if len(report.transitions) > limit:
            lines.append(f"... {len(report.transitions) - limit} more")
    if report.bootstrap_replicates:
        lines.append("")
        lines.append(
            f"bootstrap support over {report.bootstrap_replicates} "
            f"replicates (seed {report.seed}):"
        )
        rows = []
        for tau in report.thresholds:
            table = report.support.get(tau, {})
            fragile = sum(1 for s in table.values() if s < 1.0)
            mean = (
                sum(table.values()) / len(table) if table else 1.0
            )
            rows.append(
                [
                    tau,
                    f"{mean:.2f}",
                    fragile,
                    f"{report.novel_rate.get(tau, 0.0):.1f}",
                ]
            )
        lines.append(
            format_table(
                ["tau", "mean support", "fragile mups", "novel/replicate"],
                rows,
            )
        )
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load_csv(args.csv, args.attributes)
    if args.tau_range is not None:
        thresholds = parse_tau_range(args.tau_range)
    else:
        thresholds = tuple(args.thresholds)
    with _engine_scope(args, dataset) as engine:
        oracle = CoverageOracle(dataset, engine=engine)
        report = threshold_sensitivity(
            dataset,
            thresholds,
            max_level=args.max_level,
            oracle=oracle,
            bootstrap=args.bootstrap,
            seed=args.seed,
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(_render_sensitivity(report, limit=args.limit))
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.analysis.hierarchy import find_mups_hierarchical

    dataset = _load_csv(args.csv, args.attributes)
    stack = _parse_hierarchy_spec(dataset, args.hierarchy)
    with _engine_scope(args, dataset, hierarchy=True) as engine:
        oracle = CoverageOracle(dataset, engine=engine)
        result = find_mups_hierarchical(
            dataset,
            stack,
            threshold=args.threshold,
            max_level=args.max_level,
            oracle=oracle,
            remedies=not args.no_remedies,
        )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0
    rows = []
    for entry in reversed(result.levels):  # coarsest first, like the search
        mup_result = entry.result
        rows.append(
            [
                entry.level,
                "x".join(str(c) for c in entry.rollup.dataset.cardinalities),
                len(mup_result),
                mup_result.max_covered_level(entry.rollup.dataset.d),
                mup_result.stats.coverage_evaluations,
                mup_result.stats.pruned,
            ]
        )
    print(
        f"hierarchical MUP search, τ={result.threshold}, "
        f"{stack.depth + 1} levels (coarsest to finest):"
    )
    print(
        format_table(
            ["level", "cardinalities", "mups", "max covered", "evals", "pruned"],
            rows,
        )
    )
    if result.remedies:
        print()
        print(f"remedies by generalization (first {args.limit}):")
        for remedy in result.remedies[: args.limit]:
            print(f"  {remedy.describe(dataset.schema, stack)}")
        if len(result.remedies) > args.limit:
            print(f"  ... {len(result.remedies) - args.limit} more")
    return 0


def _cmd_bucketsweep(args: argparse.Namespace) -> int:
    from repro.analysis.hierarchy import bucketize_sweep, bucketized_dataset

    dataset, values = _load_csv_numeric(args.csv, args.column, args.attributes)
    counts = sorted(set(args.buckets))
    fine = bucketized_dataset(dataset, values, max(counts), name=args.column)
    with _engine_scope(args, fine, hierarchy=True) as engine:
        oracle = CoverageOracle(fine, engine=engine)
        result = bucketize_sweep(
            dataset,
            values,
            counts,
            threshold=args.threshold,
            name=args.column,
            oracle=oracle,
        )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"bucketization sweep over {args.column!r}, τ={result.threshold} "
        f"(one engine over {max(counts)} buckets, counts shared downward):"
    )
    rows = [
        [
            point.buckets,
            point.cardinality,
            len(point.result),
            point.result.max_covered_level(dataset.d + 1),
            point.result.stats.coverage_evaluations,
            point.result.stats.pruned,
        ]
        for point in result.points
    ]
    print(
        format_table(
            ["buckets", "cardinality", "mups", "max covered", "evals", "pruned"],
            rows,
        )
    )
    return 0


def _parse_rules(dataset: Dataset, texts: Sequence[str]) -> ValidationOracle:
    """Parse ``--rule "attr=code,attr=code"`` forbidden conjunctions.

    Each ``--rule`` names one semantically impossible combination of
    attribute values (integer codes); any collection suggestion matching
    every clause of a rule is ruled out.
    """
    rules = []
    for text in texts:
        clauses = []
        for part in text.split(","):
            if "=" not in part:
                raise ValidationError(
                    f"bad rule clause {part!r}; expected attribute=code"
                )
            name, _, value = part.partition("=")
            attribute = dataset.schema.index_of(name.strip())
            clauses.append((attribute, [int(value)]))
        rules.append(ValidationRule(clauses))
    return ValidationOracle(rules)


def _cmd_enhance(args: argparse.Namespace) -> int:
    dataset = _load_csv(args.csv, args.attributes)
    with _engine_scope(args, dataset) as engine:
        engine_backend = engine_name(engine)
        result = find_mups(
            dataset,
            threshold=args.threshold,
            algorithm=args.algorithm,
            max_level=args.max_level,
            engine=engine,
        )
    space = PatternSpace.for_dataset(dataset)
    targets = uncovered_at_level(result.mups, space, args.level)
    validation = _parse_rules(dataset, args.rule or [])
    # The target index only needs the mask representation family, so the
    # planned engine's canonical name (not the dataset-bound instance)
    # configures it.
    plan = greedy_cover(targets, space, validation, engine=engine_backend)
    print(enhancement_report(dataset, plan))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    dataset = load_compas()
    with _engine_scope(args, dataset) as engine:
        oracle = CoverageOracle(dataset, engine=engine)
        result = find_mups(
            dataset,
            threshold=args.threshold,
            algorithm="deepdiver",
            oracle=oracle,
        )
        print(dataset.describe())
        print()
        print(mup_report(dataset, result, limit=args.limit, oracle=oracle))
    return 0


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=None, help="interface to bind (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8642; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help="coalescing window for point coverage queries: concurrent "
        "requests arriving within it merge into one batched engine pass "
        "and identical patterns share one query (default 2.0; 0 disables "
        "batching)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="flush a coalescing batch early at this many distinct "
        "patterns (default 1024)",
    )
    parser.add_argument(
        "--registry-entries",
        type=int,
        default=None,
        help="warm dataset engines kept before LRU eviction (default 8)",
    )
    parser.add_argument(
        "--registry-bytes",
        type=int,
        default=None,
        help="total index bytes the registry keeps warm (default 256 MiB)",
    )
    parser.add_argument(
        "--memory-budget-bytes",
        type=int,
        default=None,
        help="admission control: reject datasets whose planned engine "
        "projects a larger resident index (default: the planner's probed "
        "budget)",
    )
    parser.add_argument(
        "--latency-budget-ms",
        type=float,
        default=None,
        help="admission control: reject datasets whose projected "
        "single-scan latency exceeds this (default 250)",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="heavy requests (identify/enhance/deliver/register) running "
        "at once (default 8)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="heavy requests allowed to queue before 429 saturated "
        "rejections (default 64)",
    )
    parser.add_argument(
        "--result-cache",
        type=int,
        default=None,
        help="entries in the cross-request result cache (default 4096; "
        "0 disables)",
    )
    parser.add_argument(
        "--preload",
        action="append",
        metavar="CSV",
        default=None,
        help="register this integer-coded CSV — or an existing spill "
        "directory, attached warm instead of rebuilt — at startup "
        "(repeatable); the dataset key is printed before serving begins",
    )
    _add_engine_options(parser)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so `repro-coverage identify` and friends never pay for
    # the serving stack.
    from repro.serve.config import ServeConfig
    from repro.serve.http import HttpServer
    from repro.serve.service import CoverageService

    config = ServeConfig.from_cli_args(args)

    async def _serve() -> None:
        service = CoverageService(config)
        server = HttpServer(service)
        try:
            for path in args.preload or []:
                if os.path.isdir(path):
                    # A finished spill directory: attach the existing shard
                    # files (manifest-validated) instead of rebuilding.
                    report = await service.register_spill(path)
                else:
                    dataset = _load_csv(path, None)
                    report = await service.register_dataset(
                        dataset.rows.tolist(), names=list(dataset.schema.names)
                    )
                print(
                    f"preloaded {path}: dataset={report['dataset']} "
                    f"backend={report['backend']} rows={report['rows']}",
                    flush=True,
                )
            host, port = await server.start(config.host, config.port)
            print(
                f"repro serve: listening on http://{host}:{port}", flush=True
            )
            await server.serve_forever()
        finally:
            await server.stop()
            service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    # Imported here so the worker process stays lean and the other
    # subcommands never pay for the socket stack.
    from repro.core.engine.distributed import serve_worker

    try:
        serve_worker(args.host, args.port)
    except KeyboardInterrupt:
        print("repro worker: shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coverage",
        description="Assess and remedy coverage for a dataset (ICDE 2019).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    identify = commands.add_parser("identify", help="find maximal uncovered patterns")
    _add_common(identify)
    identify.add_argument("--limit", type=int, default=50, help="rows to print")
    identify.set_defaults(handler=_cmd_identify)

    label = commands.add_parser("label", help="print the coverage nutritional label")
    _add_common(label)
    label.set_defaults(handler=_cmd_label)

    enhance = commands.add_parser("enhance", help="plan additional data collection")
    _add_common(enhance)
    enhance.add_argument(
        "--level", type=int, required=True, help="target maximum covered level λ"
    )
    enhance.add_argument(
        "--rule",
        action="append",
        metavar="ATTR=CODE[,ATTR=CODE...]",
        help="forbidden value conjunction (repeatable); suggestions matching "
        "every clause are ruled out",
    )
    enhance.set_defaults(handler=_cmd_enhance)

    sweep = commands.add_parser(
        "sweep",
        help="amortized threshold sweep: MUP sets, Δτ diffs, and τ* "
        "breakpoints for an entire τ range in one traversal, with "
        "optional bootstrap stability",
    )
    sweep.add_argument("csv", help="path to an integer-coded CSV file")
    sweep.add_argument(
        "--attributes",
        nargs="+",
        help="attributes of interest (default: all columns)",
    )
    taus = sweep.add_mutually_exclusive_group(required=True)
    taus.add_argument(
        "--tau-range",
        metavar="LO:HI[:STEP]",
        help="inclusive τ range (also accepts a single τ or a comma list)",
    )
    taus.add_argument(
        "--thresholds",
        type=int,
        nargs="+",
        help="explicit τ settings",
    )
    sweep.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        help="bootstrap replicates for MUP stability (default 0: skip)",
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="bootstrap base seed"
    )
    sweep.add_argument(
        "--max-level", type=int, default=None, help="level cap for the sweep"
    )
    sweep.add_argument(
        "--limit", type=int, default=25, help="breakpoint rows to print"
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="emit the sensitivity report as JSON instead of tables",
    )
    _add_engine_options(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    hierarchy = commands.add_parser(
        "hierarchy",
        help="hierarchical MUP search over a stack of attribute "
        "generalization hierarchies: coarsest rollup first, drilling down "
        "only into uncovered regions, with per-MUP generalization remedies",
    )
    hierarchy.add_argument("csv", help="path to an integer-coded CSV file")
    hierarchy.add_argument(
        "--attributes",
        nargs="+",
        help="attributes of interest (default: all columns)",
    )
    hierarchy.add_argument(
        "--threshold", type=int, required=True, help="coverage threshold τ"
    )
    hierarchy.add_argument(
        "--hierarchy",
        required=True,
        metavar="SPEC.json",
        help="JSON hierarchy spec: {\"attr\": [level, ...]} where each "
        "level maps the attribute's base codes to group codes (a plain "
        "list, or {\"groups\": [...], \"labels\": [...]})",
    )
    hierarchy.add_argument(
        "--max-level", type=int, default=None, help="level cap per search"
    )
    hierarchy.add_argument(
        "--no-remedies",
        action="store_true",
        help="skip the most-specific-covered-generalization remedies",
    )
    hierarchy.add_argument(
        "--limit", type=int, default=25, help="remedy rows to print"
    )
    hierarchy.add_argument(
        "--json",
        action="store_true",
        help="emit the hierarchical result as JSON instead of tables",
    )
    _add_engine_options(hierarchy)
    hierarchy.set_defaults(handler=_cmd_hierarchy)

    bucketsweep = commands.add_parser(
        "bucketsweep",
        help="τ-coverage as a function of equal-width bucket count for a "
        "numeric column: one engine over the finest bucketization answers "
        "every coarser count through a shared count memo",
    )
    bucketsweep.add_argument(
        "csv", help="path to a CSV file with one numeric column"
    )
    bucketsweep.add_argument(
        "--attributes",
        nargs="+",
        help="categorical attributes of interest (default: all columns)",
    )
    bucketsweep.add_argument(
        "--column", required=True, help="name of the numeric column to sweep"
    )
    bucketsweep.add_argument(
        "--buckets",
        type=int,
        nargs="+",
        required=True,
        help="equal-width bucket counts (each >= 2, each dividing the "
        "largest so counts nest)",
    )
    bucketsweep.add_argument(
        "--threshold", type=int, required=True, help="coverage threshold τ"
    )
    bucketsweep.add_argument(
        "--json",
        action="store_true",
        help="emit the sweep as JSON instead of tables",
    )
    _add_engine_options(bucketsweep)
    bucketsweep.set_defaults(handler=_cmd_bucketsweep)

    demo = commands.add_parser("demo", help="COMPAS walk-through on bundled data")
    demo.add_argument("--threshold", type=int, default=10)
    demo.add_argument("--limit", type=int, default=20)
    _add_engine_options(demo)
    demo.set_defaults(handler=_cmd_demo)

    serve = commands.add_parser(
        "serve",
        help="run the persistent HTTP/JSON coverage service (identify / "
        "label / enhance / deliver endpoints with warm engines, request "
        "batching, and admission control)",
    )
    _add_serve_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    worker = commands.add_parser(
        "worker",
        help="run a standalone shard worker: serves per-shard coverage "
        "kernels over the length-prefixed socket protocol for "
        "coordinators started with --engine sharded --worker-endpoints "
        "HOST:PORT (prints `listening on host:port` once bound)",
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; use 0.0.0.0 to accept "
        "coordinators from other hosts)",
    )
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: kernel-assigned, printed at startup)",
    )
    worker.set_defaults(handler=_cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError, ValueError) as error:
        # ValidationError derives from ReproError; OSError/ValueError cover
        # unreadable or malformed CSV input.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
