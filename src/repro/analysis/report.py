"""Human-readable reports for MUP identification and enhancement runs.

The paper stresses the human-in-the-loop: a domain expert reads the MUPs,
marks the material ones, and reviews the acquisition plan.  These helpers
render both artefacts with attribute names and value labels so the expert
reads "race=hispanic, marital_status=widowed" rather than ``XX23``.
"""

from __future__ import annotations

from typing import Optional

from repro._util import format_table
from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.enhancement.greedy import EnhancementResult
from repro.core.mups.base import MupResult
from repro.data.dataset import Dataset


def mup_report(
    dataset: Dataset,
    result: MupResult,
    limit: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
) -> str:
    """Tabulate a MUP identification result.

    Columns: the compact pattern, its level, its actual coverage, and the
    human-readable description.  ``oracle`` must index ``dataset`` itself;
    with none, one is built over ``engine``.
    """
    oracle = oracle_for(dataset, oracle, engine)
    ranked = sorted(result.mups, key=lambda p: (p.level, p.values))
    if limit is not None:
        ranked = ranked[:limit]
    coverages = oracle.coverage_many(ranked)
    rows = []
    for pattern, coverage in zip(ranked, coverages):
        rows.append(
            (
                str(pattern),
                pattern.level,
                int(coverage),
                pattern.describe(dataset.schema),
            )
        )
    header = (
        f"{len(result)} maximal uncovered pattern(s) at τ={result.threshold} "
        f"(showing {len(rows)})\n"
    )
    return header + format_table(["pattern", "level", "coverage", "meaning"], rows)


def enhancement_report(
    dataset: Dataset,
    result: EnhancementResult,
) -> str:
    """Tabulate an acquisition plan: combination, generalized pattern."""
    rows = []
    for combo, general in zip(result.combinations, result.generalized):
        rendered = ", ".join(
            f"{dataset.schema.names[i]}={dataset.schema.value_label(i, v)}"
            for i, v in enumerate(combo)
        )
        rows.append((str(general), rendered))
    header = (
        f"Acquisition plan: {len(result.combinations)} combination(s) to hit "
        f"{result.targets} target pattern(s)\n"
    )
    body = format_table(["collect any of", "example tuple"], rows)
    if result.unhittable:
        body += (
            f"\nWARNING: {len(result.unhittable)} target(s) ruled out by the "
            f"validation oracle: "
            + ", ".join(str(p) for p in result.unhittable[:10])
        )
    return header + body
