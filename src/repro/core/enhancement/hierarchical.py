"""Hierarchy-aware coverage enhancement: generalize or acquire.

The paper's Problem 2 remedies a MUP by *acquiring* rows.  With attribute
generalization hierarchies in play there is a second remedy that costs no
data collection at all: report the attribute at a coarser level (ZIP →
county → state) so the region's pooled coverage clears τ.  This module
holds the remedy record produced by the hierarchical MUP search
(:mod:`repro.analysis.hierarchy`) and the cost model that decides, per
MUP, between generalizing and acquiring — routing the acquisition share
through the existing greedy hitting set so shared combinations are still
exploited.

Layering note: this module is analysis-agnostic — it defines the remedy
type and consumes precomputed remedies, so ``analysis.hierarchy`` can
import *from* it without a core → analysis cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.enhancement.greedy import EnhancementResult, greedy_cover
from repro.core.enhancement.oracle import ValidationOracle
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.exceptions import EnhancementError

__all__ = [
    "GeneralizationRemedy",
    "HierarchicalEnhancementPlan",
    "plan_hierarchical_enhancement",
]


@dataclass(frozen=True)
class GeneralizationRemedy:
    """The most *specific covered generalization* of a MUP.

    Attributes:
        mup: the (finest-level) maximal uncovered pattern.
        generalized: the closest covered pattern reachable by climbing
            attribute hierarchies (values are codes at the per-attribute
            levels recorded in ``levels``); ``None`` when no generalization
            is covered (only possible when the dataset itself is smaller
            than τ).
        levels: per attribute, how many hierarchy levels the value climbed
            (0 = untouched; one past the top of the chain = widened to
            ``X``).
        coverage: pooled coverage of ``generalized`` on the base dataset.
        steps: total generalization steps taken (``sum(levels)``).
    """

    mup: Pattern
    generalized: Optional[Pattern]
    levels: Tuple[int, ...]
    coverage: int
    steps: int

    @property
    def found(self) -> bool:
        return self.generalized is not None

    def as_dict(self) -> Dict[str, object]:
        return {
            "mup": list(self.mup.values),
            "generalized": (
                list(self.generalized.values) if self.found else None
            ),
            "levels": list(self.levels),
            "coverage": self.coverage,
            "steps": self.steps,
        }

    def describe(self, schema, stack=None) -> str:
        """Human-readable remedy, e.g. ``state=MI -> region=midwest``."""
        if not self.found:
            return f"{self.mup.describe(schema)}: no covered generalization"
        parts: List[str] = []
        for index, value in enumerate(self.generalized.values):
            if self.mup[index] == X:
                continue
            name = schema.names[index]
            level = self.levels[index]
            if value == X:
                parts.append(f"{name}=*")
            elif level == 0:
                parts.append(f"{name}={schema.value_label(index, value)}")
            else:
                label = str(value)
                if stack is not None:
                    chain = stack.chains.get(index, ())
                    if level <= len(chain) and chain[level - 1].group_labels:
                        label = chain[level - 1].group_labels[value]
                parts.append(f"{name}={label}@L{level}")
        rendered = ", ".join(parts) if parts else "(root)"
        return (
            f"{self.mup.describe(schema)} -> generalize to [{rendered}] "
            f"(coverage {self.coverage}, {self.steps} step(s))"
        )


@dataclass(frozen=True)
class HierarchicalEnhancementPlan:
    """Per-MUP generalize-vs-acquire decisions plus the pooled acquisition.

    Attributes:
        threshold: the coverage threshold τ the plan restores.
        generalizations: MUPs remedied by climbing hierarchies, cheapest
            first.
        acquired: MUPs routed to row acquisition.
        acquisition: greedy hitting-set result over ``acquired`` (``None``
            when nothing needs acquiring).
        generalization_cost: total cost of the generalization share.
        acquisition_cost: total cost of the acquisition share (per-MUP
            deficit × row cost; an upper bound — one acquired combination
            can serve several targets).
    """

    threshold: int
    generalizations: Tuple[GeneralizationRemedy, ...]
    acquired: Tuple[Pattern, ...]
    acquisition: Optional[EnhancementResult]
    generalization_cost: float
    acquisition_cost: float

    @property
    def total_cost(self) -> float:
        return self.generalization_cost + self.acquisition_cost

    def as_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "generalizations": [r.as_dict() for r in self.generalizations],
            "acquired": [list(p.values) for p in self.acquired],
            "combinations": (
                [list(c) for c in self.acquisition.combinations]
                if self.acquisition is not None
                else []
            ),
            "generalization_cost": self.generalization_cost,
            "acquisition_cost": self.acquisition_cost,
            "total_cost": self.total_cost,
        }


def plan_hierarchical_enhancement(
    dataset: Dataset,
    mups: Sequence[Pattern],
    remedies: Iterable[GeneralizationRemedy],
    threshold: int,
    row_cost: float = 1.0,
    step_cost: float = 1.0,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    validation: Optional[ValidationOracle] = None,
) -> HierarchicalEnhancementPlan:
    """Choose, per MUP, the cheaper of generalizing and acquiring rows.

    The cost model is deliberately simple and explicit: acquiring costs
    ``(τ - cov(MUP)) × row_cost`` (the deficit must be filled with matching
    rows), generalizing costs ``steps × step_cost`` (each hierarchy climb
    coarsens the report's resolution by one notch).  Ties go to
    generalization — it needs no new data.  MUPs routed to acquisition are
    pooled into one :func:`greedy_cover` run so combinations hitting
    several targets are still shared.

    Args:
        dataset: the base (finest-level) dataset.
        mups: the finest-level MUPs to remedy.
        remedies: precomputed :class:`GeneralizationRemedy` records (from
            ``find_mups_hierarchical``); MUPs without a usable remedy are
            acquired.
        threshold: absolute τ.
        row_cost: cost of collecting one matching row.
        step_cost: cost of coarsening an attribute by one hierarchy level.
        oracle: optional warm oracle over ``dataset`` itself.
        engine: engine spec for the oracle when none is given.
        validation: validation oracle forwarded to the greedy hitting set.
    """
    if row_cost <= 0 or step_cost <= 0:
        raise EnhancementError(
            f"costs must be positive (row_cost={row_cost}, "
            f"step_cost={step_cost})"
        )
    oracle = oracle_for(dataset, oracle, engine)
    by_mup: Mapping[Pattern, GeneralizationRemedy] = {
        remedy.mup: remedy for remedy in remedies
    }
    coverages = oracle.coverage_many(list(mups))
    generalizations: List[GeneralizationRemedy] = []
    acquired: List[Pattern] = []
    generalization_cost = 0.0
    acquisition_cost = 0.0
    for mup, coverage in zip(mups, coverages):
        deficit = max(0, threshold - int(coverage))
        acquire = deficit * row_cost
        remedy = by_mup.get(mup)
        if remedy is not None and remedy.found and remedy.steps * step_cost <= acquire:
            generalizations.append(remedy)
            generalization_cost += remedy.steps * step_cost
        else:
            acquired.append(mup)
            acquisition_cost += acquire
    generalizations.sort(key=lambda r: (r.steps, r.mup))
    acquisition = None
    if acquired:
        acquisition = greedy_cover(
            acquired, PatternSpace.for_dataset(dataset), validation=validation
        )
    return HierarchicalEnhancementPlan(
        threshold=threshold,
        generalizations=tuple(generalizations),
        acquired=tuple(acquired),
        acquisition=acquisition,
        generalization_cost=generalization_cost,
        acquisition_cost=acquisition_cost,
    )
