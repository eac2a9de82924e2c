"""repro — a reproduction of *Assessing and Remedying Coverage for a Given
Dataset* (Asudeh, Jin, Jagadish; ICDE 2019).

The public API re-exports the pieces a typical user needs:

* build a :class:`~repro.data.Dataset` over categorical attributes;
* identify the maximal uncovered patterns with :func:`find_mups`
  (PATTERN-BREAKER, PATTERN-COMBINER, DEEPDIVER, plus naive and APRIORI
  baselines);
* plan the minimum additional data collection with
  :func:`~repro.core.enhancement.greedy.enhance_coverage`, optionally
  constrained by a :class:`~repro.core.enhancement.ValidationOracle`;
* print the coverage widget of a dataset nutritional label with
  :func:`~repro.analysis.coverage_label`.

Quickstart::

    from repro import Dataset, find_mups

    data = Dataset.from_rows([[0, 1, 0], [0, 0, 1], ...])
    result = find_mups(data, threshold=5)
    for mup in result:
        print(mup, mup.describe(data.schema))
"""

from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.core.engine import ENGINES, CoverageEngine
from repro.core.coverage import CoverageOracle, coverage_scan, max_covered_level
from repro.core.dominance import MupDominanceIndex
from repro.core.mups import (
    MupResult,
    find_mups,
    naive_mups,
    pattern_breaker,
    pattern_combiner,
    deepdiver,
    apriori_mups,
)
from repro.core.incremental import IncrementalMupIndex
from repro.core.enhancement import (
    EnhancementResult,
    ValidationOracle,
    ValidationRule,
    enhance_coverage,
    greedy_cover,
    naive_greedy_cover,
    targets_by_value_count,
    uncovered_at_level,
)
from repro.data import Dataset, Schema
from repro.analysis import coverage_label, mup_report, enhancement_report
from repro.analysis.hierarchy import (
    HierarchyStack,
    bucketize_sweep,
    find_mups_hierarchical,
)

__version__ = "1.0.0"

__all__ = [
    "Pattern",
    "X",
    "PatternSpace",
    "CoverageEngine",
    "ENGINES",
    "CoverageOracle",
    "coverage_scan",
    "max_covered_level",
    "MupDominanceIndex",
    "MupResult",
    "IncrementalMupIndex",
    "find_mups",
    "naive_mups",
    "pattern_breaker",
    "pattern_combiner",
    "deepdiver",
    "apriori_mups",
    "EnhancementResult",
    "ValidationOracle",
    "ValidationRule",
    "enhance_coverage",
    "greedy_cover",
    "naive_greedy_cover",
    "targets_by_value_count",
    "uncovered_at_level",
    "Dataset",
    "Schema",
    "coverage_label",
    "mup_report",
    "enhancement_report",
    "HierarchyStack",
    "find_mups_hierarchical",
    "bucketize_sweep",
    "__version__",
]
