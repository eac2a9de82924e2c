"""Engine-free references for the engine test suites.

None of these share code with a coverage engine, so a backend is checked
against them rather than against another backend:

* :func:`repro.core.coverage.coverage_scan` — Definition 2 as one pass
  over the raw rows;
* :func:`row_match` — a numpy match of a pattern against the dataset's
  unique rows, the row set every engine mask ranges over;
* :func:`scan_mups` — Definition 4 over every pattern of a small space,
  counted by the row scan.
"""

from __future__ import annotations

import numpy as np

from repro.core.coverage import coverage_scan
from repro.core.pattern_graph import PatternSpace


def row_match(dataset, pattern) -> np.ndarray:
    """Boolean vector over ``dataset.unique_rows()``: the rows matching
    ``pattern`` (what ``mask_to_bool`` of its match mask must equal)."""
    unique, _ = dataset.unique_rows()
    values = np.asarray(pattern.values, dtype=np.int64)
    fixed = values >= 0
    return (unique[:, fixed] == values[fixed]).all(axis=1)


def scan_mups(dataset, threshold) -> frozenset:
    """The maximal uncovered patterns by definition: every uncovered
    pattern whose parents are all covered (brute force, small spaces)."""
    coverage = {
        pattern: coverage_scan(dataset, pattern)
        for pattern in PatternSpace.for_dataset(dataset).all_patterns()
    }
    return frozenset(
        pattern
        for pattern, count in coverage.items()
        if count < threshold
        and all(coverage[parent] >= threshold for parent in pattern.parents())
    )
