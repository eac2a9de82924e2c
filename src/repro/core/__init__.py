"""Core contribution of the paper: pattern algebra, the pattern graph,
coverage computation (over pluggable engines), MUP identification, and
coverage enhancement.
"""

from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.core.engine import (
    ENGINES,
    CoverageEngine,
    PackedBitsetEngine,
    resolve_engine,
)
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.dominance import MupDominanceIndex

__all__ = [
    "Pattern",
    "X",
    "PatternSpace",
    "CoverageEngine",
    "PackedBitsetEngine",
    "ENGINES",
    "resolve_engine",
    "CoverageOracle",
    "coverage_scan",
    "MupDominanceIndex",
]
