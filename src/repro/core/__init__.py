"""Core contribution of the paper: pattern algebra, the pattern graph,
coverage computation (Appendix A's packed index), MUP identification, and
coverage enhancement.
"""

from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.core.engine import ENGINES, CoverageEngine
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.dominance import MupDominanceIndex

__all__ = [
    "Pattern",
    "X",
    "PatternSpace",
    "CoverageEngine",
    "ENGINES",
    "CoverageOracle",
    "coverage_scan",
    "MupDominanceIndex",
]
