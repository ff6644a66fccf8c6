"""Analysis helpers: the effectiveness study."""

from .effectiveness import PatternCounts, count_patterns, count_patterns_for_scenario

__all__ = [
    "PatternCounts",
    "count_patterns",
    "count_patterns_for_scenario",
]
