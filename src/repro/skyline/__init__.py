"""Chapter 7: skyline and dynamic-skyline queries with boolean predicates."""

from repro.skyline.dominance import dominated_by_any, dominates, skyline_rows
from repro.skyline.engine import (
    BooleanFirstSkyline,
    SkylineEngine,
    SkylineResult,
    SkylineSession,
)

__all__ = [
    "dominated_by_any",
    "dominates",
    "skyline_rows",
    "BooleanFirstSkyline",
    "SkylineEngine",
    "SkylineResult",
    "SkylineSession",
]
