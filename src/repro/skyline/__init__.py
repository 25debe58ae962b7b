"""Chapter 7: skyline and dynamic-skyline queries with boolean predicates.

The served skyline is the boolean-first scan; the signature-pruned BBS
engine is a figure subject in :mod:`repro.paper.skyline`.
"""

from repro.skyline.dominance import dominated_by_any, dominates, skyline_rows
from repro.skyline.engine import BooleanFirstSkyline, SkylineResult

__all__ = [
    "dominated_by_any",
    "dominates",
    "skyline_rows",
    "BooleanFirstSkyline",
    "SkylineResult",
]
