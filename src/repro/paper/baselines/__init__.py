"""Baseline query-processing methods used throughout the evaluation."""

from repro.paper.baselines.boolean_first import BooleanFirstTopK
from repro.paper.baselines.rank_mapping import RankMappingTopK, optimal_range_bounds
from repro.paper.baselines.ranking_first import RankingFirstTopK
from repro.storage.table_scan import TableScanTopK, table_pages
from repro.paper.baselines.threshold_algorithm import (
    ThresholdAlgorithmTopK,
    build_dimension_trees,
)

__all__ = [
    "BooleanFirstTopK",
    "RankMappingTopK",
    "optimal_range_bounds",
    "RankingFirstTopK",
    "TableScanTopK",
    "table_pages",
    "ThresholdAlgorithmTopK",
    "build_dimension_trees",
]
