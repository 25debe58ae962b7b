"""Chapter 5: merging hierarchical indexes for high ranking dimensions."""

from repro.paper.indexmerge.bloom import BloomFilter
from repro.paper.indexmerge.engine import (
    MODE_BASELINE,
    MODE_PROGRESSIVE,
    MODE_SELECTIVE,
    MODES,
    IndexMergeTopK,
)
from repro.paper.indexmerge.expansion import (
    FullExpander,
    NeighborhoodExpander,
    StateExpander,
    ThresholdExpander,
    choose_expander,
)
from repro.paper.indexmerge.join_signature import (
    JoinSignature,
    JoinSignatureSet,
    JoinSignatureStats,
)
from repro.paper.indexmerge.state import JointState, MergeContext

__all__ = [
    "BloomFilter",
    "MODE_BASELINE",
    "MODE_PROGRESSIVE",
    "MODE_SELECTIVE",
    "MODES",
    "IndexMergeTopK",
    "FullExpander",
    "NeighborhoodExpander",
    "StateExpander",
    "ThresholdExpander",
    "choose_expander",
    "JoinSignature",
    "JoinSignatureSet",
    "JoinSignatureStats",
    "JointState",
    "MergeContext",
]
