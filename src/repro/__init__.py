"""repro — a full reproduction of the Ranking-Cube methodology (ICDE 2007).

The package integrates OLAP-style multi-dimensional selections with ad-hoc
top-k ranking through semi off-line materialization and semi on-line
computation, following Dong Xin's thesis "Integrating OLAP and Ranking: The
Ranking-Cube Methodology".

Sub-packages
------------
Served — what a request entering through ``repro.net`` can reach:

``repro.storage``
    Simulated paged storage, buffer pool, relations, table scan.
``repro.functions``
    Ranking functions with box lower bounds (linear, distance, expression).
``repro.partition``
    Equi-depth / equi-width grid partitioning with pseudo blocks.
``repro.cube``
    Chapter 3: the grid ranking cube and ranking fragments.
``repro.skyline``
    Chapter 7: the boolean-first skyline and the dominance kernels.
``repro.engine``
    The unified query-engine layer: a registry of named backends over the
    above, an explainable planner, and the ``Executor`` front door with
    batch execution and a shared lower-bound cache.
``repro.shard`` / ``repro.fault`` / ``repro.serve`` / ``repro.net`` / ``repro.obs``
    Scatter/gather over shards, the fault guard around its legs, the async
    micro-batching service, the HTTP tier, metrics and tracing.
``repro.workloads``
    Synthetic data / query generators and the CoverType-like surrogate.

``repro.paper`` — figures only; imports the above, never the reverse:

``repro.paper.signature`` / ``repro.paper.rtree`` / ``repro.paper.skyline``
    Chapter 4: signature measures, compression, the signature ranking cube
    over its R-tree, incremental maintenance and branch-and-bound query
    processing; Chapter 7's BBS skyline and drill-down sessions over it.
``repro.paper.stack``
    Registers the signature cube and BBS on an ``Executor`` (the served
    stack is the grid cube, the table scan and the boolean-first skyline).
``repro.paper.indexmerge``
    Chapter 5: progressive and selective merging of hierarchical indexes.
``repro.paper.joins``
    Chapter 6: SPJR (select-project-join-rank) queries over multiple relations.
``repro.paper.baselines`` / ``repro.paper.btree`` / ``repro.paper.bitmap``
    The comparison methods of the evaluation (boolean-first, ranking-first,
    rank mapping, threshold algorithm) and the indexes only they read.
``repro.paper.bench``
    The experiment harness regenerating every figure and table.
"""

from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.storage.table import Relation, Schema

__version__ = "1.0.0"

__all__ = [
    "Predicate",
    "QueryResult",
    "SkylineQuery",
    "TopKQuery",
    "Relation",
    "Schema",
    "__version__",
]
