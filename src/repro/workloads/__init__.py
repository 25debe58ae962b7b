"""Workload generators: synthetic datasets, query workloads, CoverType surrogate."""

from repro.workloads.covertype import (
    COVERTYPE_RANKING_CARDINALITIES,
    COVERTYPE_SELECTION_CARDINALITIES,
    make_covertype_like,
)
from repro.workloads.serving import (
    distinct_serving_queries,
    serving_client_queries,
)
from repro.workloads.sharded import (
    make_sharded_engine,
    pruned_predicate_queries,
)
from repro.workloads.synthetic import (
    DISTRIBUTIONS,
    QuerySpec,
    SyntheticSpec,
    generate_queries,
    generate_relation,
    make_ranking_function,
    random_predicate,
    ranking_dim_names,
    selection_dim_names,
)

__all__ = [
    "COVERTYPE_RANKING_CARDINALITIES",
    "COVERTYPE_SELECTION_CARDINALITIES",
    "make_covertype_like",
    "DISTRIBUTIONS",
    "QuerySpec",
    "SyntheticSpec",
    "distinct_serving_queries",
    "generate_queries",
    "generate_relation",
    "make_ranking_function",
    "make_sharded_engine",
    "pruned_predicate_queries",
    "random_predicate",
    "ranking_dim_names",
    "selection_dim_names",
    "serving_client_queries",
]
