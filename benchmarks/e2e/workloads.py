"""The four workloads: stack shapes and seeded op streams.

Each workload pairs a stack (relation size, sharding, which backends are
built) with an op generator.  Ops are drawn i.i.d. from the run seed
*before* timing; the program under test only ever sees the generated
queries.  Structure that decides which latency class an op falls in
(skylines in ``sweep_heavy``, inserts in ``write_mix``) sits at fixed
stream positions, so p50 and p95 each stay inside one op class for every
seed instead of wandering across a class border.

All relations are synthetic with S=3 selection dims of cardinality 8 and
R=2 ranking dims (``DATA_SEED`` fixed; only the query stream follows
``--seed``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine import Executor
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import skewed_linear_function
from repro.net.protocol import encode_query
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation, make_sharded_engine

DATA_SEED = 61
BLOCK_SIZE = 200
CARDINALITY = 8

#: Seed reserved for claims made by later issues: develop against any
#: other seed, then show the claim also holds on this one.
HELD_OUT_SEED = 977

GRID_ONLY = {"with_signature": False, "with_skyline": False}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a read request or an insert."""

    kind: str  # "query" | "batch" | "insert"
    queries: Tuple = ()
    row: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    tuples: int
    ops_per_pass: int
    #: Ops between two yardstick samples (about 40 ms of requests).
    yardstick_every: int
    #: ``(oracle, rng, count, run seed) -> ops``
    make_ops: Callable[[object, np.random.Generator, int, int], List[Op]]
    #: ``(oracle, run seed) -> ops`` issued ahead of the warm-up pass.
    prelude: Optional[Callable[[object, int], List[Op]]] = None
    shards: int = 0
    range_dim: Optional[str] = None
    stack: Mapping[str, object] = field(default_factory=dict)

    @property
    def sharded(self) -> bool:
        return self.shards > 0


@dataclass
class Stack:
    """The in-process engine under the service: what ``build`` returns."""

    relation: object
    engine: object
    manager: object = None

    def executors(self) -> List[Executor]:
        """Every built single-relation ``Executor`` in the stack."""
        if self.manager is None:
            return [self.engine]
        return list(self.manager.built_executors().values())


def build(workload: Workload, tuples: Optional[int] = None) -> Stack:
    """Relation + every index the workload queries, fully built."""
    relation = generate_relation(SyntheticSpec(
        num_tuples=tuples or workload.tuples, num_selection_dims=3,
        num_ranking_dims=2, cardinality=CARDINALITY, seed=DATA_SEED))
    if not workload.sharded:
        engine = Executor.for_relation(relation, block_size=BLOCK_SIZE,
                                       **workload.stack)
        return Stack(relation, engine)
    manager, engine = make_sharded_engine(
        relation, workload.shards, range_dim=workload.range_dim,
        block_size=BLOCK_SIZE, **workload.stack)
    for shard in manager.shards:
        # Shard stacks are lazy; build them here so construction is
        # charged to set-up, not to whichever request touches a shard
        # first.
        manager.executor_for(shard)
    return Stack(relation, engine, manager)


# ----------------------------------------------------------------------
# query pieces
# ----------------------------------------------------------------------
def _predicate(rng: np.random.Generator, oracle, count: int) -> Predicate:
    """``count`` equality conditions whose values one base tuple carries."""
    if count == 0:
        return Predicate.of()
    dims = rng.choice(len(oracle.selection_dims), size=count, replace=False)
    tid = int(rng.integers(0, oracle.base_rows))
    return Predicate.of({oracle.selection_dims[int(d)]:
                         int(oracle.selection[tid, int(d)]) for d in dims})


def _linear(rng: np.random.Generator, oracle):
    """A fresh skewed linear function: never equal to an earlier one, so
    no result-cache entry can answer it."""
    return skewed_linear_function(list(oracle.ranking_dims),
                                  float(rng.uniform(1.0, 3.0)), rng=rng)


def _point_query(rng: np.random.Generator, oracle) -> TopKQuery:
    return TopKQuery(_predicate(rng, oracle, int(rng.integers(1, 3))),
                     _linear(rng, oracle), int(rng.choice([5, 10, 20])))


# ----------------------------------------------------------------------
# op streams
# ----------------------------------------------------------------------
def _wire_point_ops(oracle, rng, count, seed) -> List[Op]:
    return [Op("query", (_point_query(rng, oracle),)) for _ in range(count)]


def _sweep_heavy_ops(oracle, rng, count, seed) -> List[Op]:
    dims = list(oracle.ranking_dims)
    ops = []
    for position in range(count):
        if position % 5 == 4:  # the skyline class: exactly 20% of ops
            targets = (tuple(float(v) for v in rng.random(len(dims)))
                       if rng.random() < 0.5 else None)
            query = SkylineQuery(
                _predicate(rng, oracle, int(rng.integers(1, 3))),
                tuple(dims), targets=targets)
        else:
            if rng.random() < 0.5:
                function = SquaredDistanceFunction(
                    dims, [float(v) for v in rng.random(len(dims))])
            else:
                function = _linear(rng, oracle)
            query = TopKQuery(_predicate(rng, oracle, int(rng.integers(0, 2))),
                              function, int(rng.choice([200, 500])))
        ops.append(Op("query", (query,)))
    return ops


BATCH = 16


def _shard_fused_ops(oracle, rng, count, seed) -> List[Op]:
    ops = []
    for _ in range(count):
        functions = [_linear(rng, oracle), _linear(rng, oracle)]
        ops.append(Op("batch", tuple(
            TopKQuery(_predicate(rng, oracle, int(rng.integers(0, 3))),
                      functions[int(rng.integers(0, 2))],
                      int(rng.choice([1, 5, 10, 20, 50])))
            for _ in range(BATCH))))
    return ops


HOT_POOL = 64
HOT_FUNCTIONS = 4
ZIPF_EXPONENT = 1.3
HOT_SHARE = 0.85


def hot_pool(oracle, seed: int) -> List[TopKQuery]:
    """The ``write_mix`` hot set: 64 queries over 4 shared functions."""
    rng = np.random.default_rng([seed, 10 ** 6])
    functions = [_linear(rng, oracle) for _ in range(HOT_FUNCTIONS)]
    # Two conditions each: an inserted row matches (and so evicts) a hot
    # entry once in 64 inserts, which keeps the pool hot under writes.
    return [TopKQuery(_predicate(rng, oracle, 2),
                      functions[i % HOT_FUNCTIONS],
                      int(rng.choice([5, 10, 20])))
            for i in range(HOT_POOL)]


def random_row(oracle, rng: np.random.Generator) -> Dict[str, object]:
    """One insertable row: uniform selection codes, uniform ranking values."""
    row: Dict[str, object] = {dim: int(rng.integers(0, CARDINALITY))
                              for dim in oracle.selection_dims}
    row.update({dim: float(rng.random()) for dim in oracle.ranking_dims})
    return row


def _hot_pool_once(oracle, seed: int) -> List[Op]:
    """Every hot query once, so the measured passes start with the pool
    cached and the hit share does not climb from pass to pass."""
    return [Op("query", (query,)) for query in hot_pool(oracle, seed)]


def _write_mix_ops(oracle, rng, count, seed) -> List[Op]:
    """Cycles of 8: one fresh read (it misses every cache, so it pays the
    rebuild the previous cycle's insert left behind), six reads drawn 85%
    from the hot pool, one insert.  Fixed positions keep the rebuild class
    at exactly 1/7 of the reads and the cache-hit class near 70%."""
    pool = hot_pool(oracle, seed)
    weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    ops = []
    for position in range(count):
        if position % 8 == 7:
            ops.append(Op("insert", row=random_row(oracle, rng)))
        elif position % 8 == 0 or rng.random() >= HOT_SHARE:
            ops.append(Op("query", (_point_query(rng, oracle),)))
        else:
            ops.append(Op("query",
                          (pool[int(rng.choice(HOT_POOL, p=weights))],)))
    return ops


def pass_ops(workload: Workload, oracle, seed: int, index: int,
             count: Optional[int] = None) -> List[Op]:
    """Ops of pass ``index`` under run seed ``seed`` (pure in its inputs);
    pass 0 is the warm-up."""
    rng = np.random.default_rng([seed, index])
    ops = workload.make_ops(oracle, rng, count or workload.ops_per_pass, seed)
    if index == 0 and workload.prelude is not None:
        ops = workload.prelude(oracle, seed) + ops
    return ops


def encode_ops(ops: List[Op]) -> bytes:
    """Canonical bytes of an op stream (what ``test_e2e`` compares)."""
    return json.dumps([
        {"kind": op.kind, "row": op.row,
         "queries": [encode_query(q) for q in op.queries]}
        for op in ops], sort_keys=True).encode("utf-8")


#: Why each workload exists is recorded once, in ``BENCHMARK.json`` (one
#: line) and ``README.md`` (in full); pass sizes aim at about a second.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="wire_point", tuples=50_000, ops_per_pass=400,
             yardstick_every=20, make_ops=_wire_point_ops, stack=GRID_ONLY),
    Workload(name="sweep_heavy", tuples=20_000, ops_per_pass=200,
             yardstick_every=10, make_ops=_sweep_heavy_ops),
    Workload(name="shard_fused", tuples=60_000, ops_per_pass=64,
             yardstick_every=2, make_ops=_shard_fused_ops,
             shards=4, range_dim="A1", stack=GRID_ONLY),
    Workload(name="write_mix", tuples=8_000, ops_per_pass=64,
             yardstick_every=8, make_ops=_write_mix_ops,
             prelude=_hot_pool_once, shards=4, stack=GRID_ONLY),
)}
