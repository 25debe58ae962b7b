"""The signature cube and BBS as engine backends, for the figures and tests.

The served stack (:meth:`repro.engine.Executor.for_relation`) is the grid
ranking cube, the table scan and the boolean-first skyline.  The signature
ranking cube's top-k (Chapter 4) and the signature-pruned BBS skyline over
its R-tree (Chapter 7) are figure subjects: the planner never routed
either on the served cost model, and building them cost two thirds of a
stack's set-up.  :func:`register_paper_backends` puts them back on a built
:class:`~repro.engine.Executor`, where the planner prices them with
:class:`RTreeCostModel` against the served backends.

Neither absorbs inserts (``maintains_inserts`` is false):
:meth:`~repro.engine.Executor.insert` marks them ``stale``, the planner
skips them, and :meth:`~repro.shard.ShardManager.insert` drops a shard
stack holding them, to be rebuilt on its next leg.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.engine.backends import _predicate_valid
from repro.engine.cost import CostModel
from repro.engine.executor import Executor
from repro.engine.plan import KIND_SKYLINE, KIND_TOPK
from repro.engine.registry import Backend
from repro.paper.signature import SignatureRankingCube, SignatureTopKExecutor
from repro.paper.skyline import SkylineEngine
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.storage.table import Relation


class SignatureCubeBackend(Backend):
    """Signature ranking cube with branch-and-bound search (Chapter 4)."""

    kind = KIND_TOPK
    supports_fusion = True

    def __init__(self, executor, name: str = "signature-cube",
                 priority: int = 20) -> None:
        # ``executor`` is a repro.paper.signature.SignatureTopKExecutor.
        self.executor = executor
        self.cube = executor.cube
        self.name = name
        self.priority = priority

    @property
    def relation(self):
        return self.cube.relation

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        return {"access": "rtree", "granularity": self.cube.rtree.max_entries}

    def _covers_predicate(self, predicate: Predicate) -> bool:
        if predicate.is_empty():
            return True
        exact = tuple(sorted(predicate.dims))
        if any(tuple(sorted(dims)) == exact for dims in self.cube.cuboid_dims):
            return True
        return all((dim,) in self.cube.cuboid_dims for dim in predicate.dims)

    def supports(self, query) -> bool:
        if not isinstance(query, TopKQuery):
            return False
        if not _predicate_valid(query.predicate, self.cube.relation):
            return False
        if not all(dim in self.cube.rtree.dims for dim in query.function.dims):
            return False
        return self._covers_predicate(query.predicate)

    def plan_details(self, query) -> Dict[str, object]:
        return {"rtree_dims": ",".join(self.cube.rtree.dims)}

    def run(self, query):
        """A group of one through the traversal of :meth:`execute_batch`."""
        return self.executor.query(query)

    def execute_batch(self, queries) -> List:
        """One root-to-leaf traversal serves the whole group."""
        return self.executor.query_batch(list(queries))


class SkylineBackend(Backend):
    """Signature-pruned BBS skyline engine (Chapter 7)."""

    kind = KIND_SKYLINE

    def __init__(self, engine, name: str = "skyline", priority: int = 10) -> None:
        # ``engine`` is a repro.paper.skyline.SkylineEngine.
        self.engine = engine
        self.name = name
        self.priority = priority

    @property
    def relation(self):
        return self.engine.relation

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        return {"access": "rtree-skyline",
                "granularity": self.engine.rtree.max_entries}

    def supports(self, query) -> bool:
        if not isinstance(query, SkylineQuery):
            return False
        if not _predicate_valid(query.predicate, self.engine.relation):
            return False
        return all(dim in self.engine.rtree.dims for dim in query.preference_dims)

    def plan_details(self, query) -> Dict[str, object]:
        return {
            "dynamic": query.is_dynamic,
            "signature_pruning": self.engine.use_signature,
        }

    def run(self, query):
        return self.engine.query(query)


class RTreeCostModel(CostModel):
    """:class:`~repro.engine.cost.CostModel` plus the R-tree's two accesses.

    * **signature R-tree top-k** (fanout ``f``, depth ``log_f N``) — when
      ``m <= k`` about ``m * depth`` node touches (signatures prune
      match-free subtrees, so an absent value costs one root test);
      otherwise about ``ceil(F * k / (f * selectivity))`` leaves plus the
      path down, each leaf paying ``f`` signature tests and scoring its
      matches;
    * **BBS skyline** — ``node_touch_cost * depth`` per estimated skyline
      point, ``(log2 m)^(d-1)``.

    The defaults are times, fitted together with the served model's
    before the R-tree left the served stack; the :attr:`PAPER` entries are
    the first planner's work counts.
    """

    #: Cost of expanding one R-tree node (page read + child bounds).
    node_touch_cost = 530.0
    #: Cost of one per-entry signature test.
    signature_test_cost = 100.0
    #: Fixed cost of one R-tree top-k (the fit finds none for BBS).
    rtree_query_cost = 23000.0

    PAPER = {**CostModel.PAPER, "node_touch_cost": 32.0,
             "signature_test_cost": 0.5, "rtree_query_cost": 0.0}
    TUNABLE = (*PAPER, "unit_seconds")

    _ESTIMATOR_NAMES: Dict[str, str] = {
        **CostModel._ESTIMATOR_NAMES,
        "rtree": "_rtree_topk",
        "rtree-skyline": "_rtree_skyline",
    }

    def _rtree_topk(self, profile, query, stats, selectivity, matches):
        fanout = max(2, int(profile.get("granularity", 2)))
        depth = self._tree_depth(stats.num_tuples, fanout)
        leaves_total = max(1, math.ceil(stats.num_tuples / fanout))
        nodes_total = leaves_total + max(1, leaves_total // max(1, fanout - 1))
        factor = self.shape_factor(query.function)
        if matches <= query.k:
            # Signatures prune match-free subtrees: roughly one root-to-leaf
            # path per match (an absent value costs a single root test).
            nodes = min(matches * depth, float(nodes_total))
            cost = (self.node_touch_cost * (1.0 + nodes)
                    + self.score_cost * matches)
        else:
            per_leaf = fanout * selectivity
            leaves_needed = min(leaves_total,
                                math.ceil(factor * query.k / per_leaf))
            cost = (self.node_touch_cost * (depth + leaves_needed)
                    + leaves_needed * (self.score_cost * per_leaf
                                       + self.signature_test_cost * fanout))
        cost += self.rtree_query_cost
        return cost, {"access": "rtree", "fanout": fanout, "depth": depth}

    def _rtree_skyline(self, profile, query, stats, selectivity, matches):
        fanout = max(2, int(profile.get("granularity", 2)))
        depth = self._tree_depth(stats.num_tuples, fanout)
        points = self._skyline_points(matches, len(query.preference_dims))
        cost = self.node_touch_cost * depth * (1.0 + points)
        return cost, {"access": "rtree-skyline", "fanout": fanout,
                      "estimated_skyline_points": float(points)}

    @staticmethod
    def _tree_depth(num_tuples: int, fanout: int) -> int:
        if num_tuples <= 1:
            return 1
        return max(1, math.ceil(math.log(num_tuples) / math.log(fanout)))


def register_paper_backends(executor: Executor, relation: Relation, *,
                            rtree_max_entries: int = 32
                            ) -> SignatureRankingCube:
    """Register the signature cube's top-k and BBS on ``executor``.

    Both run over *one* :class:`~repro.paper.signature.SignatureRankingCube`
    (one R-tree of fanout ``rtree_max_entries``, one signature store),
    built here once and returned.  The planner's cost model becomes
    :func:`rtree_cost_model` of the one it had.
    """
    model = rtree_cost_model(executor.cost_model)
    cube = SignatureRankingCube(relation, rtree_max_entries=rtree_max_entries)
    executor.register(SignatureCubeBackend(SignatureTopKExecutor(cube)))
    executor.register(SkylineBackend(SkylineEngine(cube)))
    executor.planner.cost_model = model
    return cube


def rtree_cost_model(model: CostModel) -> RTreeCostModel:
    """``model`` with R-tree constants in the same units.

    An :class:`RTreeCostModel` is kept as it is.  A plain
    :class:`~repro.engine.cost.CostModel` on its fitted defaults becomes
    ``RTreeCostModel()`` (times throughout), one on ``CostModel.PAPER``
    becomes ``RTreeCostModel(**RTreeCostModel.PAPER)`` (work counts
    throughout); either keeps its ``unit_seconds``.  Any other constants
    set on a plain model raise: the R-tree's could not be priced in their
    units, so pass an :class:`RTreeCostModel` instead.
    """
    if isinstance(model, RTreeCostModel):
        return model
    constants = {name: value for name, value in vars(model).items()
                 if name in CostModel.TUNABLE}
    unit = {name: constants.pop(name)
            for name in ("unit_seconds",) if name in constants}
    if not constants:
        return RTreeCostModel(**unit)
    if constants == {name: float(value)
                     for name, value in CostModel.PAPER.items()}:
        return RTreeCostModel(**RTreeCostModel.PAPER, **unit)
    raise ValueError(
        "the paper backends need R-tree constants in the cost model's "
        f"units; pass an RTreeCostModel instead of a CostModel setting "
        f"{', '.join(sorted(constants))}")
