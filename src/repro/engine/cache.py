"""Engine caches: per-(function, block) lower bounds and whole query results.

The grid query algorithm spends a large share of its work computing
``function.lower_bound(block_box)`` for every frontier block.  The bound
depends only on the function and the block's geometry — not on the query's
predicate or ``k`` — so a workload that reuses ranking functions (the
batch API, benchmark sweeps, repeated user queries) can share bounds across
queries.  :class:`LowerBoundCache` memoizes them with an LRU policy.

The lower-bound cache keys on object identity of the grid and the function.
Each entry holds a strong reference to the objects it keys on, so an
``id()`` recycled by the allocator can never alias a live entry — and
eviction releases the references along with the bound.

:class:`ResultCache` sits one level up: it memoizes entire query results
under a canonical *query key* (:func:`query_cache_key`) so a repeated query
skips planning and execution — once the key comes back, as the ranking
cube materializes only what recurring query shapes reuse.  Answers are
held packed (tids as little-endian int64 bytes, a top-k's scores as the
wire's doubles): 16 B per ranked tuple.  The front door owning a cache
drops what a relation's new rows can affect (``Executor.sync``) through
:meth:`ResultCache.invalidate`.
"""

from __future__ import annotations

import functools
import struct
import threading

from collections import OrderedDict
from typing import Mapping, Optional, Tuple

MAX_BOUNDS = 262144  # bounds a LowerBoundCache holds
MAX_RESULTS = 4096  # answers a ResultCache holds, and key hashes it recalls


class LowerBoundCache:
    """LRU cache of block lower bounds, shared across queries."""

    def __init__(self) -> None:
        # key -> (bound, grid, function): the pinned objects live and die
        # with their entry.
        self._bounds: "OrderedDict[Tuple[int, int, int], Tuple[float, object, object]]" \
            = OrderedDict()
        # One engine call runs at a time and each ``Executor`` owns its
        # cache, so lookups never race each other.  What the lock still
        # guards: a metrics view sizing the cache (``__len__``) from
        # another thread while a sweep inserts or evicts.  Bound
        # derivation itself runs outside it.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lower_bound(self, grid, function, bid: int) -> float:
        """Lower bound of ``function`` over block ``bid`` of ``grid``."""
        key = (id(grid), id(function), int(bid))
        with self._lock:
            cached = self._bounds.get(key)
            if cached is not None:
                self.hits += 1
                self._bounds.move_to_end(key)
                return cached[0]
            self.misses += 1
        bound = float(function.lower_bound(grid.block_box(bid)))
        with self._lock:
            self._bounds[key] = (bound, grid, function)
            while len(self._bounds) > MAX_BOUNDS:
                self._bounds.popitem(last=False)
        return bound

    def clear(self) -> None:
        """Drop every cached bound and release the pinned objects."""
        with self._lock:
            self._bounds.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping cached bounds."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        # Metrics snapshots size the cache from other threads; take the
        # lock so the read never races an eviction sweep mid-resize.
        with self._lock:
            return len(self._bounds)


def _function_key(function) -> Optional[Tuple[object, ...]]:
    """Canonical, value-based key of a ranking function, or ``None``.

    Two function objects with the same type, dimensions, and parameters map
    to the same key, so logically identical queries share one cache entry
    even when their function objects differ.  Only an allowlist of types
    whose ``weights`` / ``targets`` / ``constant`` attributes are known to
    capture the *entire* function state is keyable — an exact-type check,
    so a subclass carrying extra parameters never inherits cacheability.
    Everything else (expression trees, custom subclasses) returns ``None``
    and stays uncacheable, because an incomplete or lossy key could collide
    two distinct functions and serve a wrong cached answer.

    The key is memoised on the (allowlisted) function object: a function
    never changes after it is built — the fuse key and every cached
    answer already rest on that — so a batch reusing one keys it once.
    """
    key = getattr(function, "_canonical_key", None)
    if key is not None:
        return key
    from repro.functions.distance import (
        ManhattanDistanceFunction,
        SquaredDistanceFunction,
    )
    from repro.functions.linear import LinearFunction, WeightedAverageFunction

    if type(function) not in (LinearFunction, WeightedAverageFunction,
                              SquaredDistanceFunction,
                              ManhattanDistanceFunction):
        return None
    parts: list = [type(function).__qualname__, tuple(function.dims)]
    for attr in ("weights", "targets", "constant"):
        value = getattr(function, attr, None)
        if value is None:
            continue
        if isinstance(value, (tuple, list)):
            parts.append((attr, tuple(float(v) for v in value)))
        else:
            parts.append((attr, float(value)))
    function._canonical_key = key = tuple(parts)
    return key


def function_fuse_key(function) -> Tuple[object, ...]:
    """Key under which two queries may share one fused execution sweep.

    Value-based when the function is canonically keyable (see
    :func:`_function_key`), object identity otherwise — so two queries fuse
    exactly when their ranking functions provably compute the same scores.
    Identity keys make *uncacheable* functions (expression trees, custom
    subclasses) still fusable whenever a batch reuses the same object.
    """
    key = _function_key(function)
    if key is not None:
        return key
    return ("object", id(function))


def query_cache_key(query) -> Optional[Tuple[object, ...]]:
    """Canonical cache key of a query, or ``None`` when uncacheable.

    The key canonicalizes the predicate (its conditions are already sorted
    by dimension name), the ranking function (by value, see
    :func:`_function_key`), and ``k`` — respectively the preference
    dimensions and targets for skylines.  Join queries reference live
    relation objects, and top-k queries whose function cannot be keyed
    exactly, are not cached.
    """
    # Local imports keep this module free of heavyweight dependencies at
    # import time (cache.py is imported by every engine entry point).
    from repro.query import SkylineQuery, TopKQuery

    if isinstance(query, TopKQuery):
        function_key = _function_key(query.function)
        if function_key is None:
            return None
        return ("topk", query.predicate.conditions, function_key, int(query.k))
    if isinstance(query, SkylineQuery):
        return ("skyline", query.predicate.conditions,
                tuple(query.preference_dims),
                tuple(query.targets) if query.targets is not None else None)
    return None


def partition_batch(queries, cache: Optional["ResultCache"]):
    """Split a batch into served cache hits, deduplicated units, and repeats.

    Shared by the engine and scatter/gather ``execute_many`` front doors.
    With no ``cache`` nothing is keyed and every query is a unit of its
    own (a scatter leg's batch, already deduplicated at the front door).
    Returns ``(results, units, repeats)``:

    * ``results`` — one slot per query, pre-filled with the cache hits
      (``None`` where execution is still needed);
    * ``units`` — ``(submission index, query, key)`` triples to execute
      exactly once each (``key`` is ``None`` for uncacheable queries,
      which are never deduplicated);
    * ``repeats`` — ``(submission index, unit's submission index)`` pairs:
      batch repeats of a listed unit, answered from its result by
      :func:`answer_repeats` once the units ran.
    """
    results = [None] * len(queries)
    units = []
    first = {}  # key -> submission index of its unit
    repeats = []
    for i, query in enumerate(queries):
        key = query_cache_key(query) if cache is not None else None
        if key is not None:
            hit = cache.lookup(key)
            if hit is not None:
                results[i] = hit
                continue
            if key in first:
                repeats.append((i, first[key]))
                continue
            first[key] = i
        units.append((i, query, key))
    return results, units, repeats


def answer_repeats(results, repeats) -> None:
    """Fill each batch repeat's slot with a copy of its unit's answer,
    tagged ``result_cache="hit"`` (a unit that failed leaves it empty)."""
    for i, unit in repeats:
        if results[unit] is not None:
            results[i] = _copied(results[unit], result_cache="hit")


def _copied(result, **tags):
    """``result`` with its own ``extra`` (plus ``tags``): a bare instance
    filled from ``__dict__``, 3-4x cheaper than ``dataclasses.replace``
    (re-runs ``__init__``) or ``copy.copy`` (``__reduce_ex__``)."""
    twin = object.__new__(type(result))
    twin.__dict__.update(result.__dict__)
    twin.extra = dict(result.extra, **tags)
    return twin


@functools.lru_cache(maxsize=1024)
def _layouts(rows: int) -> Tuple[struct.Struct, struct.Struct]:
    """The packed tids and scores of a ``rows``-long answer, compiled once:
    a cached ``Struct`` packs a short answer 3x faster than ``struct.pack``."""
    return struct.Struct("<%dq" % rows), struct.Struct("<%dd" % rows)


def _packed(result):
    """A copy of ``result`` whose tids (and scores) are packed bytes."""
    twin = _copied(result)
    tids, scores = _layouts(len(result.tids))
    twin.tids = tids.pack(*result.tids)
    if "scores" in twin.__dict__:  # a top-k answer; a skyline has none
        twin.scores = scores.pack(*result.scores)
    return twin


def _unpacked(entry, **tags):
    """Inverse of :func:`_packed`: a fresh result tagged with ``tags``."""
    twin = _copied(entry, **tags)
    tids, scores = _layouts(len(entry.tids) // 8)
    twin.tids = tids.unpack(entry.tids)
    if "scores" in twin.__dict__:
        twin.scores = scores.unpack(entry.scores)
    return twin


class ResultCache:
    """LRU cache of whole query results, keyed by :func:`query_cache_key`.

    A new key's answer is handed back unpacked and only the key's hash is
    recorded (a collision can only admit early), so a query hits from its
    third arrival; a repeat inside one batch is answered from its first
    arrival's result and is no sighting.  Invalidation keeps the record:
    a dropped key is kept again at its next miss."""

    def __init__(self) -> None:
        self._results: "OrderedDict[Tuple[object, ...], object]" = OrderedDict()
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        # Read by metrics views on other threads while a batch or the
        # (serialized) write path's sync changes it; the lock keeps the
        # LRU dict and its counters coherent across threads.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: Tuple[object, ...]):
        """The packed entry for ``key`` or ``None``, counting the lookup."""
        with self._lock:
            cached = self._results.get(key)
            if cached is None:
                self.misses += 1
                return None
            self.hits += 1
            self._results.move_to_end(key)
            return cached

    def lookup(self, key: Tuple[object, ...]):
        """An unpacked copy of the hit (fresh tuples and ``extra``, tagged
        ``result_cache="hit"``, so no caller can poison the entry), or
        ``None`` on a miss."""
        cached = self.get(key)
        return None if cached is None else _unpacked(cached, result_cache="hit")

    def expect(self, key: Tuple[object, ...]) -> bool:
        """Record ``key`` as seen, so its next answer is kept; whether it
        was seen before."""
        seen, sighting = self._seen, hash(key)
        with self._lock:
            again = seen.pop(sighting, False) is None
            seen[sighting] = None  # newest last, the oldest drops first
            if len(seen) > MAX_RESULTS:
                seen.popitem(last=False)
            return again

    def store(self, key: Tuple[object, ...], result) -> None:
        """Tag ``result`` a miss; keep it packed if ``key`` was seen before."""
        if self.expect(key):
            entry = _packed(result)
            with self._lock:
                self._results[key] = entry
                self._results.move_to_end(key)
                while len(self._results) > MAX_RESULTS:
                    self._results.popitem(last=False)
        result.extra["result_cache"] = "miss"

    def invalidate(self, row: Optional[Mapping[str, object]] = None) -> None:
        """Drop the cached results the mutation may have changed.

        ``row=None`` (a reshard, a cold start) drops everything.  Given
        the selection values of an inserted ``row``, only entries the row
        can *affect* are dropped: an entry survives exactly when its
        canonical predicate names a selection value the row provably does
        not carry — such an answer cannot include the new row.
        Predicate-free entries (the empty predicate matches every row) are
        dropped, so partial invalidation narrows the blast radius but
        never serves a stale answer.
        """
        with self._lock:
            self.invalidations += 1
            if row is None:
                self._results.clear()
                return
            self._results = OrderedDict(
                (key, result) for key, result in self._results.items()
                if self._row_excluded(key, row))

    @staticmethod
    def _row_excluded(key: Tuple[object, ...],
                      row: Mapping[str, object]) -> bool:
        """Whether ``key``'s predicate provably excludes the inserted row
        (:func:`query_cache_key` puts the predicate's conditions second)."""
        return any(dim in row and int(row[dim]) != int(value)
                   for dim, value in key[1])

    def publish(self, metrics, layer: str) -> None:
        """Set the ``<layer>.result_*`` gauges to what the cache holds;
        ``result_bytes`` is the packed tids and scores, 8 B per number."""
        with self._lock:
            held = (("entries", len(self._results)), ("hits", self.hits),
                    ("misses", self.misses),
                    ("invalidations", self.invalidations),
                    ("bytes", sum(len(e.tids) + len(getattr(e, "scores", b""))
                                  for e in self._results.values())))
        for name, value in held:
            metrics.gauge(f"{layer}.result_{name}").set(value)

    def __len__(self) -> int:
        # Locked: metrics views size the cache while batches mutate it.
        with self._lock:
            return len(self._results)
