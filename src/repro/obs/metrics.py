"""One metrics dialect for the whole stack: counters, gauges, histograms.

Every layer keeps one :class:`MetricsRegistry` and no other statistics
store — a namespaced get-or-create registry of named instruments:

* :class:`Counter` — a monotonically increasing float
  (``engine.tuples_evaluated``, ``shard.legs_skipped``, ...);
* :class:`Gauge` — a value that moves both ways (``serve.pending``, and
  what an owner reads off what it holds — cache entries, built stacks —
  set when the view is read);
* :class:`Histogram` — a bounded reservoir of recent observations with
  nearest-rank percentiles (``serve.queue_wait_seconds`` p50/p95/p99).

Instruments are cheap to record into (one lock acquisition, no string
work) and the registry renders either a flat ``{name: float}`` snapshot,
JSON, or Prometheus text exposition.  :meth:`MetricsRegistry.merged`
folds many registries — e.g. the scatter front door plus every shard
engine — into one, summing counters and gauges and pooling histogram
reservoirs so merged percentiles are computed over the union of
observations, not averaged.  No rate is a series: a merge cannot sum
one, and every rate is the ratio of two counts in the view.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100); 0.0 if empty.

    The single percentile implementation of the stack, so "p99" means
    the same thing in every snapshot.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


class Counter:
    """A monotonically increasing metric.  Thread-safe."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A metric that can move in both directions.  Thread-safe."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded reservoir of recent observations with lifetime count/sum.

    The reservoir keeps the most recent ``window`` observations (a sliding
    window, not a sampling reservoir: serving percentiles should reflect
    *current* behaviour, and the window bound keeps memory constant).
    ``count`` and ``sum`` are lifetime totals, so rates derived from them
    are exact even after the window rolls.
    """

    __slots__ = ("name", "window", "count", "sum", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"histogram window must be >= 1, got {window}")
        self.name = name
        self.window = window
        self.count = 0
        self.sum = 0.0
        self._values: Deque[float] = deque(maxlen=window)
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self._values.append(float(value))

    def values(self) -> List[float]:
        """A copy of the retained window (for pooling and tests)."""
        with self._lock:
            return list(self._values)

    def percentile(self, q: float) -> float:
        return percentile(self.values(), q)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


#: Percentiles every histogram exposes in snapshots.
SNAPSHOT_QUANTILES = (50, 95, 99)


def _prometheus_name(name: str) -> str:
    """``engine.tuples_evaluated`` -> ``repro_engine_tuples_evaluated``."""
    sanitized = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"repro_{sanitized}"


class MetricsRegistry:
    """Get-or-create registry of named instruments with one lock.

    All instruments of a registry share a single lock: recording is one
    uncontended acquisition, and a snapshot taken from another thread
    never sees a torn update.  Names are dotted
    (``layer.metric``, e.g. ``serve.queue_wait_seconds``); asking for an
    existing name returns the existing instrument, asking with a
    conflicting type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "Dict[str, Counter]" = {}
        self._gauges: "Dict[str, Gauge]" = {}
        self._histograms: "Dict[str, Histogram]" = {}

    # -- get-or-create -------------------------------------------------
    def _check_free(self, name: str, *stores) -> None:
        for store in stores:
            if name in store:
                raise ValueError(
                    f"metric {name!r} already registered with another type")

    def counter(self, name: str) -> Counter:
        with self._lock:
            existing = self._counters.get(name)
            if existing is not None:
                return existing
            self._check_free(name, self._gauges, self._histograms)
            instrument = Counter(name, self._lock)
            self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            existing = self._gauges.get(name)
            if existing is not None:
                return existing
            self._check_free(name, self._counters, self._histograms)
            instrument = Gauge(name, self._lock)
            self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str, window: int = 2048) -> Histogram:
        with self._lock:
            existing = self._histograms.get(name)
            if existing is not None:
                return existing
            self._check_free(name, self._counters, self._gauges)
            instrument = Histogram(name, self._lock, window=window)
            self._histograms[name] = instrument
            return instrument

    # -- exposition ----------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: float}`` view; histograms expand to
        ``name.count/.sum/.mean/.p50/.p95/.p99``."""
        with self._lock:
            counters = {name: c._value for name, c in self._counters.items()}
            gauges = {name: g._value for name, g in self._gauges.items()}
            histograms = [(name, list(h._values), h.count, h.sum)
                          for name, h in self._histograms.items()]
        snap: Dict[str, float] = {**counters, **gauges}
        for name, values, count, total in histograms:
            ordered = sorted(values)
            snap[f"{name}.count"] = float(count)
            snap[f"{name}.sum"] = float(total)
            snap[f"{name}.mean"] = total / count if count else 0.0
            for q in SNAPSHOT_QUANTILES:
                snap[f"{name}.p{q}"] = percentile(ordered, q)
        return snap

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as sorted JSON (the CLI's shutdown printout)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- cross-process state shipping ----------------------------------
    def state(self) -> Dict[str, object]:
        """The registry's full raw state as picklable plain containers.

        Unlike :meth:`snapshot`, histograms keep their *raw reservoir
        values* (plus lifetime count/sum and window), so a registry
        rebuilt from this state via :meth:`from_state` pools correctly
        under :meth:`merged` — percentiles over the union of
        observations, never a mean of pre-flattened percentiles.
        """
        with self._lock:
            return {
                "counters": {name: c._value
                             for name, c in self._counters.items()},
                "gauges": {name: g._value
                           for name, g in self._gauges.items()},
                "histograms": {
                    name: {"values": list(h._values), "count": h.count,
                           "sum": h.sum, "window": h.window}
                    for name, h in self._histograms.items()
                },
            }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry replica from a :meth:`state` mapping."""
        registry = cls()
        for name, value in dict(state.get("counters", {})).items():
            registry.counter(name)._value = float(value)
        for name, value in dict(state.get("gauges", {})).items():
            registry.gauge(name).set(float(value))
        for name, payload in dict(state.get("histograms", {})).items():
            hist = registry.histogram(name,
                                      window=int(payload.get("window", 2048)))
            for value in payload.get("values", []):
                hist._values.append(float(value))
            hist.count = int(payload.get("count", len(payload.get("values", []))))
            hist.sum = float(payload.get("sum", 0.0))
        return registry

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]
               ) -> "MetricsRegistry":
        """One registry over many: the view every front door renders.

        Counters and gauges sharing a name are summed (the scatter layer
        merges each shard engine's ``engine.*`` series this way);
        histograms sharing a name pool their reservoirs and lifetime
        totals.  A registry listed twice — a service sharing its
        engine's — counts once.
        """
        merged: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for registry in {id(r): r for r in registries}.values():
            state = registry.state()
            for kind in ("counters", "gauges"):
                into = merged[kind]
                for name, value in state[kind].items():
                    into[name] = into.get(name, 0.0) + value
            for name, hist in state["histograms"].items():
                into = merged["histograms"].setdefault(
                    name, {"values": [], "count": 0, "sum": 0.0})
                into["values"] += hist["values"]
                into["count"] += hist["count"]
                into["sum"] += hist["sum"]
        for hist in merged["histograms"].values():
            hist["window"] = max(len(hist["values"]), 1)
        return cls.from_state(merged)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters, gauges, summaries); every
        value is the shortest text that reads back as the same double."""
        with self._lock:
            counters = sorted((n, c._value) for n, c in self._counters.items())
            gauges = sorted((n, g._value) for n, g in self._gauges.items())
            histograms = sorted(
                (n, list(h._values), h.count, h.sum)
                for n, h in self._histograms.items())
        lines: List[str] = []
        for name, value in counters:
            prom = _prometheus_name(name)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {value!r}")
        for name, value in gauges:
            prom = _prometheus_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {value!r}")
        for name, values, count, total in histograms:
            prom = _prometheus_name(name)
            lines.append(f"# TYPE {prom} summary")
            ordered = sorted(values)
            for q in SNAPSHOT_QUANTILES:
                lines.append(f'{prom}{{quantile="0.{q}"}} '
                             f"{percentile(ordered, q)!r}")
            lines.append(f"{prom}_sum {float(total)!r}")
            lines.append(f"{prom}_count {count:d}")
        return "\n".join(lines) + ("\n" if lines else "")

