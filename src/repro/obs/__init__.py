"""Observability for the whole stack: metrics, traces, EXPLAIN ANALYZE.

The fifth layer, orthogonal to the other four.  Every front door
(:class:`~repro.engine.Executor`,
:class:`~repro.shard.ScatterGatherExecutor`,
:class:`~repro.serve.QueryService`) publishes into a
:class:`MetricsRegistry` of namespaced counters / gauges / reservoir
histograms (``engine.*``, ``shard.*``, ``serve.*``) and — when given an
enabled :class:`Tracer` — emits per-request span trees into a ring
buffer with a configurable slow-query log.  Tracing is off by default
and *cheap* when off: the disabled tracer is the no-op
:data:`NULL_TRACER` / :data:`NULL_SPAN` singleton pair, adding zero
allocations to the hot path.  ``explain_analyze`` on either executor
(and the ``analyze`` CLI command) runs one query traced and renders the
span tree with estimated cost vs. actual tuples evaluated per backend.

See ``docs/observability.md`` for the metric names and span schema.
"""

from repro.obs.explain import (
    analyze_with,
    estimated_vs_actual,
    misestimation_report,
    render_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Trace,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "analyze_with",
    "estimated_vs_actual",
    "misestimation_report",
    "percentile",
    "render_trace",
]
