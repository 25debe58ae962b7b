"""EXPLAIN ANALYZE rendering: span trees with estimated vs. actual work.

:func:`render_trace` turns one completed :class:`~repro.obs.trace.Trace`
into the text the ``analyze`` CLI command prints: the span tree indented
by depth with per-span durations and attributes, followed by a
per-backend table of the planner's estimated cost next to the tuples the
backend actually evaluated — the feedback loop that keeps the cost model
honest.  :func:`analyze_with` is the shared ``explain_analyze``
implementation of both executor front doors: run the query once with a
private tracer (bypassing the result cache, so the plan and execution
really happen) and render what happened.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.trace import Span, Trace, Tracer

#: Span names whose ``tuples_evaluated`` attribute is actual backend work.
_WORK_SPANS = ("engine.run", "engine.fused_sweep", "engine.run_batch")


def _format_attr(value) -> str:
    """Render one attribute value; hot paths store these *structured*.

    Instrumentation sites attach tuples (per-backend ``(name, cost)``
    estimate pairs, per-member attributed shares) instead of formatting
    strings while tracing — all float formatting happens here, at render
    time, where it is off the query's critical path.
    """
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        if value and all(isinstance(item, tuple) and len(item) == 2
                         for item in value):
            # Pair sequences: (backend, cost) estimates, (shard, reason)
            # prune decisions.
            return "|".join(f"{first}:{_format_attr(second)}"
                            for first, second in value)
        return ",".join(_format_attr(item) for item in value)
    return str(value)


def _span_line(span: Span, depth: int) -> str:
    duration_ms = span.duration * 1e3
    attrs = " ".join(f"{key}={_format_attr(span.attrs[key])}"
                     for key in sorted(span.attrs))
    line = f"{'  ' * depth}{span.name}  {duration_ms:.3f} ms"
    return f"{line}  [{attrs}]" if attrs else line


def _walk(trace: Trace, span: Span, depth: int, lines: List[str]) -> None:
    lines.append(_span_line(span, depth))
    for child in trace.children_of(span):
        _walk(trace, child, depth + 1, lines)


def estimated_vs_actual(trace: Trace) -> Dict[str, Tuple[float, float]]:
    """Per-backend ``(estimated cost, actual tuples evaluated)`` totals.

    Estimates come from plan spans (``estimated_cost`` attributes, one
    per planned query); actuals from run / fused-sweep spans.  A fused
    sweep's actual is its attributed total — each shared tuple counted
    once — so an actual far below the summed solo estimates is the
    fusion win, not a misestimate.
    """
    totals: Dict[str, List[float]] = {}
    for span in list(trace.spans):
        backend = span.attrs.get("backend")
        if backend is None:
            continue
        entry = totals.setdefault(str(backend), [0.0, 0.0])
        if span.name.endswith(".plan"):
            estimated = span.attrs.get("estimated_cost")
            if estimated is not None:
                entry[0] += float(estimated)
        elif span.name in _WORK_SPANS:
            entry[1] += float(span.attrs.get("tuples_evaluated", 0.0))
    return {backend: (est, actual)
            for backend, (est, actual) in totals.items()
            if est or actual}


def render_trace(trace: Trace, result=None) -> str:
    """The ``analyze`` text: span tree + estimated-vs-actual table."""
    lines: List[str] = []
    _walk(trace, trace.root, 0, lines)
    if result is not None:
        backend = getattr(result, "extra", {}).get("backend", "?")
        rows = len(getattr(result, "tids", ()))
        lines.append(f"returned {rows} rows via {backend}")
    table = estimated_vs_actual(trace)
    if table:
        lines.append("estimated cost vs actual tuples evaluated:")
        width = max(len(name) for name in table)
        for backend in sorted(table):
            estimated, actual = table[backend]
            ratio = (actual / estimated) if estimated else float("inf")
            lines.append(f"  {backend.ljust(width)}  "
                         f"estimated={estimated:.1f}  actual={actual:.0f}  "
                         f"actual/estimated={ratio:.2f}")
    return "\n".join(lines)


def analyze_with(front_door, query, root_name: str) -> str:
    """Run ``query`` traced through ``front_door`` and render the trace.

    The shared body of ``Executor.explain_analyze`` and
    ``ScatterGatherExecutor.explain_analyze``: a private always-on tracer
    (the front door's own tracer may be the null object), the result
    cache bypassed so planning and execution genuinely run, and the
    render of the single resulting trace returned.
    """
    tracer = Tracer(ring_size=1)
    root = tracer.trace(root_name)
    result = front_door.execute(query, parent_span=root,
                                use_result_cache=False)
    root.finish()
    return render_trace(root.trace, result=result)


def misestimation_report(snapshot: Mapping[str, float]) -> str:
    """Summarize the per-backend cost-feedback counters of a snapshot.

    Reads the ``planner.*`` counters the executor maintains
    (``costed_queries`` / ``estimated_cost_total`` / ``actual_cost_total``
    / ``actual_tuples_total`` / ``misestimates`` per backend) and renders
    one line per backend — the view ``calibrate_cost_model.py --metrics``
    prints so an operator can see *which* backend's constants drift.
    Estimated and actual cost share the cost model's unit.
    """
    prefix = "planner.costed_queries."
    backends = sorted(name[len(prefix):] for name in snapshot
                      if name.startswith(prefix))
    if not backends:
        return "no cost-feedback counters in snapshot"
    lines = ["per-backend cost feedback (from metrics snapshot):"]
    for backend in backends:
        costed = snapshot.get(f"planner.costed_queries.{backend}", 0.0)
        estimated = snapshot.get(
            f"planner.estimated_cost_total.{backend}", 0.0)
        actual = snapshot.get(f"planner.actual_cost_total.{backend}", 0.0)
        tuples = snapshot.get(f"planner.actual_tuples_total.{backend}", 0.0)
        wrong = snapshot.get(f"planner.misestimates.{backend}", 0.0)
        mean_ratio = (actual / estimated) if estimated else 0.0
        lines.append(
            f"  {backend}: {costed:.0f} costed queries, "
            f"estimated={estimated:.1f} actual={actual:.1f} "
            f"(actual/estimated={mean_ratio:.2f}), {tuples:.0f} tuples, "
            f"{wrong:.0f} misestimates (>4x off)")
    return "\n".join(lines)
