"""Explainable query plans produced by the engine planner.

A :class:`QueryPlan` records which backend was chosen for a query, why, and
the plan-relevant properties the planner inspected (predicate dimensions,
ranking-function shape, covering cuboids, ...).  Plans are plain data: the
:class:`repro.engine.Executor` attaches the plan object itself to the
result's ``extra["plan"]`` so every answer can explain how it was computed,
and ``str(plan)`` (:meth:`QueryPlan.describe`) renders it only where it is
read — ``result.plan``, ``print``, the wire codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Query kinds the engine routes.
KIND_TOPK = "topk"
KIND_SKYLINE = "skyline"
KIND_JOIN = "join"

#: Backend-selection modes the planner records on its plans.
MODE_COST = "cost"
MODE_STATIC = "static"


@dataclass
class QueryPlan:
    """One routing decision: backend, rationale, and inspected properties."""

    backend: str
    query_kind: str
    reason: str
    details: Dict[str, object] = field(default_factory=dict)
    candidates: Tuple[str, ...] = ()
    #: How the winner was selected: :data:`MODE_COST` when estimated costs
    #: decided (details carry ``cost_estimates`` / ``cost_inputs``),
    #: :data:`MODE_STATIC` when the (priority, name) order did.
    mode: str = MODE_STATIC
    #: Per-candidate ``(backend name, estimated cost)`` pairs in candidate
    #: order when the plan was costed, ``()`` otherwise.  The structured
    #: twin of ``details["cost_estimates"]`` — tracing and
    #: ``explain_analyze`` read this instead of re-parsing the string.
    estimates: Tuple[Tuple[str, float], ...] = ()

    def describe(self) -> str:
        """Single-line human-readable plan: what ``str(plan)`` and
        ``result.plan`` read and what the wire carries."""
        parts = [f"backend={self.backend}", f"kind={self.query_kind}",
                 f"mode={self.mode}"]
        for key in sorted(self.details):
            parts.append(f"{key}={self.details[key]}")
        if self.candidates:
            parts.append(f"candidates={'|'.join(self.candidates)}")
        return f"{self.reason} [{' '.join(parts)}]"

    def as_dict(self) -> Dict[str, object]:
        """Plan as a plain dict (for reports and structured logging)."""
        return {
            "backend": self.backend,
            "query_kind": self.query_kind,
            "reason": self.reason,
            "details": dict(self.details),
            "candidates": list(self.candidates),
            "mode": self.mode,
            "estimates": [list(pair) for pair in self.estimates],
        }

    def __str__(self) -> str:
        return self.describe()
