"""Benchmark harness shared by every per-figure experiment.

Each experiment function in ``repro.paper.bench.ch*`` builds its datasets and
structures, sweeps the parameter the corresponding paper figure varies, and
returns an :class:`ExperimentResult` — a list of rows with one entry per
(method, x-value) pair, carrying the metrics the paper plots (execution
time, disk accesses, states generated, peak heap size, or sizes).
``benchmarks/test_figures.py`` runs every experiment as one parametrised
test that prints its table.

Scaling: the paper uses 1M–10M tuple datasets; by default the experiments
run at laptop scale (a few tens of thousands of tuples) so the whole suite
finishes in minutes.  Set ``REPRO_BENCH_SCALE=paper`` for larger sizes —
the relative ordering of methods (the reproduced "shape") is unchanged.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Environment variable selecting the benchmark scale.
SCALE_ENV = "REPRO_BENCH_SCALE"


def bench_scale() -> str:
    """Current scale: ``small`` (default) or ``paper``."""
    value = os.environ.get(SCALE_ENV, "small").lower()
    return "paper" if value == "paper" else "small"


def scaled(small: int, paper: int) -> int:
    """Pick a size according to the current scale."""
    return paper if bench_scale() == "paper" else small


@dataclass
class ExperimentResult:
    """Rows of one experiment, ready to print as the paper's figure series."""

    experiment: str
    description: str
    x_label: str
    metric_labels: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, method: str, x: object, **metrics: float) -> None:
        """Append one measured point."""
        row: Dict[str, object] = {"method": method, self.x_label: x}
        row.update(metrics)
        self.rows.append(row)

    def methods(self) -> List[str]:
        """Distinct methods in insertion order."""
        seen: List[str] = []
        for row in self.rows:
            if row["method"] not in seen:
                seen.append(str(row["method"]))
        return seen

    def series(self, method: str, metric: str) -> List[tuple]:
        """``(x, value)`` points of one method for one metric."""
        return [
            (row[self.x_label], row.get(metric))
            for row in self.rows
            if row["method"] == method and metric in row
        ]

    def format_table(self) -> str:
        """Human-readable table of every row (printed by the figure runner)."""
        headers = ["method", self.x_label, *self.metric_labels]
        widths = {h: max(len(h), 12) for h in headers}
        lines = [
            f"# {self.experiment}: {self.description}",
            " | ".join(h.ljust(widths[h]) for h in headers),
            "-+-".join("-" * widths[h] for h in headers),
        ]
        for row in self.rows:
            cells = []
            for header in headers:
                value = row.get(header, "")
                if isinstance(value, float):
                    text = f"{value:.4f}"
                else:
                    text = str(value)
                cells.append(text.ljust(widths[header]))
            lines.append(" | ".join(cells))
        return "\n".join(lines)

    def check_shape(self, better: str, worse: str, metric: str,
                    tolerance: float = 1.0) -> bool:
        """Whether ``better`` beats ``worse`` on ``metric`` in aggregate.

        The paper's qualitative ordering as a predicate; its caller-to-be is
        the per-figure claims table of ROADMAP item 5b.
        """
        better_total = sum(v for _, v in self.series(better, metric) if v is not None)
        worse_total = sum(v for _, v in self.series(worse, metric) if v is not None)
        return better_total <= worse_total * tolerance


def cold_buffers(*objects: object) -> None:
    """Invalidate the buffer pools of every known structure in ``objects``.

    Query-time disk-access counts are only comparable if every method starts
    from cold buffers; this walks the structures the experiments use and
    clears their pools.
    """
    for obj in objects:
        if obj is None:
            continue
        buffer = getattr(obj, "buffer", None)
        if buffer is not None and hasattr(buffer, "invalidate"):
            buffer.invalidate()
        # Signature cube: R-tree + signature store.
        for attribute in ("rtree", "store", "block_table"):
            inner = getattr(obj, attribute, None)
            if inner is not None and hasattr(inner, "buffer"):
                inner.buffer.invalidate()
        cuboids = getattr(obj, "cuboids", None)
        if isinstance(cuboids, dict):
            for cuboid in cuboids.values():
                if hasattr(cuboid, "buffer"):
                    cuboid.buffer.invalidate()
        signatures = getattr(obj, "signatures", None)
        if isinstance(signatures, dict):
            for signature in signatures.values():
                if hasattr(signature, "buffer"):
                    signature.buffer.invalidate()
        indexes = getattr(obj, "indexes", None)
        if isinstance(indexes, (list, tuple)):
            for index in indexes:
                if hasattr(index, "buffer"):
                    index.buffer.invalidate()


def timed(callable_: Callable[[], object]) -> tuple:
    """Run a callable, returning ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def average(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty iterable)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
