"""Turn experiment results into a markdown report.

``python -m repro.paper run-experiments`` uses this module to run any subset
of the per-figure experiments and emit a markdown document with one series
table per experiment.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.paper.bench.harness import ExperimentResult


def result_to_markdown(result: ExperimentResult) -> str:
    """One experiment as a markdown section with a table."""
    headers = ["method", result.x_label, *result.metric_labels]
    lines = [
        f"### {result.experiment} — {result.description}",
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(["---"] * len(headers)) + "|",
    ]
    for row in result.rows:
        cells = []
        for header in headers:
            value = row.get(header, "")
            cells.append(f"{value:.4f}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def run_experiments(experiments: Dict[str, Callable[[], ExperimentResult]],
                    only: Optional[Sequence[str]] = None,
                    progress: Optional[Callable[[str, float], None]] = None
                    ) -> List[ExperimentResult]:
    """Run the selected experiments, reporting per-experiment wall time."""
    selected = list(only) if only else list(experiments)
    unknown = [name for name in selected if name not in experiments]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")
    results: List[ExperimentResult] = []
    for name in selected:
        start = time.perf_counter()
        results.append(experiments[name]())
        if progress is not None:
            progress(name, time.perf_counter() - start)
    return results


def build_report(results: Iterable[ExperimentResult], title: str = "Experiment report"
                 ) -> str:
    """Assemble a complete markdown report."""
    sections = [f"# {title}", ""]
    sections.extend(result_to_markdown(result) for result in results)
    return "\n".join(sections)
