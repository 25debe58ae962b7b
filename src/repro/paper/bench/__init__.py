"""Benchmark harness: one experiment per paper figure/table.

``ALL_EXPERIMENTS`` maps experiment ids (``fig3.4`` ... ``fig7.13-14``,
``tab5.1``) to zero-argument callables returning an
:class:`repro.paper.bench.harness.ExperimentResult`.
``benchmarks/test_figures.py`` runs each entry as one case of a single
parametrised test.
"""

from typing import Callable, Dict

from repro.paper.bench import ch3, ch4, ch5, ch6, ch7
from repro.paper.bench.harness import (
    ExperimentResult,
    average,
    bench_scale,
    cold_buffers,
    scaled,
    timed,
)

ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {}
for module in (ch3, ch4, ch5, ch6, ch7):
    ALL_EXPERIMENTS.update(module.EXPERIMENTS)

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "average",
    "bench_scale",
    "cold_buffers",
    "scaled",
    "timed",
    "ch3",
    "ch4",
    "ch5",
    "ch6",
    "ch7",
]
