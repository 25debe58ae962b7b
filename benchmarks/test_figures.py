"""Every figure and table of the paper, regenerated: one test per experiment.

``python -m pytest benchmarks/test_figures.py -s`` runs each entry of
``repro.paper.bench.ALL_EXPERIMENTS`` once and prints its series table (the
experiment already averages over a small query workload).  Runs the
scaled-down default workload; set ``REPRO_BENCH_SCALE=paper`` for
paper-scale sizes.  ``-k fig3.10`` selects one figure.
"""

import pytest

from repro.paper.bench import ALL_EXPERIMENTS


@pytest.mark.parametrize("experiment", sorted(ALL_EXPERIMENTS))
def test_figure(experiment):
    result = ALL_EXPERIMENTS[experiment]()
    print()
    print(result.format_table())
    assert result.rows, "the experiment produced no rows"
