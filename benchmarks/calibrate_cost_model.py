"""Fit the planner's CostModel constants to measured backend run times.

The :class:`~repro.engine.cost.CostModel` prices every backend in
*tuple-score units*: one unit is the time of scoring one tuple inside a
block-sized ``evaluate_batch`` (200 rows).  This offline tool measures that
unit on its own synthetic relation (cardinality 10, seed 31 — never a
benchmark workload), then times every supporting backend of the served
stack (``Executor.for_relation``) — its whole ``run`` over a fixed grid of
query shapes, warm, keeping the minimum of
``--repeats``:

* top-k: k in {5, 20, 100, 500} x 0-2 equality conditions x a linear and a
  squared-distance function;
* skylines: static and dynamic, 0-2 conditions (the scan-skyline terms
  see from about 40 to all 40,000 matches).

Every estimate is linear in the fitted constants (``score_cost`` is the
unit, 1 by definition, and the structural factors ``frontier_overvisit``,
``intersection_penalty`` and ``general_shape_factor`` are kept), so each
constant's feature is the estimate under a model where it alone is 1,
less the estimate with all of them 0.  One non-negative least-squares
fit on relative error (every constant at least ``FLOOR``: no term is free)
gives the constants; the tool prints each estimator's median relative
error, then the regret of routing by ``CostModel.PAPER`` and by the fitted
set — measured ms per query of the chosen backend against the fastest one,
and how many queries went elsewhere than the fastest — and last a
ready-to-paste snippet, the measured unit included as ``unit_seconds``::

    PYTHONPATH=src python benchmarks/calibrate_cost_model.py --quick

A single fit moves up to 2x from run to run on a shared host.  ``--runs N``
measures and fits N times and prints each constant's median (the one the
snippet carries) with the min and max over the N fits; the error and
regret tables judge the last run's timings under the medians.  The
committed :class:`CostModel` defaults are the rounded medians of seven
full-mode fits.  Nothing is measured at start-up: an operator who wants
constants for other hardware passes the snippet to their executor
(``Executor(cost_model=CostModel(...))``).

With ``--metrics path/to/metrics.json`` the tool additionally reads a
metrics snapshot (e.g. the JSON ``python -m repro serve`` prints on
shutdown, or ``Executor.metrics_snapshot()`` dumped by an operator) and
summarizes the per-backend cost-feedback counters the executor maintains.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.engine import Executor, Planner  # noqa: E402
from repro.engine.cost import CostModel  # noqa: E402
from repro.functions.distance import SquaredDistanceFunction  # noqa: E402
from repro.functions.linear import LinearFunction  # noqa: E402
from repro.query import Predicate, SkylineQuery, TopKQuery  # noqa: E402
from repro.workloads import SyntheticSpec, generate_relation  # noqa: E402

#: The constants the fit sets; every other tunable keeps its value
#: (``score_cost`` is the unit, 1 by definition).
FITTED = ("row_filter_cost", "posting_cost", "match_cost",
          "block_touch_cost", "compare_cost", "grid_query_cost",
          "cuboid_query_cost", "skyline_scan_query_cost")
#: Lowest fitted value, in tuple-score units.
FLOOR = 0.01
BLOCK_SIZE = 200
QUERIES_PER_SHAPE = 3


def best_of(repeats: int, measure: Callable[[], float]) -> float:
    """Minimum of ``repeats`` timing samples (noise only ever adds time)."""
    return min(measure() for _ in range(repeats))


def unit_seconds(relation, repeats: int) -> float:
    """Seconds to score one tuple in a block-sized ``evaluate_batch``."""
    function = LinearFunction(["N1", "N2"], [1.0, 2.0])
    values = relation.ranking_values_bulk(
        np.arange(relation.num_tuples), function.dims)

    def score_pass() -> float:
        start = time.perf_counter()
        for low in range(0, len(values), BLOCK_SIZE):
            function.evaluate_batch(values[low:low + BLOCK_SIZE])
        return time.perf_counter() - start

    return best_of(repeats, score_pass) / relation.num_tuples


def shape_grid(relation, rng: np.random.Generator) -> List:
    """The fixed grid of query shapes, ``QUERIES_PER_SHAPE`` draws each."""
    selection = relation.selection_matrix()
    dims = list(relation.selection_dims)

    def predicate(count: int) -> Predicate:
        tid = int(rng.integers(0, relation.num_tuples))
        chosen = rng.choice(len(dims), size=count, replace=False)
        return Predicate.of({dims[int(d)]: int(selection[tid, int(d)])
                             for d in chosen})

    queries: List = []
    for _ in range(QUERIES_PER_SHAPE):
        for k in (5, 20, 100, 500):
            for count in (0, 1, 2):
                weights = [float(w) for w in rng.uniform(1.0, 3.0, 2)]
                targets = [float(t) for t in rng.random(2)]
                queries.append(TopKQuery(predicate(count), LinearFunction(
                    ["N1", "N2"], weights), k))
                queries.append(TopKQuery(predicate(count),
                                         SquaredDistanceFunction(
                                             ["N1", "N2"], targets), k))
        for count in (0, 1, 2):
            queries.append(SkylineQuery(predicate(count), ("N1", "N2")))
            queries.append(SkylineQuery(
                predicate(count), ("N1", "N2"),
                targets=tuple(float(t) for t in rng.random(2))))
    return queries


def time_backends(executor: Executor, queries: Sequence, repeats: int
                  ) -> List[Dict[str, float]]:
    """Per query, ``{backend name: best warm seconds}`` of every supporter."""

    def timed(backend, query) -> float:
        start = time.perf_counter()
        backend.run(query)
        return time.perf_counter() - start

    measured = []
    for query in queries:
        plan = executor.plan(query)
        times = {}
        for name in plan.candidates:
            backend = executor.registry.get(name)
            backend.run(query)  # warm: pages cached, arrays allocated
            times[name] = best_of(repeats, lambda: timed(backend, query))
        measured.append(times)
    return measured


def features(executor: Executor, query, name: str) -> np.ndarray:
    """The estimate of ``name`` on ``query`` with every fitted constant 0
    (what the kept constants price), then per unit of each fitted one."""
    backend = executor.registry.get(name)
    stats = executor.statistics.of(backend.relation)
    zero = {constant: 0.0 for constant in FITTED}
    offset = CostModel(**zero).estimate(backend, query, stats).cost
    row = [offset]
    for constant in FITTED:
        model = CostModel(**{**zero, constant: 1.0})
        row.append(model.estimate(backend, query, stats).cost - offset)
    return np.array(row)


def fit(rows: np.ndarray, seconds: np.ndarray, unit: float) -> np.ndarray:
    """Constants minimizing the squared relative error, each >= ``FLOOR``.

    ``rows`` are :func:`features` rows: the kept constants' offset first.
    Substitutes ``c = FLOOR + d`` and solves for ``d >= 0`` by active set:
    the most negative coefficient is pinned at 0 and the rest re-solved.
    """
    target = seconds / unit
    weights = 1.0 / target
    offsets, rows = rows[:, 0], rows[:, 1:]
    design = rows * weights[:, None]
    residual = (target - offsets
                - rows @ np.full(rows.shape[1], FLOOR)) * weights
    free = [j for j in range(rows.shape[1]) if np.any(rows[:, j])]
    delta = np.zeros(rows.shape[1])
    while free:
        solution = np.linalg.lstsq(design[:, free], residual, rcond=None)[0]
        worst = int(np.argmin(solution))
        if solution[worst] >= 0:
            delta[free] = solution
            break
        free.pop(worst)
    return FLOOR + delta


def chosen(executor: Executor, model: CostModel, query) -> str:
    """The backend ``model`` routes ``query`` to on ``executor``'s stack."""
    planner = Planner(executor.registry, cost_model=model,
                      statistics=executor.statistics.of)
    return planner.plan(query).backend


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller relation for a fast calibration pass")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per run (minimum is kept)")
    parser.add_argument("--runs", type=int, default=1,
                        help="measure and fit this many times; each constant "
                             "is the median of the fits, printed with their "
                             "min and max (fits move up to 2x run to run)")
    parser.add_argument("--tuples", type=int, default=None,
                        help="relation size override (the test suite smokes "
                             "the tool at tiny N; fitted constants are "
                             "only meaningful at the default sizes)")
    parser.add_argument("--metrics", default=None,
                        help="path to a metrics-snapshot JSON (from "
                             "'python -m repro serve' or "
                             "Executor.metrics_snapshot()); summarizes its "
                             "per-backend planner misestimation counters "
                             "before calibrating")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    if args.metrics:
        import json

        from repro.obs import misestimation_report

        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        print(misestimation_report(snapshot))
        print()

    num_tuples = args.tuples or (8000 if args.quick else 40000)
    relation = generate_relation(SyntheticSpec(
        num_tuples=num_tuples, num_selection_dims=3, num_ranking_dims=2,
        cardinality=10, seed=31))
    executor = Executor.for_relation(relation, block_size=BLOCK_SIZE)
    queries = shape_grid(relation, np.random.default_rng(31))
    runs = []
    for _ in range(args.runs):
        unit = unit_seconds(relation, args.repeats)
        measured = time_backends(executor, queries, args.repeats)
        samples = [(query, name, seconds)
                   for query, times in zip(queries, measured)
                   for name, seconds in times.items()]
        rows = np.array([features(executor, query, name)
                         for query, name, _ in samples])
        seconds = np.array([s for _, _, s in samples])
        runs.append((unit, dict(zip(FITTED, fit(rows, seconds, unit)))))
    units = [run_unit for run_unit, _ in runs]
    unit = float(np.median(units))
    spread = {name: [constants[name] for _, constants in runs]
              for name in FITTED}
    fitted = {name: float(f"{np.median(values):.2g}")
              for name, values in spread.items()}

    print(f"# cost-model fit ({'quick' if args.quick else 'full'} mode)")
    print(f"tuples={num_tuples} repeats={args.repeats} queries={len(queries)} "
          f"runs={len(samples)} fits={args.runs} "
          f"unit={unit * 1e9:.1f} ns/tuple")
    print(f"{'constant':<26}{'fitted':>10}{'ns':>10}{'PAPER':>9}"
          f"{'min':>10}{'max':>10}")
    for name in FITTED:
        print(f"{name:<26}{fitted[name]:>10.3g}"
              f"{fitted[name] * unit * 1e9:>10.1f}{CostModel.PAPER[name]:>9.3g}"
              f"{min(spread[name]):>10.3g}{max(spread[name]):>10.3g}")
    print(f"{'unit ns/tuple':<26}{unit * 1e9:>10.3g}{'':>19}"
          f"{min(units) * 1e9:>10.3g}{max(units) * 1e9:>10.3g}")
    print()
    # The last run's timings, judged under the median constants.
    estimated = rows @ np.array([1.0] + [fitted[n] for n in FITTED]) * unit
    errors = np.abs(estimated - seconds) / seconds
    print(f"{'backend':<18}{'runs':>6}{'median rel. error':>19}")
    for name in sorted({name for _, name, _ in samples}):
        mine = [e for e, (_, n, _) in zip(errors, samples) if n == name]
        print(f"{name:<18}{len(mine):>6}{float(np.median(mine)):>19.2f}")
    print()
    print(f"{'routing':<10}{'chosen ms/q':>13}{'fastest ms/q':>14}"
          f"{'misrouted':>11}")
    for label, model in (("PAPER", CostModel(**CostModel.PAPER)),
                         ("fitted", CostModel(**fitted))):
        names = [chosen(executor, model, query) for query in queries]
        picked = [times[name] for name, times in zip(names, measured)]
        fastest = [min(times, key=times.get) for times in measured]
        wrong = sum(name != best for name, best in zip(names, fastest))
        print(f"{label:<10}{np.mean(picked) * 1e3:>13.3f}"
              f"{np.mean([min(t.values()) for t in measured]) * 1e3:>14.3f}"
              f"{wrong:>8}/{len(queries)}")
    print()
    print("# fitted constants (pass to your executor):")
    print("CostModel(")
    for name, value in fitted.items():
        print(f"    {name}={value!r},")
    print(f"    unit_seconds={float(f'{unit:.2g}')!r},")
    print(")")
    # Sanity only — an offline tool must not gate CI on machine speed.
    CostModel(**fitted, unit_seconds=unit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
