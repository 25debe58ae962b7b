"""Tiny-N smoke tests for ``benchmarks/calibrate_cost_model.py``.

The calibration script is runnable by hand only; without a test-suite
smoke it can rot silently against engine API changes.  It takes a
``--tuples`` override exactly so these tests can drive it at sizes that
finish in well under a second: the ``CostModel(**constants)`` snippet it
prints must construct, and ``--metrics`` must summarize an engine's
``planner.*`` cost feedback.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys

import pytest

from repro.engine import CostModel

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def load_benchmark(name: str):
    """Import a benchmark script (not a package module) by file name."""
    path = os.path.join(BENCH_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCalibrateCostModel:
    def test_emits_valid_cost_model_snippet(self, capsys):
        calibrate = load_benchmark("calibrate_cost_model")
        assert calibrate.main(["--quick", "--tuples", "500",
                               "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        # The operator-facing contract: a ready-to-paste
        # ``CostModel(**constants)`` snippet whose constants construct.
        snippet = re.search(
            r"^CostModel\(\n((?:\s+\w+=\S+,\n)+)\)$", out, re.MULTILINE)
        assert snippet is not None, f"no CostModel snippet in output:\n{out}"
        constants = {}
        for line in snippet.group(1).strip().splitlines():
            name, value = line.strip().rstrip(",").split("=")
            constants[name] = float(value)
        assert set(constants) == {
            "row_filter_cost", "posting_cost", "match_cost",
            "block_touch_cost", "compare_cost", "grid_query_cost",
            "cuboid_query_cost", "skyline_scan_query_cost", "unit_seconds"}
        model = CostModel(**constants)
        for name, value in constants.items():
            assert getattr(model, name) == pytest.approx(value)
            assert value > 0.0

    def test_unknown_constant_would_fail(self):
        # The snippet's validity is meaningful because CostModel rejects
        # misspelled constants loudly.
        with pytest.raises(ValueError):
            CostModel(block_tuch_cost=1.0)


class TestCalibrateMetricsOption:
    def test_metrics_snapshot_is_summarized(self, capsys, tmp_path):
        import json

        from repro.engine import Executor
        from repro.functions import LinearFunction
        from repro.query import Predicate, TopKQuery
        from repro.workloads import SyntheticSpec, generate_relation

        relation = generate_relation(SyntheticSpec(
            num_tuples=400, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=51))
        engine = Executor.for_relation(relation, block_size=50)
        for value in range(4):
            engine.execute(TopKQuery(
                Predicate.of(A1=value % 4),
                LinearFunction(["N1", "N2"], [1.0, 1.0]), 3))
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(json.dumps(engine.metrics_snapshot()))

        calibrate = load_benchmark("calibrate_cost_model")
        assert calibrate.main(["--quick", "--tuples", "500", "--repeats", "1",
                               "--metrics", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "per-backend cost feedback" in out
        assert "misestimates (>4x off)" in out


class TestCalibrateRunsOption:
    def test_two_fits_print_each_constants_median_and_range(self, capsys):
        calibrate = load_benchmark("calibrate_cost_model")
        assert calibrate.main(["--quick", "--tuples", "500", "--repeats", "1",
                               "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fits=2" in out
        table = {}
        for line in out.splitlines():
            fields = line.split()
            if fields and fields[0] in calibrate.FITTED:
                table[fields[0]] = [float(v) for v in fields[1:]]
        assert set(table) == set(calibrate.FITTED)
        for name, (fitted, _, paper, low, high) in table.items():
            assert paper == pytest.approx(CostModel.PAPER[name], rel=1e-2)
            assert 0.0 < low <= high
            # The median of two fits, rounded to two significant digits.
            assert 0.9 * low <= fitted <= 1.1 * high
        assert re.search(r"^CostModel\($", out, re.MULTILINE)

    def test_runs_below_one_are_refused(self):
        calibrate = load_benchmark("calibrate_cost_model")
        with pytest.raises(SystemExit):
            calibrate.main(["--runs", "0"])
