"""Self-test of the e2e benchmark at tiny sizes (not part of tier-1).

    PYTHONHASHSEED=0 python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import measure  # noqa: E402
from layers import trace  # noqa: E402
from oracle import Oracle, shape_error  # noqa: E402
from workloads import WORKLOADS, build, encode_ops, pass_ops  # noqa: E402

TINY = {"tuples": 2000, "ops": 16}

#: Counts that must repeat exactly for a seed (one caller, no timers).
EXACT = ("net.bytes_per_op", "net.refused", "serve.batch_size",
         "serve.fused_group_size", "shard.legs_per_query",
         "shard.pruned_per_query", "shard.skipped_per_query",
         "shard.rebuilds_per_insert", "engine.result_hit_rate",
         "engine.fused_share", "backend.tuples_per_query",
         "backend.states_per_query", "backend.peak_heap",
         "storage.pages_per_query")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tiny_oracles():
    return {name: Oracle.of(build(workload, TINY["tuples"]).relation)
            for name, workload in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_stream_follows_the_seed(name, tiny_oracles):
    workload, oracle = WORKLOADS[name], tiny_oracles[name]
    first = encode_ops(pass_ops(workload, oracle, 7, 1, 64))
    assert first == encode_ops(pass_ops(workload, oracle, 7, 1, 64))
    assert first != encode_ops(pass_ops(workload, oracle, 8, 1, 64))
    assert first != encode_ops(pass_ops(workload, oracle, 7, 2, 64))


def test_oracle_catches_a_planted_wrong_tid(tiny_oracles):
    stack = build(WORKLOADS["sweep_heavy"], TINY["tuples"])
    oracle = tiny_oracles["sweep_heavy"]
    checked = set()
    for op in pass_ops(WORKLOADS["sweep_heavy"], oracle, 3, 1, 10):
        query = op.queries[0]
        result = stack.engine.execute(query)
        assert shape_error(query, result, oracle.rows) is None
        assert oracle.mismatch(query, result) is None
        wrong = list(result.tids)
        wrong[-1] = (wrong[-1] + 1) % oracle.rows
        if wrong[-1] in result.tids[:-1]:
            continue
        planted = dataclasses.replace(result, tids=tuple(wrong))
        assert oracle.mismatch(query, planted) is not None
        checked.add(type(query).__name__)
    assert checked == {"TopKQuery", "SkylineQuery"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_run_emits_exactly_the_declared_metrics(name, spec):
    report = asyncio.run(measure(WORKLOADS[name], 5, 0.2, min_passes=2,
                                 setups=1, **TINY))
    assert sorted(report["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"])
    assert all(value > 0 for value in report["metrics"].values())
    assert report["ops_failed"] == 0 and report["ops_attempted"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_repeats_its_counts_and_telescopes(name, spec):
    first = asyncio.run(trace(WORKLOADS[name], 5, **TINY))
    second = asyncio.run(trace(WORKLOADS[name], 5, **TINY))
    assert sorted(first["metrics"]) == sorted(
        m["name"] for m in spec["per_layer"])
    assert first["ops_failed"] == 0
    for metric in EXACT:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["trace.telescoping_error"] < 0.01
    assert abs(sum(first["shares"].values()) - 1.0) < 1e-9
    if not WORKLOADS[name].sharded:
        assert first["metrics"]["shard.self_ms"] == 0.0
