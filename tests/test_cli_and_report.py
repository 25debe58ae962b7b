"""Tests for the CLI, the report generator, and the hierarchical-index helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paper.bench.harness import ExperimentResult
from repro.paper.bench.report import build_report, result_to_markdown, run_experiments
from repro.cli import build_parser, main
from repro.paper.__main__ import main as paper_main
from repro.paper.btree import BPlusTree
from repro.paper.hierindex import LeafEntry, NodeHandle
from repro.geometry import Box


def tiny_result() -> ExperimentResult:
    result = ExperimentResult("fig0.1", "toy experiment", "x", ("metric",))
    result.add("alpha", 1, metric=2.0)
    result.add("beta", 1, metric=4.0)
    return result


class TestReport:
    def test_markdown_table(self):
        markdown = result_to_markdown(tiny_result())
        assert "### fig0.1" in markdown
        assert "| alpha | 1 | 2.0000 |" in markdown

    def test_run_experiments_selection_and_progress(self):
        calls = []
        registry = {"fig0.1": tiny_result, "fig0.2": tiny_result}
        results = run_experiments(registry, only=["fig0.2"],
                                  progress=lambda name, secs: calls.append(name))
        assert len(results) == 1
        assert calls == ["fig0.2"]
        with pytest.raises(KeyError):
            run_experiments(registry, only=["nope"])

    def test_build_report(self):
        report = build_report([tiny_result(), tiny_result()], title="Report")
        assert report.startswith("# Report")
        assert report.count("### fig0.1") == 2


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_experiments(self, capsys):
        assert paper_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig3.4" in out and "fig7.6" in out

    def test_demo_sharded(self, capsys):
        assert main(["demo", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "scatter/gather over 3 range shards" in out
        assert "backend: scatter-gather" in out
        assert "shards consulted:" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "top-5" in out and "block accesses" in out

    def test_serve_sharded(self, capsys):
        assert main(["serve", "--clients", "3", "--queries", "3",
                     "--linger", "2"]) == 0
        out = capsys.readouterr().out
        assert "scatter/gather over 3 range shards" in out
        assert "served 9 queries from 3 concurrent clients" in out
        # Shutdown prints the merged metrics registry as JSON, spanning
        # every layer of the stack.
        assert '"serve.completed"' in out
        assert '"shard.legs_run"' in out
        assert '"engine.tuples_evaluated"' in out

    def test_serve_unsharded(self, capsys):
        assert main(["serve", "--shards", "1", "--clients", "2",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine: unsharded" in out
        assert "served 4 queries from 2 concurrent clients" in out
        assert '"serve.completed"' in out
        assert '"engine.queries"' in out

    def test_analyze_served_sharded(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "serve.queue_wait" in out
        assert "shard.leg" in out
        assert "shard.gather" in out
        assert "engine.plan" in out
        assert "estimated cost vs actual tuples evaluated:" in out

    def test_analyze_direct_unsharded(self, capsys):
        assert main(["analyze", "--shards", "1", "--direct"]) == 0
        out = capsys.readouterr().out
        assert "engine.explain_analyze" in out
        assert "engine.plan" in out
        assert "cost_estimates=" in out

    def test_run_experiments_unknown_id(self, capsys):
        assert paper_main(["run-experiments", "--only", "not-a-figure"]) == 2

    def test_run_experiments_to_file(self, tmp_path, monkeypatch, capsys):
        # Patch the registry so the CLI runs a cheap fake experiment.
        import repro.paper.bench as bench

        monkeypatch.setattr(bench, "ALL_EXPERIMENTS", {"fig0.1": tiny_result})
        target = tmp_path / "report.md"
        assert paper_main(["run-experiments", "--only", "fig0.1",
                           "--output", str(target)]) == 0
        assert "### fig0.1" in target.read_text()


class TestHierarchicalIndexHelpers:
    def test_node_handle_and_leaf_entry(self):
        box = Box.from_bounds(["x"], [0], [1])
        handle = NodeHandle(page_id=7, box=box, is_leaf=True, level=1, path=(1, 2))
        assert handle.depth == 2
        entry = LeafEntry(tid=3, values=(0.5,), position=1)
        assert entry.values == (0.5,)

    def test_iter_nodes_and_count(self):
        values = np.linspace(0, 1, 120)
        tree = BPlusTree.build("x", values, fanout=8)
        nodes = list(tree.iter_nodes())
        assert nodes[0].path == ()
        assert len(nodes) == tree.node_count()
        assert len(list(tree.iter_tuple_paths())) == 120
        leaf_levels = {node.level for node in nodes if node.is_leaf}
        assert leaf_levels == {1}
