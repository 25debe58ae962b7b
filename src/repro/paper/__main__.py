"""``python -m repro.paper list-experiments`` prints every experiment id;
``run-experiments [--only id,id,...] [--output report.md]`` runs them and
prints (or writes) a markdown report."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.paper import bench
from repro.paper.bench.report import build_report, run_experiments


def _cmd_list_experiments(_: argparse.Namespace) -> int:
    width = max(len(name) for name in bench.ALL_EXPERIMENTS)
    for name, fn in sorted(bench.ALL_EXPERIMENTS.items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        print(f"{name.ljust(width)}  {doc}")
    return 0


def _cmd_run_experiments(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None

    def progress(name: str, seconds: float) -> None:
        print(f"[{name}] finished in {seconds:.1f}s", file=sys.stderr)

    try:
        results = run_experiments(bench.ALL_EXPERIMENTS, only=only,
                                  progress=progress)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(results, title="Ranking-cube reproduction — measured series")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.paper",
        description="Ranking-cube reproduction: the per-figure experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments",
                   help="list every per-figure experiment").set_defaults(
        handler=_cmd_list_experiments)

    run = sub.add_parser("run-experiments", help="run experiments, emit markdown")
    run.add_argument("--only", help="comma-separated experiment ids (default: all)")
    run.add_argument("--output", help="write the markdown report to this file")
    run.set_defaults(handler=_cmd_run_experiments)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
