"""The repo's benchmark: one workload, one seed, end to end over real TCP.

    python benchmarks/e2e/run.py --workload NAME --seed S            # end to end
    python benchmarks/e2e/run.py --workload NAME --seed S --traced   # layer ledger

Builds the stack in-process (``generate_relation`` → ``Executor`` or
sharded engine → ``QueryService`` → ``QueryServer`` on an ephemeral
loopback port), drives it with ``AsyncQueryClient`` as a single caller,
checks answers against a brute-force oracle, prints every metric by name
with its unit, and ends with one JSON line the driver parses.  Metric
names, units and bounds live in ``BENCHMARK.json``; see ``README.md``
next to this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "pinned_to": (sorted(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
            "commit": commit, "seed": seed,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def finite(value: float) -> float:
    """JSON has no infinity; a latency every op missed reads as the
    largest float."""
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured pass time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1: print the layer ledger")
    parser.add_argument("--out", default=None,
                        help="also write the full report (raw per-pass "
                             "values, environment) to this JSON file")
    parser.add_argument("--spans", default=None,
                        help="traced run: where the spans go as JSON lines "
                             "(default: benchmarks/e2e/out/)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") is None:
        # Set iteration order (and so a few heap/tie orders inside the
        # program) follows the hash seed; pin it so runs repeat.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if hasattr(os, "sched_setaffinity"):
        # One caller with one request in flight is serial work handed
        # between the loop thread and the engine thread.  On one CPU that
        # hand-off is a plain context switch; across two vCPUs it is a
        # wake-up whose cost follows whatever the host is doing to the
        # other vCPU, which no yardstick on this thread can see.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    spec = declared()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(WORKLOADS)}")
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        raise SystemExit("BENCHMARK.json and workloads.py disagree on "
                         "the workload names")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace or args.traced)
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])

    if traced:
        from layers import trace

        spans_path = args.spans
        if spans_path is None:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans_path = os.path.join(HERE, "out",
                                      f"spans_{workload.name}.jsonl")
        report = asyncio.run(trace(workload, args.seed,
                                   spans_path=spans_path))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        from harness import measure

        report = asyncio.run(measure(workload, args.seed, seconds))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    metrics = report["metrics"]
    if sorted(metrics) != sorted(units):
        raise SystemExit(
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    report.update({"workload": workload.name, "traced": traced,
                   "seconds": seconds, "environment": environment(args.seed)})

    print(f"# {workload.name}  seed={args.seed}  "
          f"{'traced' if traced else f'{seconds:g}s measured'}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]}")
    for key in ("requests_timed", "passes", "ops_per_pass", "slice_ops",
                "repeats", "ops_attempted", "ops_failed"):
        if key in report:
            print(f"{key:32s} {report[key]:14}")
    for why in report["errors"]:
        print(f"FAILED: {why}", file=sys.stderr)
    if traced:
        print(" | ".join(f"{name} {share * 100:.0f}%"
                         for name, share in report["shares"].items()))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    correct = report["ops_failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["ops_attempted"]),
        "failed": int(report["ops_failed"]),
        "metrics": {name: {"value": finite(float(value)),
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
