"""A/A noise study: does the benchmark repeat on this box?

Runs the full benchmark as two sets (A, B) of ``--runs`` invocations of
the *same tree*, alternating A, B, A, B, ... with a different ``--seed``
for every invocation — the way the driver checks it — and prints, per
workload x end-to-end metric: both medians, both quartile ranges as a
share of their median, how much worse B's median is than A's, and the
bound from ``BENCHMARK.json``.  The bounds in that file come from this
table: each at least twice the observed A/B difference, with every
spread below a third of it.

    python benchmarks/e2e/noise.py [--runs 10] [--workloads a,b]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="invocations per set (>= 5; the driver uses 10)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", default=None,
                        help="write every run's raw metrics to this file")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = float(spec["run_seconds"])

    print(f"{'workload':12s} {'metric':13s} {'median A':>11s} {'median B':>11s} "
          f"{'iqr A':>7s} {'iqr B':>7s} {'B worse':>8s} {'bound':>6s}  verdict")
    held = True
    raw = {}
    for workload in names:
        sets = raw[workload] = {"A": [], "B": []}
        for index in range(2 * args.runs):
            sets["AB"[index % 2]].append(
                one_run(workload, args.first_seed + index, seconds))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            widest = max(spread(a), spread(b))
            ok = worse <= bound and (name == "setup_s" or widest <= bound)
            held = held and ok
            verdict = ("FAILS" if not ok else
                       "ok" if name == "setup_s" or widest <= bound / 3
                       else "ok (spread above bound/3)")
            print(f"{workload:12s} {name:13s} {median_a:11.4f} {median_b:11.4f} "
                  f"{spread(a):7.1%} {spread(b):7.1%} {worse:+8.1%} "
                  f"{bound:6.2f}  {verdict}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(raw, handle, indent=2)
    return 0 if held else 1


if __name__ == "__main__":
    raise SystemExit(main())
