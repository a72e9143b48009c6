"""Check that the benchmark is steady enough for its own bounds.

Runs the benchmark command once per seed on each named workload, one
run at a time, and prints for every end-to-end metric its median and its
spread: the interquartile distance as a share of the median.  A spread
must stay within the metric's bound and should stay below a third of
it.  The runs are untraced: only end-to-end metrics have bounds.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 converge scale serve verify
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", "0",
                ],
                stdout=subprocess.PIPE,
                text=True,
                timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.5g}"
                    for n, m in result["metrics"].items()
                ),
                flush=True,
            )
        for name, series in values.items():
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                share = spread / bound
                worst = max(worst, share)
                verdict = f"  {share:.2f} of bound {bound}"
            print(
                f"  {workload:9} {name:24} median {median(series):12.6g}"
                f"  spread {spread:.4f}{verdict}",
                flush=True,
            )
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
