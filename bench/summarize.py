#!/usr/bin/env python3
"""Median, quartiles and spread of repeated benchmark runs.

    python3 bench/summarize.py bench/out/*-trace0.json
    python3 bench/summarize.py --json bench/out/*-trace0.json > bench/BENCH_<n>.json

Groups the result files that bench/run.py writes by workload and prints, for
each end-to-end metric, the median, the first and third quartiles and the
spread (q3 - q1) / median, beside the metric's bound from BENCHMARK.json.
With --json, prints the same figures with the runs' environment as one JSON
object: the form of the BENCH_<n>.json trajectory points.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    env = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        env = {k: v for k, v in result["env"].items() if k != "seed"}
        seeds[result["workload"]].append(result["env"]["seed"])
        for name, metric in result["end_to_end"].items():
            values[result["workload"]][name].append((metric["value"], metric["unit"]))
    workloads = {}
    for workload, metrics in sorted(values.items()):
        workloads[workload] = {"seeds": sorted(seeds[workload]), "metrics": {}}
        for name, series in metrics.items():
            numbers = [value for value, _ in series]
            med = statistics.median(numbers)
            q1, _, q3 = (statistics.quantiles(numbers, n=4) if len(numbers) > 1
                         else (med, med, med))
            workloads[workload]["metrics"][name] = {
                "unit": series[0][1], "runs": len(numbers), "median": med,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            }
    return {"env": env, "time": "reference seconds", "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, entry in summary["workloads"].items():
        print(f"{workload} (seeds {entry['seeds']})")
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            wide = bound is not None and name != "setup_s" and s["spread"] >= bound / 3
            print(f"  {name:30} n={s['runs']:<3} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} "
                  f"spread {s['spread']:7.4f} bound {bound}{'  WIDE' if wide else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
