#!/usr/bin/env python3
"""Summarise benchmark result files, or compare two commits.

    python3 perfbench/compare.py DIR              # one set of runs
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each DIR holds the `<workload>-seed<n>-trace0.json` files that run.py writes
to `.perfbench_out/` in the checkout it ran in. One set prints, per workload
and metric, the median, the quartiles and the quartile spread as a share of
the median. Two sets pair runs by workload and seed and print, per metric:
both medians, the change in percent (positive is better), the share of pairs
the change won, and a verdict by the rules in perfbench/README.md.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # fewer pairs never support a claimed gain


def load(directory):
    """{workload: {seed: {metric: value}}} from the untraced result files."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        if not record["result"]["correct"]:
            print(f"warning: {path} reports failed operations", file=sys.stderr)
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarise(runs):
    for workload, by_seed in sorted(runs.items()):
        print(f"{workload}: {len(by_seed)} runs")
        for metric in sorted(next(iter(by_seed.values()))):
            values = [m[metric] for m in by_seed.values() if metric in m]
            q1, q2, q3 = quartiles(values)
            print(f"  {metric:24s} median {statistics.median(values):12.4f}  "
                  f"q1 {q1:12.4f}  q3 {q3:12.4f}  spread {(q3 - q1) / q2:7.2%}")


def compare(parent, change, spec):
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        print(f"{workload}: {len(seeds)} paired seeds")
        for metric, (better, bound) in spec.items():
            pairs = [(parent[workload][s][metric], change[workload][s][metric])
                     for s in seeds if metric in parent[workload][s]
                     and metric in change[workload][s]]
            if not pairs:
                continue
            sign = 1.0 if better == "higher" else -1.0
            p_vals, c_vals = [p for p, _ in pairs], [c for _, c in pairs]
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            q1, _, q3 = quartiles(p_vals)
            gain = sign * (c_med - p_med) / p_med
            wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
            if len(pairs) >= MIN_PAIRS and wins >= 0.9 and abs(c_med - p_med) > q3 - q1:
                verdict = "gain"
            elif -gain > bound:
                verdict = "REGRESSION"
            elif (q3 - q1) / p_med > bound and wins < 1.0:
                verdict = "unresolved"
            else:
                verdict = "no change"
            print(f"  {metric:24s} {p_med:12.4f} -> {c_med:12.4f}  {gain:+7.2%}  "
                  f"won {wins:4.0%}  {verdict}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        summarise(load(argv[0]))
        return 0
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    compare(load(argv[0]), load(argv[1]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
