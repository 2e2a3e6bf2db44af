#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the files `run.py --record DIR` writes, one per run.
Runs pair up by workload, seed and repetition, so record the same seeds on
both sides, alternating which side runs first (README.md shows a loop). For
every workload and metric it prints each side's median and quartiles and
how many pairs the change won, and for end-to-end metrics a verdict:

  improved      the change won at least 9 pairs in 10 (ties count for
                neither side), over at least 10 pairs, and the medians
                differ by more than the parent's own quartile spread;
  within bound  the change's median is no worse than the parent's by more
                than the metric's bound, and the parent's spread (quartile
                distance over median) is within that bound;
  unresolved    the change's median is no worse than the bound allows, but
                the parent's spread is wider than the bound, so "no worse"
                cannot be told apart from noise;
  regressed     the change's median is worse by more than the bound, however
                wide the parent's spread.

A change whose every run beats every parent run is never unresolved. Per-
layer metrics (from --trace 1 runs) get medians and wins but no verdict:
they have no bound. Exits 1 if any metric regressed or the change failed
more operations than the parent. Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory):
    """{(workload, trace): {(seed, k): record}}"""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        # run.py names files <workload>-seed<n>-trace<t>-<k>.json
        trace = int(path.stem.rsplit("-", 2)[1].removeprefix("trace"))
        k = int(path.stem.rsplit("-", 1)[1])
        runs[(record["workload"], trace)][(record["seed"], k)] = record
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, wins, pairs, spec):
    p_q1, p_med, p_q3 = summary(parent)
    c_med = statistics.median(change)
    direction, bound = spec["better"], spec["bound"]
    if (pairs >= MIN_PAIRS and wins >= 0.9 * pairs
            and better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    if all(better(c, p, direction) for c in change for p in parent):
        return "within bound"
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if worse > bound * abs(p_med):
        return "regressed"
    if p_med == 0 or (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    return "within bound"


def fmt(values):
    q1, med, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs, c_runs = parent.get((workload, trace), {}), change.get((workload, trace), {})
            keys = sorted(p_runs.keys() & c_runs.keys())
            if not keys:
                continue
            p_failed = sum(p_runs[k]["failed"] for k in keys)
            c_failed = sum(c_runs[k]["failed"] for k in keys)
            print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
                  f"{len(keys)} pairs, failed operations parent {p_failed} "
                  f"change {c_failed}"
                  + ("" if len(keys) >= MIN_PAIRS else
                     f" (fewer than {MIN_PAIRS} pairs: no gain can be claimed)"))
            if c_failed > p_failed:
                print("  the change failed more operations than the parent")
                status = 1
            print(f"  {'metric':38s} {'parent median [q1, q3]':>30s} "
                  f"{'change median [q1, q3]':>30s}  wins  verdict")
            for m in metrics:
                p_vals = [p_runs[k]["metrics"][m["name"]]["value"] for k in keys]
                c_vals = [c_runs[k]["metrics"][m["name"]]["value"] for k in keys]
                wins = sum(better(c, p, m["better"]) for p, c in zip(p_vals, c_vals))
                result = (verdict(p_vals, c_vals, wins, len(keys), m)
                          if "bound" in m else "-")
                if result == "regressed":
                    status = 1
                print(f"  {m['name']:38s} {fmt(p_vals):>30s} {fmt(c_vals):>30s} "
                      f"{wins:3d}/{len(keys):<3d} {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
