#!/usr/bin/env python3
"""Runs the ChainNet benchmark of record (see README.md).

One run, the form BENCHMARK.json's command takes:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds bench_chainnet from source into .bench_build/perfbench on first use,
runs the workload, and prints as its last line one JSON object holding the
metrics BENCHMARK.json names: the end_to_end ones with --trace 0, the
per_layer ones with --trace 1 (which also writes a Chrome trace file).

    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]

runs every workload in turn, prints one "workload metric value unit" line per
metric, and exits 1 if any correctness check failed.

    python3 perfbench/run.py --smoke [--binary path]

runs every workload briefly, traced, on shrunken inputs and checks that each
metric BENCHMARK.json names is printed with a finite value.

--record DIR also saves each result line to DIR for compare.py.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then rebuilds incrementally; build output goes to
    stderr so stdout keeps only results."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                     str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                       "bench_chainnet", "-j", jobs],
                      stdout=sys.stderr).returncode:
        raise BenchError("build failed")
    return BUILD_DIR / "bench_chainnet"


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns bench_chainnet's full result document."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    result_path = OUT_DIR / f"{stem}-trace{int(trace)}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(result_path)]
    if trace:
        cmd += ["--trace", str(OUT_DIR / f"trace-{stem}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode:
        raise BenchError(f"{workload} exited with {proc.returncode}")
    with open(result_path) as f:
        return json.load(f)


def select(result, names):
    """The result line with exactly the named metrics, units checked."""
    metrics = {}
    for spec in names:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise BenchError(f"{result['workload']}: no metric {spec['name']}")
        if got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            raise BenchError(f"{result['workload']}: bad {spec['name']}: {got}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def record(directory, workload, seed, trace, line):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    k = 0
    while (path := directory / f"{workload}-seed{seed}-trace{trace}-{k}.json").exists():
        k += 1
    path.write_text(json.dumps(dict(line, workload=workload, seed=seed)) + "\n")


def smoke(binary, spec):
    both = spec["end_to_end"] + spec["per_layer"]
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            line = select(run_binary(binary, workload, 1, 0.3, True, smoke=True),
                          both)
            ok = line["correct"]
            print(f"{workload}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} attempted, {line['failed']} failed")
        except BenchError as e:
            print(f"{workload}: {e}")
            ok = False
        failures += not ok
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_chainnet, skip the build")
    parser.add_argument("--record", metavar="DIR")
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in workloads + ["all"]:
        parser.error(f"--workload must be one of {', '.join(workloads)} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = Path(args.binary) if args.binary else build()
        if args.smoke:
            return smoke(binary, spec)
        if args.workload != "all":
            line = select(run_binary(binary, args.workload, args.seed,
                                     seconds, args.trace), names)
            if args.record:
                record(args.record, args.workload, args.seed, args.trace, line)
            print(json.dumps(line))
            return 0
        all_correct = True
        for workload in workloads:
            line = select(run_binary(binary, workload, args.seed, seconds,
                                     args.trace), names)
            if args.record:
                record(args.record, workload, args.seed, args.trace, line)
            all_correct = all_correct and line["correct"]
            print(f"{workload} correct {str(line['correct']).lower()} "
                  f"({line['attempted']} attempted, {line['failed']} failed)")
            for name, m in line["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        return 0 if all_correct else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
