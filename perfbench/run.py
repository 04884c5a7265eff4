#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload amplab_files --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30     # one row per BENCHMARK.json workload
    python3 perfbench/run.py --selftest             # checks of the result checks

The engine is compiled from ../src with perfbench/CMakeLists.txt into
.bench_build/perfbench at the repository root. Build output goes to stderr;
the last line of stdout is the benchmark's result object.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def run_bench(exe, args):
    work = ROOT / ".bench_build" / "perfbench-work" / f"{os.getpid()}"
    cmd = [str(exe), "--work-dir", str(work)] + args
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("give --workload, --all or --selftest")

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        proc = run_bench(exe, ["--selftest"])
        sys.stdout.write(proc.stdout)
        return proc.returncode

    if args.all:
        with open(ROOT / "BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]
    rows = []
    for name in workloads:
        spans = ROOT / ".bench_build" / "perfbench-spans" / f"{name}.jsonl"
        proc = run_bench(exe, ["--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace),
                                   "--spans-out", str(spans)])
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        if not args.all:
            sys.stdout.write(proc.stdout)
            return 0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))

    names = list(rows[0][1]["metrics"])
    header = ["workload", "correct", "failed/attempted"] + [
        f"{n} [{rows[0][1]['metrics'][n]['unit']}]" for n in names]
    print("\t".join(header))
    for name, result in rows:
        cells = [name, str(result["correct"]).lower(),
                 f"{result['failed']}/{result['attempted']}"]
        cells += [f"{result['metrics'][n]['value']:.6g}" for n in names]
        print("\t".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
