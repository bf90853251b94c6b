#!/usr/bin/env python3
"""Build and run the RnR-Safe end-to-end benchmark.

    python3 e2ebench/run.py --workload attack-storm --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seconds 5

Run from the repository root. The first run configures and builds the
benchmark package (this directory, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build; later runs find it built. The last
stdout line is the result JSON of e2ebench (see README.md).

--workload all runs every workload with tracing off and on and prints
every metric by name with its unit, then one merged JSON line.

--save FILE writes the result plus the host shape (host_cpus, the
workload's threads). --baseline FILE compares this run against such a
file and refuses, with exit code 3, when the host shape differs.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["attack-storm", "steady-record", "fleet-fp"]
RUN_TIMEOUT_S = 170


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure and build into the build directory; return the binary."""
    out = build_dir() / "e2ebench"
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(build_dir() / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--parallel", "4"])
        for step in steps:
            proc = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(step))
                sys.exit(1)
    return out / "e2ebench"


def run_one(binary, workload, seed, seconds, trace):
    """Run e2ebench once; echo its output; return the parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s timed out\n" % workload)
        sys.exit(1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: e2ebench exited with %d\n" % proc.returncode)
        sys.exit(1)
    return lines, json.loads(lines[-1])


def host_shape(lines):
    """host_cpus and threads from e2ebench's header line."""
    match = re.search(r"host_cpus (\d+) threads (\d+)", lines[0])
    return {"host_cpus": int(match.group(1)), "threads": int(match.group(2))}


def compare(result, shape, workload, baseline_path):
    """Refuse a baseline from another host shape, else print deltas."""
    base = json.loads(Path(baseline_path).read_text())
    if base.get("workload") != workload:
        sys.stderr.write("run.py: baseline is for workload %s, not %s\n"
                         % (base.get("workload"), workload))
        sys.exit(3)
    for key in ("host_cpus", "threads"):
        if base.get(key) != shape[key]:
            sys.stderr.write("run.py: refusing to compare: baseline %s %s, "
                             "this run %s\n" % (key, base.get(key),
                                                shape[key]))
            sys.exit(3)
    for name, metric in result["metrics"].items():
        old = base["result"]["metrics"].get(name)
        if old is None or old["value"] == 0:
            continue
        change = (metric["value"] - old["value"]) / old["value"]
        print("%-32s %14.4f -> %14.4f %-8s %+7.1f%%"
              % (name, old["value"], metric["value"], metric["unit"],
                 100 * change))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        lines, result = run_one(binary, args.workload, args.seed,
                                args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        shape = host_shape(lines)
        if args.save:
            record = dict(shape, workload=args.workload, seed=args.seed,
                          trace=args.trace, result=result)
            Path(args.save).write_text(json.dumps(record, indent=1) + "\n")
        if args.baseline:
            compare(result, shape, args.workload, args.baseline)
        print(lines[-1])
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_one(binary, workload, args.seed, args.seconds,
                                trace)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            print("== %s trace %d: %d of %d checks failed"
                  % (workload, trace, result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                print("  %-32s %16.4f %s" % (name, metric["value"],
                                             metric["unit"]))
                merged["metrics"][workload + "/" + name] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
