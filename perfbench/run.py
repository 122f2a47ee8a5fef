#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

All arguments are passed to the binary (see perfbench/README.md). The
binary, the Go build cache and traced runs' span files go to the
directory named by CARGO_TARGET_DIR, default .bench_build, so a run
writes nothing outside the checkout. The last line of standard output is
the run's result as JSON; a run that cannot build or complete prints no
result and exits non-zero.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["serve-batched", "serve-ingest", "traverse"]


def build(root):
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", binary, "."],
                          cwd=os.path.join(root, "perfbench"), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout)
        sys.exit(3)
    return binary


def run_all(binary, args):
    """Runs every workload with the given arguments and prints a combined
    result whose metric names are prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        proc = subprocess.run([binary, "--workload", w] + args,
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            code = proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "/" + name] = m
    print(json.dumps(combined))
    return code


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = sys.argv[1:]
    binary = build(root)
    if "all" in args and args[args.index("all") - 1] == "--workload":
        i = args.index("all")
        return run_all(binary, args[:i - 1] + args[i + 1:])
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
