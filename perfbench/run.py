#!/usr/bin/env python3
"""Build the benchmark and the `ompgpu` binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 10 --trace 0

Workloads: verify-small, verify-bench, inspect-bench, serve-mix. The last
line of standard output is the result object; see perfbench/README.md.
Build output goes to $CARGO_TARGET_DIR (default: .bench_build), scratch
files (sockets, access logs, traces, detail records) to .bench_out.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "omp-gpu", "--bin", "ompgpu"],
    ]
    for cmd in builds:
        # Cargo's own output goes to stderr; stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--ompgpu", os.path.join(release, "ompgpu"),
           "--root", ".", "--out", ".bench_out"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
