#!/usr/bin/env python3
"""Builds and runs the privcluster benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload admit_small --seed 1 --seconds 10 --trace 0

It builds the release `serve` binary and the `perfbench` client from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the client, whose
last stdout line is the JSON result. Build output goes to stderr. Any other
arguments (for example `compare A.json B.json`) are passed to the client.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": target})
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "server", "Cargo.toml")):
        fail(f"no privcluster workspace at {ROOT}: the benchmark builds the service from source")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target, "-p", "privcluster-server", "--bin", "serve")
    build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    out = os.path.join(target, "perfbench")
    os.makedirs(out, exist_ok=True)
    client = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args = ["--serve", os.path.join(target, "release", "serve"), "--out", out, *args]
    sys.exit(subprocess.run([client, *args], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
