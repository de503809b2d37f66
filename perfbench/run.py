#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <table2|sigma-sweep|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo's build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The build honours CARGO_TARGET_DIR (default
perfbench/target); traced runs write their spans next to the binary, under
<target dir>/perfbench-traces/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("the library sources are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    target = os.path.join(ROOT, target)  # a relative target dir is relative to the root
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest, "--bin", "perfbench",
    ]
    try:
        done = subprocess.run(build, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--trace-dir", os.path.join(target, "perfbench-traces")]
    try:
        done = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
