#!/usr/bin/env python3
"""Builds and runs the socket-path benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload origin-read --seed 1 --seconds 10 --trace 0

The benchmark binary is built from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, both relative to the current directory. Build output goes to stderr;
the binary's report goes to stdout and its last line is the JSON result.
Span dumps of traced runs land in the same build directory under traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("origin-read", "write-invalidate", "sdk-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sources to build: {os.path.join(ROOT, 'src')} is missing")
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if not os.path.isfile(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    import hashlib
    digest = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", source_id(), "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
