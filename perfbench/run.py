#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload triage_cold --seed 1 --seconds 20 --trace 0

The first run configures a Release build in .bench_build (or in
$CARGO_TARGET_DIR when set) with the benchmark attached to the repository's
own CMake project, and builds the `ideobf` CLI and the benchmark binary;
later runs rebuild incrementally. The binary's report and its final JSON
line go to stdout; build output goes to stderr. Exits nonzero, without a
result line, when the tree cannot be built or measured.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("triage_cold", "serve_campaign", "serve_fresh")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds the benchmark binary and the CLI it spawns."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ".", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "cmake", "attach.cmake")],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench", "perfbench_driver")


def git(*args):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the sources the measured binaries are built from."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "include", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the repository root: its sources are not here")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    env = dict(os.environ)
    sha = git("rev-parse", "HEAD")
    env["PERFBENCH_GIT_SHA"] = sha or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    env["PERFBENCH_GIT_DIRTY"] = "unknown" if status is None else str(bool(status)).lower()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", build_dir],
        env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
