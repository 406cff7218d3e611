#!/usr/bin/env python3
"""Builds and runs the service benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload query_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) in an optimized build under the build
directory ($CARGO_TARGET_DIR, else .bench_build); later runs rebuild only
what changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Exits non-zero when the build fails, the build is
not optimized, or any answer is wrong.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cache_value(cache_path, key):
    try:
        with open(cache_path) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    binary_dir = os.path.join(build_dir, "perfbench")
    cache_path = os.path.join(binary_dir, "CMakeCache.txt")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(cache_path):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:3])} exited {done.returncode}")
    build_type = cache_value(cache_path, "CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing a {build_type or 'unset'} build type; "
             "benchmarks need an optimized library", code=3)
    return os.path.join(binary_dir, "perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    # One build and one measurement at a time per build directory.
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(build_dir)
        # Relative, so the Unix socket path inside stays short.
        workdir = os.path.join(os.path.relpath(build_dir), f"work-{os.getpid()}")
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", workdir,
                   "--trace-dir", os.path.join(build_dir, "traces"),
                   "--git-sha", git_sha(), "--src-digest", source_digest()]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S}s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited {done.returncode}", code=done.returncode)


if __name__ == "__main__":
    main()
