#!/usr/bin/env python3
"""Builds and runs the POLARIS benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_audit --seed 7 --seconds 10 --trace 0

Builds perfbench/ (which builds the library from ../src through the
repository's own CMakeLists) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The program's last stdout
line is the result object; build output goes to stderr. Exits non-zero
when the build fails, an output check fails, or the run times out.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
CODE_SUFFIXES = (".cpp", ".hpp", ".h", ".py", "CMakeLists.txt")


def source_id():
    """SHA-256 over the code the benchmark builds and runs (the library
    sources, both CMakeLists, bench/bench_common.hpp, the benchmark's own
    code): the environment hash that ties a result to the exact code it
    measured."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "bench", "bench_common.hpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            files += [os.path.join(base, n) for n in names
                      if n.endswith(CODE_SUFFIXES)]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout: concurrent runs wait here.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "polaris_perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return None
    binary = os.path.join(build_dir, "polaris_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "digests.json")) as handle:
        digests = json.load(handle)
    if args.workload not in digests:
        print(f"run.py: no stored digest for workload '{args.workload}'",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expect-digest", digests[args.workload],
               "--run-dir", os.path.relpath(os.path.join(target, "run"), ROOT),
               "--source-id", source_id(), "--commit", commit()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
