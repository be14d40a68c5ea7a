#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Run from the root of a source tree:

    python3 pipebench/run.py --workload tpcds-100k --seed 1 --trace 0

The build goes to .bench_build/pipebench (configured on first use, then
rebuilt incrementally); build output goes to stderr. The benchmark's own
output, ending with one JSON result line, goes to stdout. The exit status
is the benchmark's: 0 when every output check passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "pipebench")
OUT_DIR = os.path.join(".bench_build", "pipebench-out")


def source_rev():
    """The git revision when this is a checkout, else a digest of src/."""
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, check=True)
            return rev.stdout.strip() + ("-dirty" if dirty.stdout else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "pipebench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "pipeline_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42,
                        help="arrival order of the query store")
    parser.add_argument("--workload-seed", type=int, default=42,
                        help="the workload generator's seed")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under ./src; "
                 "run from the root of the source tree")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--workload-seed", str(args.workload_seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--source-rev", source_rev(), "--out-dir", OUT_DIR])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
