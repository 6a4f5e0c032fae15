#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which compiles the library from ../src) in
Release under .bench_build/ -- or $CARGO_TARGET_DIR when it is set and
lies inside the checkout -- builds it, runs one workload and prints
its record. The last line of standard output is the JSON result; it is
printed only when its metric names and units are exactly those that
BENCHMARK.json lists for the run (end_to_end with --trace 0, per_layer
with --trace 1). The exit code is the binary's: nonzero when any
correctness check failed.
"""

import argparse
import collections
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_cold", "crash", "storm")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.realpath(os.path.join(ROOT, base))
    root = os.path.realpath(ROOT)
    if os.path.commonpath([base, root]) != root:
        base = os.path.join(root, ".bench_build")
    return os.path.join(base, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 env=env, capture_output=True, text=True,
                                 timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()[:12]
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:12]


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (src/CMakeLists.txt "
             "is missing); run from a full checkout")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in f.read():
            fail("the build tree at %s is not a Release build" % out_dir)
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench", "-j2"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def forward_stderr(text):
    """Print the binary's stderr with repeated lines folded."""
    counts = collections.Counter(text.splitlines())
    for line, n in counts.items():
        print(line if n == 1 else "%s  (x%d)" % (line, n), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    forward_stderr(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("the run printed no result line", proc.returncode or 1)

    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong), 1)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
