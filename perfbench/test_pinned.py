#!/usr/bin/env python3
"""The benchmark's own test: its modeled outputs are pinned.

    python3 perfbench/test_pinned.py [--binary PATH] [--update]

For every workload, runs the benchmark binary in --pinned mode (the
deterministic outputs only: modeled sim_* times, exact counters and a
digest of the generated inputs) and asserts that

  * two runs with the same seed print bit-identical values,
  * a different seed changes the generated inputs, and
  * the values equal perfbench/pinned.json, so a change that only
    speeds the simulator up must leave every one of them identical.

--update rewrites pinned.json from the current build (a deliberate,
reviewed change to the model). Without --binary the benchmark is built
as run.py builds it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "pinned.json")
WORKLOADS = ("serve_hot", "serve_cold", "crash", "storm")
SEED, OTHER_SEED = 1, 2


def pinned(binary, workload, seed):
    out = subprocess.run([binary, "--workload", workload, "--seed",
                          str(seed), "--pinned"], capture_output=True,
                         text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("%s --pinned exited %d:\n%s" % (workload, out.returncode,
                                                 out.stdout[-2000:]))
    values = {}
    for line in out.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "note":
            values[fields[1]] = fields[2] + " " + fields[3]
    if not values:
        sys.exit("%s --pinned printed no values" % workload)
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import run
        binary = run.build(run.build_dir())

    golden = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    problems = []
    current = {}
    for workload in WORKLOADS:
        first = pinned(binary, workload, SEED)
        second = pinned(binary, workload, SEED)
        other = pinned(binary, workload, OTHER_SEED)
        current[workload] = first
        if first != second:
            diff = sorted(k for k in first if first[k] != second.get(k))
            problems.append("%s: same seed, different values: %s"
                            % (workload, diff))
        if first.get("inputs_digest") == other.get("inputs_digest"):
            problems.append("%s: seeds %d and %d generated the same inputs"
                            % (workload, SEED, OTHER_SEED))
        if not args.update and golden.get(workload) != first:
            want = golden.get(workload, {})
            diff = sorted(set(want) ^ set(first) |
                          {k for k in want if want[k] != first.get(k)})
            problems.append("%s: differs from pinned.json in %s"
                            % (workload, diff))
        print("%-10s %d values checked" % (workload, len(first)))
    if args.update:
        with open(GOLDEN, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote " + GOLDEN)
    for problem in problems:
        print("FAIL " + problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
