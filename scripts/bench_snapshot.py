#!/usr/bin/env python3
"""Snapshots the simulated counters of every bench case and diffs snapshots.

    scripts/bench_snapshot.py --out BENCH_<n>.json [--build build]
    scripts/bench_snapshot.py --out new.json --compare old.json

Runs every `<build>/bench/bench_*` binary once (google-benchmark JSON
output, no DISAGG_*_ASSERT variables) and writes the UserCounters of every
case to `--out`, keyed by binary and case name. Simulated counters are a
pure function of the code and its seeds, so two snapshots of the same
model agree bit for bit. With `--compare`, every counter that was added,
removed or changed relative to the old snapshot is printed, and the script
exits 1 unless each of them is declared in EXCLUDED or CHANGED below.
"""

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# Counters that are not simulated values, keyed by (binary glob, counter).
# They are left out of the snapshot.
EXCLUDED = {
    ("bench_e22_saturation", "p1_ms"):
        "host wall clock of the partitions=1 leg (E22 parallel assert only)",
    ("bench_e22_saturation", "par_t1_ms"):
        "host wall clock of the 1-thread leg (E22 parallel assert only)",
    ("bench_e22_saturation", "par_t8_ms"):
        "host wall clock of the 8-thread leg (E22 parallel assert only)",
    ("bench_e20_multi_writer", "conflict_rate"):
        "counted over real OS threads, so it depends on their interleaving",
}

# Simulated counters a change moves on purpose, keyed like EXCLUDED, with
# the reason. They stay in the snapshot; `--compare` reports but tolerates
# their differences. Empty while no change is meant to move the model.
CHANGED = {}

# Keys google-benchmark writes for every case; everything else is a counter.
STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "aggregate_name",
    "aggregate_unit",
}


def declared(table, binary, counter):
    """The reason `table` gives for (binary, counter), or None."""
    for (pattern, name), reason in table.items():
        if name == counter and fnmatch.fnmatch(binary, pattern):
            return reason
    return None


def run_binary(path):
    """The counters of every case `path` runs, as {case: {counter: value}}."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DISAGG_")}
    out = subprocess.run(
        [str(path), "--benchmark_format=json",
         "--benchmark_min_warmup_time=0"],
        env=env, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    cases = {}
    for case in doc["benchmarks"]:
        if case.get("error_occurred"):
            sys.exit(f"bench_snapshot: {path.name} {case['name']}: "
                     f"{case.get('error_message', 'error')}")
        cases[case["name"]] = {
            key: value for key, value in case.items()
            if key not in STANDARD_KEYS
            and declared(EXCLUDED, path.name, key) is None
        }
    return cases


def same(a, b):
    """Bit-equality for JSON numbers, with NaN equal to itself."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def compare(old, new):
    """Prints every difference; returns the number not declared."""
    undeclared = 0
    for binary in sorted(set(old) | set(new)):
        old_cases = old.get(binary, {})
        new_cases = new.get(binary, {})
        for case in sorted(set(old_cases) | set(new_cases)):
            a = old_cases.get(case, {})
            b = new_cases.get(case, {})
            for counter in sorted(set(a) | set(b)):
                if counter in a and counter in b and same(a[counter],
                                                          b[counter]):
                    continue
                reason = declared(CHANGED, binary, counter)
                tag = "declared" if reason else "UNDECLARED"
                print(f"{tag}: {binary} {case} {counter}: "
                      f"{a.get(counter, '<absent>')} -> "
                      f"{b.get(counter, '<absent>')}"
                      + (f" ({reason})" if reason else ""))
                undeclared += reason is None
    return undeclared


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="cmake build tree holding bench/bench_*")
    parser.add_argument("--out", required=True, help="snapshot to write")
    parser.add_argument("--compare", help="older snapshot to diff against")
    args = parser.parse_args()

    binaries = sorted(p for p in Path(args.build, "bench").glob("bench_*")
                      if p.is_file() and os.access(p, os.X_OK))
    if not binaries:
        sys.exit(f"bench_snapshot: no bench_* binaries under {args.build}")
    snapshot = {}
    for path in binaries:
        print(f"bench_snapshot: {path.name}", file=sys.stderr)
        snapshot[path.name] = run_binary(path)
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    cases = sum(len(c) for c in snapshot.values())
    print(f"bench_snapshot: {len(snapshot)} binaries, {cases} cases -> "
          f"{args.out}", file=sys.stderr)

    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
        undeclared = compare(old, snapshot)
        print(f"bench_snapshot: {undeclared} undeclared difference(s) vs "
              f"{args.compare}")
        return 1 if undeclared else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
