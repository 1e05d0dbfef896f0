#!/usr/bin/env python3
"""Snapshots the simulated counters of every bench case and diffs snapshots.

    scripts/bench_snapshot.py --out BENCH_<n>.json [--build build]
    scripts/bench_snapshot.py --out new.json --compare old.json
    scripts/bench_snapshot.py --out BENCH_<n>.json --compare old.json \
        --host-runs 10 [--host-parent <checkout>]

Runs every `<build>/bench/bench_*` binary once (google-benchmark JSON
output) and writes the UserCounters of every case to `--out`, keyed by
binary and case name. Simulated counters are a pure function of the code
and its seeds, so two snapshots of the same model agree bit for bit. The
same run checks the experiments' claims: each case DISAGG_CHECKs what it
can see alone (a failed check aborts its binary, and the script with it),
and the CLAIMS table below holds the claims that compare cases; the script
exits 1 if any row fails or names a case or counter the snapshot lacks.
With `--compare`, every counter that was added, removed or changed
relative to the old snapshot is printed, and the script exits 1 unless
each of them is declared in EXCLUDED or CHANGED below. Each binary's wall
seconds and peak RSS, and their totals, are printed to stdout; they are
kept out of the snapshot and out of every check. Linux carries the
spawning process's high-water mark across exec, so no binary reads below
this script's own resident set (~16 MB).

Host mode (`--host-runs N`) also runs the repository benchmark that
BENCHMARK.json declares (its command, workloads, `run_seconds` and
end-to-end metrics) on N seeds per workload and stores the host clock as
data: a `perfbench` block with the median and IQR of each end-to-end
metric per workload, the raw values in seed order, and a machine
fingerprint. With `--host-parent`, each seed runs the parent checkout and
this one as a pair, the parent first on even-numbered pairs and second on
odd ones, and the block holds both sides. Host numbers are never part of
the parity gate: `--compare` prints host deltas only between blocks with
the same fingerprint, and never fails on them.
"""

import argparse
import fnmatch
import json
import math
import operator
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Counters that are not simulated values, keyed by (binary glob, counter).
# They are left out of the snapshot.
EXCLUDED = {
    ("bench_e22_saturation", "p1_ms"):
        "host wall clock of the 10^5-client row's partitions=1 leg",
    ("bench_e22_saturation", "par_t1_ms"):
        "host wall clock of the 10^5-client row's 1-thread leg",
    ("bench_e22_saturation", "par_t8_ms"):
        "host wall clock of the 10^5-client row's 8-thread leg",
    ("bench_e20_multi_writer", "conflict_rate"):
        "counted over real OS threads, so it depends on their interleaving",
}

# Simulated counters a change moves on purpose, keyed like EXCLUDED, with
# the reason. They stay in the snapshot; `--compare` reports but tolerates
# their differences. Empty while no change is meant to move the model.
CHANGED = {}

# The experiments' claims that compare bench cases. A row (experiment,
# binary, case, counter, relation, factor, other case[, other counter])
# holds when `case`'s counter RELATION factor x `other case`'s counter (the
# same counter unless named); with other case None, the counter is compared
# with the factor itself. Case names drop their "/iterations:1" suffix.
# Bands come from EXPERIMENTS.md's stated shapes, not from today's numbers.
# Claims a case can check alone are DISAGG_CHECKs in that case instead.
FIG1 = "bench_fig1_shared_storage"
E16 = "bench_e16_cxl"
E22 = "bench_e22_saturation"
E23 = "bench_e23_fairness"
E24 = "bench_e24_degradation"
E25 = "bench_e25_shared_log"
E27 = "bench_e27_slo"
CLAIMS = [
    # PolarDB ships ~6x Aurora's bytes; Socrates has the cheapest txn of the
    # disaggregated engines; monolithic pays no network.
    ("E1", FIG1, "BM_Fig1_Polar_PageShipping", "bytes_out_per_op", ">=", 5,
     "BM_Fig1_Aurora_LogShipping"),
    ("E1", FIG1, "BM_Fig1_Polar_PageShipping", "bytes_out_per_op", "<=", 7,
     "BM_Fig1_Aurora_LogShipping"),
] + [
    ("E1", FIG1, "BM_Fig1_Socrates_Tiered", "sim_us_per_op", "<", 1,
     "BM_Fig1_" + engine)
    for engine in ("Aurora_LogShipping", "Polar_PageShipping",
                   "Taurus_GossipPages")
] + [
    ("E1", FIG1, "BM_Fig1_Monolithic", "rtts_per_op", "==", 0, None),
    # RDMA:CXL raw read ~6x; TPC-DS-like scans slow 7-27% with the main
    # store on CXL; explicit tiering beats oblivious placement.
    ("E16", E16, "BM_E16_RawLatency/2", "sim_us_per_op", ">=", 5,
     "BM_E16_RawLatency/1"),
    ("E16", E16, "BM_E16_RawLatency/2", "sim_us_per_op", "<=", 7,
     "BM_E16_RawLatency/1"),
    ("E16", E16, "BM_E16_Ahn_TpcdsLike/1", "sim_us_per_op", ">=", 1.07,
     "BM_E16_Ahn_TpcdsLike/0"),
    ("E16", E16, "BM_E16_Ahn_TpcdsLike/1", "sim_us_per_op", "<=", 1.27,
     "BM_E16_Ahn_TpcdsLike/0"),
    ("E16", E16, "BM_E16_TieredVsUnified/1", "sim_us_per_op", "<", 1,
     "BM_E16_TieredVsUnified/0"),
] + [
    # Saturated closed loop: a queueing tail >= 10x the one-client p99.
    ("E22", E22, f"BM_E22_PageReadSaturation/tier:{tier}/clients:{clients}",
     "p99_us", ">=", 10, f"BM_E22_PageReadSaturation/tier:{tier}/clients:1")
    for tier in (0, 1, 2) for clients in (64, 128)
] + [
    # Open loop past the knee: backlog and tail >= 10x the 50% run's.
    ("E22", E22, "BM_E22_OpenLoopSweep/offered_pct:140/proc:0", counter,
     ">=", 10, "BM_E22_OpenLoopSweep/offered_pct:50/proc:0")
    for counter in ("max_inflight", "p99_us")
] + [
    # WFQ restores the victim's end-to-end tail. Admission bounds its
    # in-system tail (rejections + final admitted wait + service); its
    # end-to-end tail also pays retry backoff, which under FIFO+admission
    # can rival the FIFO queueing it replaces.
    ("E23", E23, f"BM_E23_TenantIsolation/mode:{mode}", counter, "<=", 0.5,
     "BM_E23_TenantIsolation/mode:0", "oltp_p99_us")
    for mode, counter in ((2, "oltp_p99_us"), (3, "oltp_p99_us"),
                          (1, "oltp_sys_p99_us"), (3, "oltp_sys_p99_us"))
] + [
    # Degrade completes at least as many requests as reject-only, strictly
    # more at 120%, where re-issue rounds also cost reject-only its tail.
    ("E24", E24, f"BM_E24_DegradeVsReject/offered_pct:{pct}/degrade:1",
     "ok_frac", relation, 1,
     f"BM_E24_DegradeVsReject/offered_pct:{pct}/degrade:0")
    for pct, relation in ((35, ">="), (70, ">="), (120, ">"))
] + [
    ("E24", E24, "BM_E24_DegradeVsReject/offered_pct:120/degrade:0",
     "p99_us", ">=", 1, "BM_E24_DegradeVsReject/offered_pct:120/degrade:1"),
] + [
    # Shared log vs private quorums: the same records on a smaller fleet,
    # recovery reads within header overhead, strictly less wire traffic.
    ("E25", E25, "BM_E25_SharedLogVsPrivate/tenants:4/computes:8/shared:1",
     counter, relation, factor,
     "BM_E25_SharedLogVsPrivate/tenants:4/computes:8/shared:0")
    for counter, relation, factor in (
        ("records", "==", 1), ("log_nodes", "<", 1),
        ("recovery_read_mb", "<=", 1.05), ("wire_mb", "<", 1))
] + [
    # The controller's post-transient tail sits below static WFQ's.
    ("E27", E27, "BM_E27_SloControlPlane/mode:2", "interactive_late_p99_us",
     "<", 1, "BM_E27_SloControlPlane/mode:0"),
]
RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
             ">=": operator.ge, ">": operator.gt}

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
    """The counters of every case `path` runs, as {case: {counter: value}},
    and the binary's host cost: its wall seconds and peak RSS in MB (from
    `os.wait4`'s rusage)."""
    start = time.monotonic()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [str(path), "--benchmark_format=json",
             "--benchmark_min_warmup_time=0"],
            stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall_s = time.monotonic() - start
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
            sys.exit(f"bench_snapshot: {path.name} exited with status "
                     f"{proc.returncode}")
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
    return cases, (wall_s, usage.ru_maxrss / 1024.0)


def check_claims(snapshot):
    """Prints every CLAIMS row that fails over `snapshot`; returns their
    number."""
    failed = 0
    for experiment, binary, case, counter, relation, factor, other, *named \
            in CLAIMS:
        other_counter = named[0] if named else counter
        cases = snapshot.get(binary, {})
        try:
            value = cases[case + "/iterations:1"][counter]
            base = 1 if other is None else \
                cases[other + "/iterations:1"][other_counter]
        except KeyError as missing:
            print(f"CLAIM FAILED: {experiment}: {binary} has no {missing}")
            failed += 1
            continue
        if not RELATIONS[relation](value, factor * base):
            of = "" if other is None else \
                f" x {other} {other_counter} ({base})"
            print(f"CLAIM FAILED: {experiment}: {case} {counter} ({value}) "
                  f"is not {relation} {factor}{of}")
            failed += 1
    print(f"bench_snapshot: {len(CLAIMS) - failed}/{len(CLAIMS)} claims hold")
    return failed


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


# Host mode. The snapshot key holding it is not a bench binary.
HOST_KEY = "perfbench"
HOST_FIRST_SEED = 51
COMPILER = re.compile(r'^# perfbench .* compiler="([^"]*)"')


def load_benchmark():
    """BENCHMARK.json: the benchmark's command, workloads, run length and
    end-to-end metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def perfbench_run(bench, checkout, workload, seed):
    """One run of the benchmark in `checkout`: (its end-to-end metrics, its
    compiler)."""
    out = subprocess.run(
        bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_snapshot: perfbench {workload} seed {seed} in "
                 f"{checkout} failed its checks")
    compiler = next((m.group(1) for m in map(COMPILER.search, out) if m),
                    "unknown")
    return ({m["name"]: result["metrics"][m["name"]]["value"]
             for m in bench["end_to_end"]}, compiler)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values):
    """Median, IQR and the raw values (in seed order) of one metric."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "values": values}


def host_block(runs, parent):
    """Runs the benchmark `runs` times per workload (paired with `parent`
    when given, alternating which side runs first) and returns the
    snapshot's host block."""
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(HOST_FIRST_SEED, HOST_FIRST_SEED + runs))
    sides = ([("parent", parent)] if parent else []) + [("change", ROOT)]
    values = {side: {w: {m["name"]: [] for m in bench["end_to_end"]}
                     for w in workloads} for side, _ in sides}
    compilers = set()
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                print(f"bench_snapshot: perfbench {workload} seed {seed} "
                      f"({side})", file=sys.stderr)
                metrics, compiler = perfbench_run(bench, checkout, workload,
                                                  seed)
                compilers.add(compiler)
                for m, value in metrics.items():
                    values[side][workload][m].append(value)
    block = {
        "fingerprint": {"cpu": cpu_model(), "vcpus": os.cpu_count(),
                        "compiler": " / ".join(sorted(compilers))},
        "seconds": bench["run_seconds"],
        "seeds": seeds,
    }
    for side, _ in sides:
        block[side] = {w: {m: summarize(v) for m, v in metrics.items()}
                       for w, metrics in values[side].items()}
    return block


def print_host_deltas(label, old, new):
    """Prints new vs old medians per workload and metric next to the old
    IQR and, when both sides have one value per seed, in how many seed
    pairs the new value is lower."""
    print(f"host: {label}")
    for workload in sorted(set(old) & set(new)):
        for metric in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][metric], new[workload][metric]
            delta = (b["median"] / a["median"] - 1) * 100 if a["median"] \
                else float("nan")
            pairs = ""
            if len(a["values"]) == len(b["values"]):
                lower = sum(y < x for x, y in zip(a["values"], b["values"]))
                pairs = f", lower in {lower}/{len(a['values'])} pairs"
            print(f"  {workload} {metric}: {a['median']:.6g} -> "
                  f"{b['median']:.6g} ({delta:+.1f}%; old IQR "
                  f"{a['iqr']:.3g}{pairs})")


def compare_host(old, new):
    """Host deltas of the old snapshot's change side vs this one's, when
    both have a host block from the same machine. Never affects the exit
    status."""
    new_block = new.get(HOST_KEY)
    old_block = old.get(HOST_KEY)
    if not (old_block and new_block):
        return
    if old_block["fingerprint"] != new_block["fingerprint"]:
        print("host: machine fingerprints differ; no host deltas vs the old "
              "snapshot")
        return
    print_host_deltas("old snapshot -> this snapshot (change sides)",
                      old_block["change"], new_block["change"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="cmake build tree holding bench/bench_*")
    parser.add_argument("--out", required=True, help="snapshot to write")
    parser.add_argument("--compare", help="older snapshot to diff against")
    parser.add_argument("--host-runs", type=int, default=0,
                        help="host mode: perfbench runs (seeds) per workload")
    parser.add_argument("--host-parent",
                        help="host mode: parent checkout to alternate with")
    args = parser.parse_args()
    if args.host_parent and not args.host_runs:
        parser.error("--host-parent needs --host-runs")
    if args.host_runs == 1:
        parser.error("--host-runs needs at least two runs for an IQR")

    binaries = sorted(p for p in Path(args.build, "bench").glob("bench_*")
                      if p.is_file() and os.access(p, os.X_OK))
    if not binaries:
        sys.exit(f"bench_snapshot: no bench_* binaries under {args.build}")
    snapshot = {}
    host_cost = {}  # binary -> (wall s, peak RSS MB); printed, never stored
    for path in binaries:
        print(f"bench_snapshot: {path.name}", file=sys.stderr)
        snapshot[path.name], host_cost[path.name] = run_binary(path)
    for name, (wall_s, rss_mb) in host_cost.items():
        print(f"host cost: {name}: {wall_s:.2f} s, peak RSS {rss_mb:.1f} MB")
    largest = max(host_cost, key=lambda name: host_cost[name][1])
    print(f"host cost: {len(host_cost)} binaries: "
          f"{sum(w for w, _ in host_cost.values()):.1f} s in total, largest "
          f"peak RSS {host_cost[largest][1]:.1f} MB ({largest})")
    if args.host_runs:
        snapshot[HOST_KEY] = host_block(args.host_runs, args.host_parent)
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    cases = sum(len(c) for b, c in snapshot.items() if b != HOST_KEY)
    print(f"bench_snapshot: {len(binaries)} binaries, {cases} cases -> "
          f"{args.out}", file=sys.stderr)

    if args.host_parent:
        print_host_deltas("parent -> change (this snapshot)",
                          snapshot[HOST_KEY]["parent"],
                          snapshot[HOST_KEY]["change"])

    failed = check_claims(snapshot)
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
        compare_host(old, snapshot)
        undeclared = compare(
            {b: c for b, c in old.items() if b != HOST_KEY},
            {b: c for b, c in snapshot.items() if b != HOST_KEY})
        print(f"bench_snapshot: {undeclared} undeclared difference(s) vs "
              f"{args.compare}")
        failed += undeclared
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
