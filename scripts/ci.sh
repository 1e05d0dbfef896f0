#!/usr/bin/env bash
# Tier-1 verification, one run of every bench binary that checks the
# experiments' claims and the sim-counter parity against the newest
# committed bench snapshot, a sanitizer pass over the whole test suite, a
# ThreadSanitizer pass over the parallel-driver, memory-node executor,
# shared-log and storage-service suites, and the chaos stage
# (fresh commit-derived seeds + mutation self-check).
#
#   scripts/ci.sh          # full: build + ctest + claims/parity + sanitizers
#                          # + chaos
#   scripts/ci.sh --fast   # tier-1 + claims/parity (skip sanitizer + chaos)
#
# Requires: cmake >= 3.16, a C++20 compiler, GTest and google-benchmark dev
# packages (see .github/workflows/ci.yml for the Ubuntu package list).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "==> tier-1: configure + build + ctest (fast labels first)"
# Zero-warning build: any -Wall -Wextra warning fails the tier-1 stage.
cmake -B build -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build -j "${JOBS}"
# Fail fast: the unit and property buckets finish in ~1 s; the slow/chaos
# buckets (several seconds each) only run once those are green.
ctest --test-dir build --output-on-failure -j "${JOBS}" -L 'unit|property'
# Cross-thread determinism suite: the load driver must produce
# bit-identical counters and traces at thread counts 1/2/8 (and match a
# reference loop at partitions=1) before anything downstream trusts it.
ctest --test-dir build --output-on-failure -j "${JOBS}" -L 'parallel'
ctest --test-dir build --output-on-failure -j "${JOBS}" -LE 'unit|property'

# Claims + sim-counter parity, from one run of each bench binary: every case
# DISAGG_CHECKs the claims it can see alone, the script's CLAIMS table checks
# those that compare cases, and every case's simulated counters must match
# the newest committed BENCH_<n>.json snapshot bit for bit. A change that
# moves the model on purpose declares each moved counter in the script's
# CHANGED table (with its reason) and commits a new snapshot.
echo "==> claims + sim-counter parity vs the newest BENCH_*.json"
BASELINE="$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)"
python3 scripts/bench_snapshot.py --build build \
  --out build/bench_snapshot.json --compare "${BASELINE}"

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> --fast: skipping sanitizer pass"
  exit 0
fi

# ASan/UBSan over the whole ctest suite.
echo "==> sanitizer pass: every ctest test under ASan/UBSan"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

# ThreadSanitizer over the `parallel` suites, which drive the load driver's
# worker pool at up to 8 threads (partition queues, barrier drains, effect
# shards), over the memory-node executor and shared-log suites, whose
# services take their own locks, and over the storage-service suite, whose
# threaded case shares redo batches across writer and reader threads (their
# reference counts drop on whichever thread releases them last), and over
# the RPC method table, which threads register into while calls run, and
# over the transaction suite, whose lock table is hammered from four threads.
# concurrency_test stays out until the fabric's region copies stop racing
# with its CAS on the same words (memcpy vs compare_exchange in
# Fabric::ExecuteVerb); TSan reports those today.
echo "==> ThreadSanitizer pass: ctest -L parallel + executor + shared log + storage + rpc methods + txn"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}" \
  --target parallel_sim_test slo_controller_test membership_test \
  memnode_executor_test shared_log_test log_backend_parity_test \
  storage_services_test rpc_method_test txn_test
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L parallel
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R '^(memnode_executor_test|shared_log_test|log_backend_parity_test|storage_services_test|rpc_method_test|txn_test)$'

# Chaos stage: beyond the fixed seeds baked into chaos_test, run fresh
# schedules derived from the commit hash so every commit explores new
# fault interleavings. The seeds are logged — a failure is reproduced
# bit-identically with `scripts/chaos_replay.sh <seed>`.
HEAD_HASH="$(git rev-parse HEAD 2>/dev/null || echo 0000000000000000)"
CHAOS_SEEDS="$((16#${HEAD_HASH:0:8})) $((16#${HEAD_HASH:8:8})) $((16#${HEAD_HASH:16:8}))"
echo "==> chaos stage: commit-derived seeds: ${CHAOS_SEEDS}"
echo "    (replay any failure with: scripts/chaos_replay.sh <seed>)"
DISAGG_CHAOS_SEEDS="${CHAOS_SEEDS}" ./build-asan/tests/chaos_test \
  --gtest_filter='ChaosReplayTest.ReplaySeedsFromEnv'

# Mutation self-check: a build that deliberately skips one quorum ack must
# be caught by the harness's durability audit — proof the checkers can
# actually detect a weakened engine, not just bless healthy ones.
echo "==> chaos mutation self-check"
cmake -B build-mutant -S . -DDISAGG_CHAOS_MUTATION=ON >/dev/null
cmake --build build-mutant -j "${JOBS}" --target chaos_test
./build-mutant/tests/chaos_test --gtest_filter='*MutationSelfCheck*'

echo "==> CI OK"
