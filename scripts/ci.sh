#!/usr/bin/env bash
# Tier-1 verification, a sim-counter parity check against the newest
# committed bench snapshot, a sanitizer pass over the whole test suite, a
# ThreadSanitizer pass over the parallel-driver, memory-node executor,
# shared-log and storage-service suites, and the chaos stage
# (fresh commit-derived seeds + mutation self-check).
#
#   scripts/ci.sh          # full: build + ctest + parity + sanitizers + chaos
#   scripts/ci.sh --fast   # tier-1 + parity (skip sanitizer + chaos stages)
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

# Sim-counter parity: every bench case's simulated counters must match the
# newest committed BENCH_<n>.json snapshot bit for bit. A change that moves
# the model on purpose declares each moved counter in the script's CHANGED
# table (with its reason) and commits a new snapshot.
echo "==> sim-counter parity: bench_snapshot.py vs the newest BENCH_*.json"
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
# reference counts drop on whichever thread releases them last). concurrency_test stays out until the
# fabric's region copies stop racing with its CAS on the same words (memcpy
# vs compare_exchange in Fabric::ExecuteVerb); TSan reports those today.
echo "==> ThreadSanitizer pass: ctest -L parallel + executor + shared log + storage"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}" \
  --target parallel_sim_test slo_controller_test membership_test \
  memnode_executor_test shared_log_test log_backend_parity_test \
  storage_services_test
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L parallel
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R '^(memnode_executor_test|shared_log_test|log_backend_parity_test|storage_services_test)$'

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

# E22 saturation smoke: with DISAGG_E22_ASSERT=1 the bench self-checks the
# congestion model's shape — at >= 64 clients the measured throughput must
# land within a small factor of the configured capacity bound and the
# saturated p99 must be >= 10x the uncontended p99 (see bench_e22's header).
echo "==> E22 saturation smoke (congestion capacity bound)"
DISAGG_E22_ASSERT=1 ./build/bench/bench_e22_saturation \
  --benchmark_filter='BM_E22_PageReadSaturation/.*clients:64' \
  --benchmark_min_warmup_time=0 >/dev/null

# Open-loop smoke: at 140% offered load the achieved throughput must
# plateau at capacity while the in-flight count and p99 blow up relative
# to an inline 50% baseline (the unbounded-queue regime, see bench_e22).
echo "==> E22 open-loop sweep smoke (plateau past the knee)"
DISAGG_E22_ASSERT=1 ./build/bench/bench_e22_saturation \
  --benchmark_filter='BM_E22_OpenLoopSweep/offered_pct:140/proc:0' \
  --benchmark_min_warmup_time=0 >/dev/null

# E22 parallel-sweep smoke: a 10^5-client open-loop sweep through the
# epoch-parallel driver. With DISAGG_E22_PARALLEL_ASSERT=1 the bench
# re-runs the sweep at threads 1/2/8, at 64 partitions and at partitions=1,
# and asserts trace + counter bit-equality plus a hard wall-clock budget —
# the determinism contract (results are a function of seed and partition
# count, never thread count) checked at CI scale.
echo "==> E22 epoch-parallel sweep smoke (10^5 clients, threads 1/2/8)"
DISAGG_E22_PARALLEL_ASSERT=1 ./build/bench/bench_e22_saturation \
  --benchmark_filter='BM_E22_ParallelOpenLoopSweep/clients:100000/threads:8' \
  --benchmark_min_warmup_time=0 >/dev/null

# E23 fairness smoke: WFQ must restore the OLTP victim's p99 to <= 0.5x
# its FIFO value under an OLAP scan neighbor, and admission control must
# bound the victim's in-system tail while actually rejecting work (each
# non-FIFO mode re-runs the FIFO baseline inline; see bench_e23_fairness).
echo "==> E23 tenant-isolation smoke (WFQ + admission control)"
DISAGG_E23_ASSERT=1 ./build/bench/bench_e23_fairness \
  --benchmark_min_warmup_time=0 >/dev/null

# E24 degradation smoke: with DISAGG_E24_ASSERT=1 the bench self-checks the
# degrade ladder's value under overload — at 120% offered load the degrade
# mode must serve a nonzero degraded fraction with zero staleness-bound
# violations, complete strictly more requests than reject-only, and beat
# its p99 time-to-data; at 35% both modes must stay >= 95% complete (see
# bench_e24_degradation's header for the full predicate list).
echo "==> E24 graceful-degradation smoke (degrade vs reject-only)"
DISAGG_E24_ASSERT=1 ./build/bench/bench_e24_degradation \
  --benchmark_min_warmup_time=0 >/dev/null

# E25 shared-log smoke: with DISAGG_E25_ASSERT=1 the bench self-checks the
# shared-log consolidation claims at 4 tenants x 8 ephemeral computes —
# both log tiers complete every append through a mid-run log-node kill and
# replay every tenant's stream in order, the shared fleet is smaller with
# strictly less wire traffic, and the seal + view change after the kill
# takes nonzero simulated time (see bench_e25_shared_log's header).
echo "==> E25 shared-log smoke (private quorums vs shared service)"
DISAGG_E25_ASSERT=1 ./build/bench/bench_e25_shared_log \
  --benchmark_min_warmup_time=0 >/dev/null

# E27 SLO smoke: with DISAGG_E27_ASSERT=1 the bench self-checks the control
# plane — static WFQ's post-transient interactive p99 misses the declared
# 6.5 us target while the controller's meets it (weight actually raised, no
# ops refused), the sub-RDMA-cost 1.5 us target ends flagged infeasible with
# the actuators frozen at their clamps, and controller decisions are
# bit-identical across worker threads 1/2/8 (see bench_e27_slo's header).
echo "==> E27 SLO control-plane smoke (controller vs static WFQ vs EDF)"
DISAGG_E27_ASSERT=1 ./build/bench/bench_e27_slo \
  --benchmark_min_warmup_time=0 >/dev/null

# E28 offload smoke: with DISAGG_E28_ASSERT=1 the bench self-checks the
# near-data concurrency offload — offloaded lookups are exactly one fabric
# RTT (one `exec.idx.get` Call, zero one-sided verbs) while one-sided pays
# >= depth reads; at >= 64 zipfian clients the offloaded path beats
# one-sided on throughput and p99; and the offload chaos schedules (index +
# WOUND_WAIT lock table) replay violation-free with executor crash
# interludes taken (see bench_e28_offload's header).
echo "==> E28 near-data offload smoke (one-sided vs memory-node executor)"
DISAGG_E28_ASSERT=1 ./build/bench/bench_e28_offload \
  --benchmark_min_warmup_time=0 >/dev/null

# E29 self-healing smoke: with DISAGG_E29_ASSERT=1 the bench self-checks
# the membership service end to end — the self-heal arm completes >= 99% of
# ops across a kill + gray-failure + one-way-partition schedule with every
# failed node revoked, repaired and rejoined (MTTR measured); the
# Busy-walled node is never revoked (overload is an alive signal); the
# no-recovery arm's availability sits strictly below self-heal's; and the
# detector's decisions replay bit-identically at worker threads 1/2/8, at
# partitions 4 and 1 (see bench_e29_selfheal's header).
echo "==> E29 self-healing smoke (detector-driven vs scripted vs none)"
DISAGG_E29_ASSERT=1 ./build/bench/bench_e29_selfheal \
  --benchmark_min_warmup_time=0 >/dev/null

# Mutation self-check: a build that deliberately skips one quorum ack must
# be caught by the harness's durability audit — proof the checkers can
# actually detect a weakened engine, not just bless healthy ones.
echo "==> chaos mutation self-check"
cmake -B build-mutant -S . -DDISAGG_CHAOS_MUTATION=ON >/dev/null
cmake --build build-mutant -j "${JOBS}" --target chaos_test
./build-mutant/tests/chaos_test --gtest_filter='*MutationSelfCheck*'

echo "==> CI OK"
