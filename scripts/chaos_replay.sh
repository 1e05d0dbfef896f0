#!/usr/bin/env bash
# Replays chaos-harness schedules bit-identically from their seeds.
#
#   scripts/chaos_replay.sh [--threads N[,N...]] <seed> [seed...]
#
# Every chaos run is a pure function of a single uint64 seed (see
# DESIGN.md, "Chaos harness & seed replay"): the same seed rebuilds the
# same fault schedule, flap windows, crash points and workload, and
# produces the identical op trace. When CI (or a local run) prints a
# failing seed, paste it here to reproduce the exact run with full
# per-engine reports.
#
# --threads additionally replays each seed on the load driver at the given
# worker thread counts and asserts the traces match the partitions=1,
# one-thread run bit for bit (DESIGN.md, "Parallel simulation"). Without
# the flag the parallel replay still runs at the default counts {1,2,8}.
set -euo pipefail

THREADS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threads)
      [[ $# -ge 2 ]] || { echo "--threads needs an argument" >&2; exit 2; }
      THREADS="$2"
      shift 2
      ;;
    --threads=*)
      THREADS="${1#--threads=}"
      shift
      ;;
    *)
      break
      ;;
  esac
done

if [[ $# -lt 1 ]]; then
  echo "usage: $0 [--threads N[,N...]] <seed> [seed...]" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target chaos_test >/dev/null

DISAGG_CHAOS_SEEDS="$*" DISAGG_CHAOS_THREADS="${THREADS}" \
  ./build/tests/chaos_test \
  --gtest_filter='ChaosReplayTest.ReplaySeedsFromEnv:ChaosParallelReplayTest.*'
