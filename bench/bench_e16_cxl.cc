// Experiment E16 (DESIGN.md): CXL for disaggregation (Sec. 3.3).
//  - Raw access latency: local DRAM vs CXL vs RDMA (DirectCXL reports RDMA
//    ~6.2x CXL).
//  - Ahn et al.: in-memory DBMS with main data on the far tier — TPC-C-like
//    point accesses barely degrade on CXL (prefetch-friendly, small rows);
//    TPC-DS/H-like scans lose ~7-27%; on RDMA both collapse.
//  - Tiered (explicit hot/cold placement) vs unified (oblivious) placement.
//  - Pond: pool fraction sweep -> stranded-memory fraction.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "cxl/pond.h"
#include "cxl/tiering.h"
#include "memnode/memory_node.h"
#include "workload/tpch_lite.h"

namespace disagg {
namespace {

void BM_E16_RawLatency(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const InterconnectModel model =
      tier == 0 ? InterconnectModel::LocalDram()
                : (tier == 1 ? InterconnectModel::Cxl()
                             : InterconnectModel::Rdma());
  Fabric fabric;
  MemoryNode pool(&fabric, "tier", 64 << 20, model);
  auto addr = pool.AllocLocal(4096);
  DISAGG_CHECK(addr.ok());
  char buf[64];
  NetContext ctx;
  constexpr int kReads = 1000;
  for (auto _ : state) {
    for (int i = 0; i < kReads; i++) {
      DISAGG_CHECK_OK(fabric.Read(&ctx, *addr, buf, 64));
    }
  }
  bench::ReportSim(state, ctx, kReads);
  state.SetLabel(model.name);
}

// TPC-C-like: many small point accesses to hot rows that explicit tiering
// keeps in DRAM -> negligible drop on CXL.
void BM_E16_Ahn_TpccLike(benchmark::State& state) {
  const bool use_cxl = state.range(0) != 0;
  // Hot delta (64 MB) + cold main (448 MB). The all-DRAM baseline has DRAM
  // for everything; the CXL config only fits the delta locally.
  CxlTieringManager mgr(use_cxl ? (128ull << 20) : (1024ull << 20),
                        1024ull << 20, CxlPlacementPolicy::kTiered);
  DISAGG_CHECK_OK(mgr.AddSegment(1, "delta", 64 << 20, 1000));
  DISAGG_CHECK_OK(mgr.AddSegment(2, "main", 448 << 20, 1));
  Random rng(5);
  NetContext ctx;
  constexpr int kTxns = 2000;
  for (auto _ : state) {
    for (int i = 0; i < kTxns; i++) {
      // 95% of OLTP accesses hit the delta/hot segment, small rows; the
      // hardware prefetcher and txn logic hide most of the rest (about half
      // a microsecond of compute per transaction).
      const uint64_t seg = rng.Bernoulli(0.95) ? 1 : 2;
      DISAGG_CHECK_OK(mgr.Access(&ctx, seg, 64));
      ctx.Charge(500);
    }
  }
  bench::ReportSim(state, ctx, kTxns);
  state.SetLabel(use_cxl ? "main-on-cxl" : "all-dram");
}

// TPC-DS/H-like: bulk scans over the cold main store -> visible drop.
void BM_E16_Ahn_TpcdsLike(benchmark::State& state) {
  const bool use_cxl = state.range(0) != 0;
  CxlTieringManager mgr(use_cxl ? (128ull << 20) : (1024ull << 20),
                        1024ull << 20, CxlPlacementPolicy::kTiered);
  DISAGG_CHECK_OK(mgr.AddSegment(1, "delta", 64 << 20, 1000));
  DISAGG_CHECK_OK(mgr.AddSegment(2, "main", 448 << 20, 1));
  NetContext ctx;
  constexpr int kScans = 50;
  for (auto _ : state) {
    for (int i = 0; i < kScans; i++) {
      // Analytical scan: stream 4 MB of the main store + delta probes, plus
      // the join/aggregation compute that dominates TPC-DS query time and
      // dilutes the far-memory slowdown to the 7-27% Ahn et al. report.
      DISAGG_CHECK_OK(mgr.Access(&ctx, 2, 4 << 20));
      DISAGG_CHECK_OK(mgr.Access(&ctx, 1, 4 << 10));
      ctx.Charge(300'000);
    }
  }
  bench::ReportSim(state, ctx, kScans);
  state.SetLabel(use_cxl ? "main-on-cxl" : "all-dram");
}

void BM_E16_TieredVsUnified(benchmark::State& state) {
  const auto policy = state.range(0) != 0 ? CxlPlacementPolicy::kTiered
                                          : CxlPlacementPolicy::kUnified;
  CxlTieringManager mgr(100 << 20, 1024ull << 20, policy);
  DISAGG_CHECK_OK(mgr.AddSegment(1, "cold", 90 << 20, 1));
  DISAGG_CHECK_OK(mgr.AddSegment(2, "hot", 90 << 20, 1000));
  NetContext ctx;
  constexpr int kAccesses = 2000;
  for (auto _ : state) {
    for (int i = 0; i < kAccesses; i++) {
      DISAGG_CHECK_OK(mgr.Access(&ctx, i % 20 == 0 ? 1 : 2, 256));
    }
  }
  bench::ReportSim(state, ctx, kAccesses);
  state.SetLabel(policy == CxlPlacementPolicy::kTiered ? "tiered-explicit"
                                                       : "unified-oblivious");
}

void BM_E16_Pond_PoolFractionSweep(benchmark::State& state) {
  const double pool_fraction =
      static_cast<double>(state.range(0)) / 100.0;
  PondPool pod(/*hosts=*/8, /*dram_per_host=*/64ull << 30, pool_fraction);
  Random rng(13);
  int placed = 0, rejected = 0;
  uint64_t gb_placed = 0;
  for (auto _ : state) {
    // A VM stream totalling ~75% of cluster DRAM, with VMs large enough
    // (8-48 GB) that fragmentation strands capacity without a pool.
    for (int i = 0; i < 14; i++) {
      PondPool::VmRequest vm;
      vm.name = "vm" + std::to_string(i);
      vm.memory_bytes = (8ull + rng.Uniform(41)) << 30;
      vm.latency_sensitivity = rng.NextDouble();
      vm.untouched_fraction = 0.25 + rng.NextDouble() * 0.3;  // Pond insight
      vm.max_slowdown = 0.05;
      if (pod.Allocate(vm).ok()) {
        placed++;
        gb_placed += vm.memory_bytes >> 30;
      } else {
        rejected++;
      }
    }
  }
  state.counters["vms_placed"] = placed;
  state.counters["vms_rejected"] = rejected;
  state.counters["gb_placed"] = static_cast<double>(gb_placed);
  state.counters["stranded_frac"] = pod.StrandedFraction();
}

BENCHMARK(BM_E16_RawLatency)->Arg(0)->Arg(1)->Arg(2)->Iterations(1);
BENCHMARK(BM_E16_Ahn_TpccLike)->Arg(0)->Arg(1)->Iterations(1);
BENCHMARK(BM_E16_Ahn_TpcdsLike)->Arg(0)->Arg(1)->Iterations(1);
BENCHMARK(BM_E16_TieredVsUnified)->Arg(1)->Arg(0)->Iterations(1);
BENCHMARK(BM_E16_Pond_PoolFractionSweep)
    ->Arg(0)
    ->Arg(15)
    ->Arg(30)
    ->Arg(50)
    ->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
