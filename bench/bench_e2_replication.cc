// Experiment E2 (DESIGN.md): replication protocols of the storage tier.
// Aurora's 6-way/3-AZ write quorum (W=4) vs PolarFS's 3-way RaftLite.
// Expected shape: quorum append latency ~ one parallel fan-out round;
// Raft commits in one leader round trip to a majority; the quorum design
// moves ~2x the bytes (6 vs 3 copies) but stays available through a whole
// AZ failure, which Raft-3 maps to a single-node failure.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "storage/quorum.h"
#include "storage/raft_lite.h"

namespace disagg {
namespace {

constexpr int kWrites = 300;

LogRecord MakeRecord(Lsn lsn) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = 1;
  r.type = LogType::kInsert;
  r.page_id = lsn % 32;
  r.slot = 0;
  r.payload = std::string(120, 'x');
  return r;
}

void BM_E2_AuroraQuorum_6of3AZ(benchmark::State& state) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  for (auto _ : state) {
    for (Lsn lsn = 1; lsn <= kWrites; lsn++) {
      DISAGG_CHECK(
          segment.AppendLog(&ctx, EncodedRecords({MakeRecord(lsn)})).ok());
    }
  }
  bench::ReportSim(state, ctx, kWrites);
}

void BM_E2_AuroraQuorum_UnderAzFailure(benchmark::State& state) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  segment.FailAz(0);  // 2 of 6 replicas down for the whole run
  NetContext ctx;
  for (auto _ : state) {
    for (Lsn lsn = 1; lsn <= kWrites; lsn++) {
      DISAGG_CHECK(
          segment.AppendLog(&ctx, EncodedRecords({MakeRecord(lsn)})).ok());
    }
  }
  bench::ReportSim(state, ctx, kWrites);
}

void BM_E2_PolarFsRaft_3way(benchmark::State& state) {
  Fabric fabric;
  RaftLiteGroup raft(&fabric, 3);
  NetContext ctx;
  for (auto _ : state) {
    for (Lsn lsn = 1; lsn <= kWrites; lsn++) {
      std::string payload;
      MakeRecord(lsn).EncodeTo(&payload);
      DISAGG_CHECK(raft.Append(&ctx, std::move(payload)).ok());
    }
  }
  bench::ReportSim(state, ctx, kWrites);
}

void BM_E2_PolarFsRaft_FollowerDown(benchmark::State& state) {
  Fabric fabric;
  RaftLiteGroup raft(&fabric, 3);
  fabric.node(raft.replica_node(2))->Fail();
  NetContext ctx;
  for (auto _ : state) {
    for (Lsn lsn = 1; lsn <= kWrites; lsn++) {
      std::string payload;
      MakeRecord(lsn).EncodeTo(&payload);
      DISAGG_CHECK(raft.Append(&ctx, std::move(payload)).ok());
    }
  }
  bench::ReportSim(state, ctx, kWrites);
}

BENCHMARK(BM_E2_AuroraQuorum_6of3AZ)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_AuroraQuorum_UnderAzFailure)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_PolarFsRaft_3way)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_PolarFsRaft_FollowerDown)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
