// Experiment E8 / Figure 2 (DESIGN.md): shared-memory design atop
// disaggregated memory — LegoBase's two-tier buffer management and fast
// recovery (Sec. 3.1).
//  - Local-cache-fraction sweep on a Zipfian YCSB read workload: throughput
//    climbs steeply with even a small local (L1) cache because the hot set
//    concentrates; the remote-memory L2 absorbs the rest, keeping misses
//    off storage.
//  - Recovery: restart from the remote-memory checkpoint (fast) vs from
//    disaggregated storage (slow) after the same crash.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "memnode/two_tier_cache.h"
#include "txn/two_tier_aries.h"
#include "workload/ycsb.h"

namespace disagg {
namespace {

constexpr size_t kPages = 256;
constexpr int kOps = 2000;

void BM_Fig2_LocalCacheFractionSweep(benchmark::State& state) {
  // range = L1 capacity as a percent of the working set.
  const size_t l1_pages =
      std::max<size_t>(1, kPages * static_cast<size_t>(state.range(0)) / 100);
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 512 << 20);
  InMemoryPageSource storage;
  for (PageId id = 0; id < kPages; id++) {
    Page page(id);
    DISAGG_CHECK(page.Insert("payload").ok());
    storage.Seed(page);
  }
  TwoTierCache cache(&fabric, &pool, &storage, l1_pages, kPages);
  ZipfianGenerator zipf(kPages, 0.99, 11);
  NetContext ctx;
  for (auto _ : state) {
    for (int i = 0; i < kOps; i++) {
      DISAGG_CHECK(cache.Get(&ctx, zipf.Next()).ok());
    }
  }
  bench::ReportSim(state, ctx, kOps);
  state.counters["l1_hit_rate"] = cache.stats().L1HitRate();
  state.counters["l2_hits"] = static_cast<double>(cache.stats().l2_hits);
  state.counters["storage_misses"] =
      static_cast<double>(cache.stats().misses);
}

struct RecoveryFixture {
  RecoveryFixture()
      : pool(&fabric, "mem0", 512 << 20),
        aries(&fabric, &pool, &storage, &sink),
        wal(&sink) {
    NetContext setup;
    std::map<PageId, Page> pages;
    Lsn lsn = 0;
    for (PageId id = 0; id < 64; id++) {
      Page page(id);
      DISAGG_CHECK(page.Insert("checkpointed").ok());
      LogRecord r;
      r.txn_id = 1;
      r.type = LogType::kInsert;
      r.page_id = id;
      r.slot = 0;
      r.payload = "checkpointed";
      lsn = wal.Append(&r);
      page.set_lsn(lsn);
      pages.emplace(id, std::move(page));
    }
    LogRecord commit;
    commit.txn_id = 1;
    commit.type = LogType::kTxnCommit;
    commit.page_id = kInvalidPageId;
    wal.Append(&commit);
    DISAGG_CHECK_OK(wal.Flush(&setup));
    DISAGG_CHECK_OK(aries.Checkpoint(&setup, pages, lsn));
    // A short tail of post-checkpoint commits to replay.
    for (int i = 0; i < 32; i++) {
      LogRecord r;
      r.txn_id = 2 + i;
      r.type = LogType::kUpdate;
      r.page_id = i % 64;
      r.slot = 0;
      r.payload = "post-checkpt";
      r.undo_payload = "checkpointed";
      wal.Append(&r);
      LogRecord c;
      c.txn_id = 2 + i;
      c.type = LogType::kTxnCommit;
      c.page_id = kInvalidPageId;
      wal.Append(&c);
    }
    DISAGG_CHECK_OK(wal.Flush(&setup));
  }
  Fabric fabric;
  MemoryNode pool;
  InMemoryPageSource storage;
  LocalDiskSink sink;
  TwoTierAries aries;
  WalManager wal;
};

void BM_Fig2_RecoveryFromRemoteMemory(benchmark::State& state) {
  RecoveryFixture f;
  NetContext ctx;
  bool used_remote = false;
  for (auto _ : state) {
    auto out = f.aries.Recover(&ctx, &used_remote);
    DISAGG_CHECK(out.ok());
    DISAGG_CHECK(used_remote);
  }
  state.counters["recovery_sim_ms"] = static_cast<double>(ctx.sim_ns) / 1e6;
}

void BM_Fig2_RecoveryFromStorage(benchmark::State& state) {
  RecoveryFixture f;
  f.aries.InvalidateRemoteTier();
  NetContext ctx;
  bool used_remote = true;
  for (auto _ : state) {
    auto out = f.aries.Recover(&ctx, &used_remote);
    DISAGG_CHECK(out.ok());
    DISAGG_CHECK(!used_remote);
  }
  state.counters["recovery_sim_ms"] = static_cast<double>(ctx.sim_ns) / 1e6;
}

BENCHMARK(BM_Fig2_LocalCacheFractionSweep)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Iterations(1);
BENCHMARK(BM_Fig2_RecoveryFromRemoteMemory)->Iterations(1);
BENCHMARK(BM_Fig2_RecoveryFromStorage)->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
