#include <gtest/gtest.h>

#include "sim/engine_registry.h"
#include "storage/log_store.h"
#include "storage/quorum.h"

namespace disagg {
namespace {

using sim::MakeRowEngine;
using sim::RowEngineNames;
using sim::SharedLogRowEngineNames;

// Deterministic mixed workload: inserts, updates (grow + shrink), deletes,
// reads, and one explicit multi-op transaction. Returns the final expected
// KV state so callers can cross-check engines against each other.
std::map<uint64_t, std::string> RunWorkload(RowEngine* db, NetContext* ctx) {
  std::map<uint64_t, std::string> expect;
  for (uint64_t k = 1; k <= 24; k++) {
    const std::string v = "row-" + std::to_string(k * 7919);
    EXPECT_TRUE(db->Put(ctx, k, v).ok());
    expect[k] = v;
  }
  for (uint64_t k = 2; k <= 24; k += 3) {
    const std::string v(40 + k, 'x');  // grow-update path
    EXPECT_TRUE(db->Put(ctx, k, v).ok());
    expect[k] = v;
  }
  const TxnId txn = db->Begin();
  EXPECT_TRUE(db->Delete(ctx, txn, 5).ok());
  EXPECT_TRUE(db->Update(ctx, txn, 6, "u6").ok());
  EXPECT_TRUE(db->Insert(ctx, txn, 100, "late").ok());
  EXPECT_TRUE(db->Commit(ctx, txn).ok());
  expect.erase(5);
  expect[6] = "u6";
  expect[100] = "late";
  // One aborted transaction: must leave no trace in either log mode. The
  // doomed update grows the row so it takes the delete+insert path, whose
  // rollback (reinsert + CLR) is supported for any size delta.
  const TxnId doomed = db->Begin();
  EXPECT_TRUE(db->Update(ctx, doomed, 7, std::string(60, 'd')).ok());
  EXPECT_TRUE(db->Abort(ctx, doomed).ok());
  return expect;
}

void ExpectState(RowEngine* db, NetContext* ctx,
                 const std::map<uint64_t, std::string>& expect,
                 const std::string& label) {
  ASSERT_EQ(db->row_count(), expect.size()) << label;
  for (const auto& [k, v] : expect) {
    auto got = db->GetRow(ctx, k);
    ASSERT_TRUE(got.ok()) << label << " key " << k << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, v) << label << " key " << k;
  }
  auto gone = db->GetRow(ctx, 5);
  EXPECT_TRUE(gone.status().IsNotFound()) << label;
}

// Legacy-mode parity: the LogBackend refactor must leave every legacy
// engine's behaviour bit-identical — same data, same counters, run to run.
// Counter equality across two fresh constructions pins the whole charged
// path (sink construction, append fan-out, recovery reads) as deterministic;
// any conditional that sneaks shared-log work into legacy mode shows up as
// a counter diff here.
TEST(LogBackendParityTest, LegacyCountersAreBitIdentical) {
  for (const std::string& name : RowEngineNames()) {
    NetContext a_ctx, b_ctx;
    Fabric a_fab, b_fab;
    auto a = MakeRowEngine(name, &a_fab);
    auto b = MakeRowEngine(name, &b_fab);
    ASSERT_NE(a, nullptr) << name;
    EXPECT_EQ(a->shared_log(), nullptr) << name << ": legacy engine owns a "
                                        << "shared log";
    const auto expect = RunWorkload(a.get(), &a_ctx);
    RunWorkload(b.get(), &b_ctx);

    EXPECT_EQ(a_ctx.sim_ns, b_ctx.sim_ns) << name;
    EXPECT_EQ(a_ctx.bytes_out, b_ctx.bytes_out) << name;
    EXPECT_EQ(a_ctx.bytes_in, b_ctx.bytes_in) << name;
    EXPECT_EQ(a_ctx.rpcs, b_ctx.rpcs) << name;
    EXPECT_EQ(a_ctx.round_trips, b_ctx.round_trips) << name;
    EXPECT_EQ(a->stats().commits, b->stats().commits) << name;
    ExpectState(a.get(), &a_ctx, expect, name);
  }
}

// Legacy vs shared equivalence: the same workload through a "+slog" engine
// must produce the same database — only the log tier differs.
TEST(LogBackendParityTest, SharedModeMatchesLegacyData) {
  for (const std::string& name : SharedLogRowEngineNames()) {
    const std::string base = name.substr(0, name.size() - 5);
    NetContext legacy_ctx, shared_ctx;
    Fabric legacy_fab, shared_fab;
    auto legacy = MakeRowEngine(base, &legacy_fab);
    auto shared = MakeRowEngine(name, &shared_fab);
    ASSERT_NE(shared, nullptr) << name;
    ASSERT_NE(shared->shared_log(), nullptr) << name;

    const auto expect = RunWorkload(legacy.get(), &legacy_ctx);
    const auto got = RunWorkload(shared.get(), &shared_ctx);
    ASSERT_EQ(expect, got) << name;
    // Compare before ExpectState: its GetRow probes autocommit.
    EXPECT_EQ(legacy->stats().commits, shared->stats().commits) << name;
    ExpectState(shared.get(), &shared_ctx, expect, name);

    // The shared-log WAL stream is replayable: full compute restart.
    ASSERT_TRUE(shared->CrashAndRecover(&shared_ctx).ok()) << name;
    ExpectState(shared.get(), &shared_ctx, expect, name + " (recovered)");
  }
}

// Bugfix regression: ReplicatedSegment::RecoverDurableLsn must establish the
// recovery LSN over the fabric (log.tail RPCs), not by peeking service
// state. The returned LSN must still be the quorum-committed tail.
TEST(LogBackendParityTest, RecoverDurableLsnGoesOverTheFabric) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, ReplicatedSegment::Config{});
  NetContext ctx;
  std::vector<LogRecord> recs;
  for (Lsn l = 1; l <= 5; l++) {
    LogRecord r;
    r.lsn = l;
    r.txn_id = 1;
    r.type = LogType::kInsert;
    r.page_id = 1;
    r.payload = "p";
    recs.push_back(r);
  }
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords(recs)).ok());

  NetContext probe;
  auto lsn = segment.RecoverDurableLsn(&probe);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 5u);
  EXPECT_GE(probe.rpcs, static_cast<uint64_t>(segment.config().read_quorum))
      << "recovery probes bypassed Fabric::Execute";
  EXPECT_GT(probe.sim_ns, 0u);
}

// Bugfix regression: the log.tail verb itself. A client-side DurableLsn must
// match the service's durable tail and charge the caller.
TEST(LogBackendParityTest, LogTailRpcReportsDurableTail) {
  Fabric fabric;
  const NodeId node = fabric.AddNode("logstore", NodeKind::kStorage,
                                     InterconnectModel::Ssd());
  LogStoreService service(&fabric, node);
  LogStoreClient client(&fabric, node);
  NetContext ctx;

  auto empty = client.DurableLsn(&ctx);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, kInvalidLsn);

  LogRecord r;
  r.lsn = 9;
  r.txn_id = 1;
  r.type = LogType::kInsert;
  r.page_id = 1;
  r.payload = "p";
  ASSERT_TRUE(client.Append(&ctx, RedoBatch::Encode({&r, 1})).ok());

  NetContext probe;
  auto tail = client.DurableLsn(&probe);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 9u);
  EXPECT_EQ(probe.rpcs, 1u);
  EXPECT_EQ(tail.ok() ? service.durable_lsn() : 0, 9u);
}

// Bugfix regression: engine recovery reads (sink()->ReadAll) are fabric
// traffic for every distributed architecture — the Aurora quorum sink used
// to peek replica state directly when picking the freshest replica.
TEST(LogBackendParityTest, RecoveryReadsChargeTheFabric) {
  for (const std::string& name : RowEngineNames()) {
    if (name == "monolithic") continue;  // local-disk WAL by design
    Fabric fabric;
    NetContext ctx;
    auto db = MakeRowEngine(name, &fabric);
    ASSERT_NE(db, nullptr) << name;
    ASSERT_TRUE(db->Put(&ctx, 1, "v").ok());

    NetContext recovery;
    auto log = db->sink()->ReadAll(&recovery);
    ASSERT_TRUE(log.ok()) << name << ": " << log.status().ToString();
    EXPECT_FALSE(log->empty()) << name;
    EXPECT_GT(recovery.rpcs, 0u)
        << name << ": recovery read bypassed Fabric::Execute";
  }
}

}  // namespace
}  // namespace disagg
