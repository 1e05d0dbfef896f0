#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "core/engines.h"
#include "test_util.h"
#include "txn/recovery.h"

namespace disagg {
namespace {

// End-to-end: run a transactional workload (with aborts) on the engine,
// then recover the database FROM ITS OWN LOG with ARIES and check the
// recovered pages contain exactly the committed rows. This closes the loop
// between the engine's runtime CLR logging and the recovery module.

TEST(EngineRecoveryTest, LogAloneRebuildsCommittedState) {
  MonolithicDb db;
  NetContext ctx;
  const std::map<uint64_t, std::string> committed =
      testutil::RunSeededMixedWorkload(&db, &ctx, /*seed=*/2027);
  ASSERT_TRUE(db.wal()->Flush(&ctx).ok());

  // Recover from the log only (no checkpoint).
  auto log = db.sink()->ReadAll(&ctx);
  ASSERT_TRUE(log.ok());
  auto out = AriesRecovery::Recover(*log, {});
  ASSERT_TRUE(out.ok());

  // Every committed row must be present in the recovered pages with its
  // final payload; count survivors to rule out ghosts.
  size_t live_slots = 0;
  std::map<std::string, int> recovered_payload_counts;
  for (const auto& [page_id, page] : out->pages) {
    for (uint16_t s = 0; s < page.slot_count(); s++) {
      auto row = page.Get(s);
      if (row.ok()) {
        live_slots++;
        recovered_payload_counts[row->ToString()]++;
      }
    }
  }
  EXPECT_EQ(live_slots, committed.size());
  for (const auto& [key, row] : committed) {
    EXPECT_GE(recovered_payload_counts[row], 1)
        << "missing committed row for key " << key;
    // Cross-check against the live engine too.
    EXPECT_EQ(*db.GetRow(&ctx, key), row);
  }
}

TEST(EngineRecoveryTest, AuroraLogIsTheDatabaseEndToEnd) {
  // The same property through Aurora's quorum: the segment's log replicas
  // alone reconstruct the committed state — no page was ever shipped.
  Fabric fabric;
  AuroraDb db(&fabric);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "aurora-row-1").ok());
  const TxnId aborted = db.Begin();
  ASSERT_TRUE(db.Insert(&ctx, aborted, 2, "never-committed").ok());
  ASSERT_TRUE(db.Abort(&ctx, aborted).ok());
  ASSERT_TRUE(db.Put(&ctx, 3, "aurora-row-3").ok());
  ASSERT_TRUE(db.wal()->Flush(&ctx).ok());

  auto log = db.sink()->ReadAll(&ctx);
  ASSERT_TRUE(log.ok());
  auto out = AriesRecovery::Recover(*log, {});
  ASSERT_TRUE(out.ok());
  size_t live = 0;
  bool saw_ghost = false;
  for (const auto& [page_id, page] : out->pages) {
    for (uint16_t s = 0; s < page.slot_count(); s++) {
      auto row = page.Get(s);
      if (!row.ok()) continue;
      live++;
      if (row->ToString() == "never-committed") saw_ghost = true;
    }
  }
  EXPECT_EQ(live, 2u);
  EXPECT_FALSE(saw_ghost);
}

// Fails every `log.append` RPC while `down` is set.
class LogAppendOutage : public FabricInterceptor {
 public:
  const char* name() const override { return "log-append-outage"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    if (down && op->method != nullptr && *op->method == "log.append") {
      return Status::Unavailable("log tier down");
    }
    return next(op, ctx);
  }
  bool down = false;
};

TEST(EngineRecoveryTest, CrashLosesTheUnflushedWalTail) {
  // A commit whose flush failed leaves its batch in the WAL buffer. A crash
  // loses that buffer with the compute node: recovery rebuilds the pages
  // from the durable log alone, so no later flush may ship the lost batch
  // (the log would then hold an update the recovered pages never saw).
  Fabric fabric;
  auto outage = std::make_shared<LogAppendOutage>();
  fabric.AddInterceptor(outage);
  SocratesDb db(&fabric, /*page_servers=*/1);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "durable").ok());
  outage->down = true;
  // Same width, so the update stays in its slot (the row index is not
  // rebuilt by recovery).
  EXPECT_FALSE(db.Put(&ctx, 1, "lost-up").ok());
  EXPECT_GT(db.wal()->buffered(), 0u);
  outage->down = false;

  ASSERT_TRUE(db.CrashAndRecover(&ctx).ok());
  EXPECT_EQ(db.wal()->buffered(), 0u);
  auto row = db.GetRow(&ctx, 1);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(*row, "durable");
  const Status put = db.Put(&ctx, 2, "after");
  ASSERT_TRUE(put.ok()) << put.ToString();
  // The log still agrees with the pages the first recovery rebuilt.
  ASSERT_TRUE(db.CrashAndRecover(&ctx).ok());
  row = db.GetRow(&ctx, 1);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(*row, "durable");
  row = db.GetRow(&ctx, 2);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(*row, "after");
}

}  // namespace
}  // namespace disagg
