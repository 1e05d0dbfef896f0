#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/engines.h"
#include "net/interceptors.h"
#include "query/hybrid_pushdown.h"
#include "workload/tpch_lite.h"

namespace disagg {
namespace {

// The degrade-ladder suite: every engine's bounded-staleness fallback, the
// invariants that make it safe (never below RequiredPageLsn minus the bound,
// never installed in the write buffer, writes never degrade), and the
// pushdown-to-client ladder. Scenarios are built from real fault injection
// (node Fail/Revive) so the strict path fails the same way it would under a
// chaos schedule.

void FailNodesByPrefix(Fabric* fabric, const std::string& prefix, bool fail) {
  for (NodeId id = 1; id < fabric->num_nodes(); id++) {
    Node* n = fabric->node(id);
    if (n != nullptr && n->name().rfind(prefix, 0) == 0) {
      if (fail) {
        n->Fail();
      } else {
        n->Revive();
      }
    }
  }
}

TEST(DegradeLadderTest, AuroraServesBoundedStalenessFromLaggingReplica) {
  Fabric fabric;
  ReplicatedSegment::Config config;
  config.replicas = 4;
  config.num_azs = 4;
  config.write_quorum = 2;
  config.read_quorum = 3;
  AuroraDb db(&fabric, config);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());

  // Replicas r2/r3 miss the second commit, so their materialized pages stay
  // one version behind; then the two fresh replicas go down. The stale pair
  // keeps the write quorum alive (reads commit through the WAL), but
  // neither has acked the LSN the strict read requires.
  db.segment()->FailAz(2);
  db.segment()->FailAz(3);
  ASSERT_TRUE(db.Put(&setup, 1, "v2-payload").ok());
  db.segment()->ReviveAz(2);
  db.segment()->ReviveAz(3);
  db.segment()->FailAz(0);
  db.segment()->FailAz(1);
  db.DropBuffer();

  // Strict path: no reachable replica covers the required LSN.
  NetContext strict;
  auto miss = db.GetRow(&strict, 1);
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsUnavailable()) << miss.status().ToString();
  EXPECT_EQ(strict.degraded_ops, 0u);

  // Bound 0 refuses the stale copy: staleness above the bound never leaks.
  db.set_degrade_policy({/*enabled=*/true, /*max_staleness_lsn=*/0});
  NetContext bound0;
  auto refused = db.GetRow(&bound0, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_EQ(bound0.degraded_ops, 0u);
  EXPECT_EQ(bound0.staleness_lsn, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 0u);

  // Generous bound: the stale replica serves the previous version, and the
  // staleness is accounted on the context. (The read's commit record then
  // resyncs the stale pair — Aurora's ack-implies-contiguous protocol.)
  db.set_degrade_policy({true, 1'000'000});
  NetContext degraded;
  auto stale = db.GetRow(&degraded, 1);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(*stale, "v1-payload");
  EXPECT_EQ(degraded.degraded_ops, 1u);
  EXPECT_GT(degraded.staleness_lsn, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 1u);

  // Degraded copies never enter the buffer: the commit above resynced the
  // surviving replicas, so the very next strict fetch sees the committed
  // version — a buffered stale page would have answered v1 here.
  NetContext fresh;
  auto latest = db.GetRow(&fresh, 1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(*latest, "v2-payload");
  EXPECT_EQ(fresh.degraded_ops, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 1u);
}

TEST(DegradeLadderTest, WritesNeverUseTheDegradedPath) {
  Fabric fabric;
  ReplicatedSegment::Config config;
  config.replicas = 3;
  config.num_azs = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  AuroraDb db(&fabric, config);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());
  db.segment()->FailAz(2);
  ASSERT_TRUE(db.Put(&setup, 1, "v2-payload").ok());
  db.segment()->ReviveAz(2);
  db.segment()->FailAz(0);
  db.segment()->FailAz(1);
  db.DropBuffer();
  db.set_degrade_policy({true, 1'000'000});

  // An update must fetch the page strictly; a stale image under a write
  // would resurrect overwritten data. The ladder may not absorb this.
  NetContext write;
  const TxnId txn = db.Begin();
  Status st = db.Update(&write, txn, 1, "v3-payload");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(write.degraded_ops, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 0u);
  EXPECT_TRUE(db.Abort(&write, txn).ok());

  // Explicit-transaction reads are strict too: the transaction may write
  // values computed from them, so a stale input is never acceptable.
  NetContext txn_read;
  const TxnId reader = db.Begin();
  auto strict = db.Read(&txn_read, reader, 1);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsUnavailable()) << strict.status().ToString();
  EXPECT_EQ(txn_read.degraded_ops, 0u);
  EXPECT_TRUE(db.Abort(&txn_read, reader).ok());
}

TEST(DegradeLadderTest, PolarRejectsWhenLadderIsExhausted) {
  Fabric fabric;
  PolarDb db(&fabric);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());
  db.DropBuffer();
  FailNodesByPrefix(&fabric, "polar-pages", true);
  db.set_degrade_policy({true, 1'000'000});

  // Every replica down: the ladder has no copy to offer and the strict
  // path's error surfaces unchanged — degradation never fabricates data.
  NetContext ctx;
  auto row = db.GetRow(&ctx, 1);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsUnavailable()) << row.status().ToString();
  EXPECT_EQ(ctx.degraded_ops, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 0u);

  FailNodesByPrefix(&fabric, "polar-pages", false);
  NetContext after;
  auto back = db.GetRow(&after, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "v1-payload");
}

TEST(DegradeLadderTest, SocratesFallsBackToCheckpointUnderPageServerOutage) {
  Fabric fabric;
  SocratesDb db(&fabric, /*page_servers=*/2);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());
  ASSERT_TRUE(db.PropagateLogs(&setup).ok());
  ASSERT_TRUE(db.CheckpointToXStore(&setup).ok());  // checkpoint at v1
  ASSERT_TRUE(db.Put(&setup, 1, "v2-payload").ok());
  ASSERT_TRUE(db.PropagateLogs(&setup).ok());  // page servers + floor at v2
  for (int i = 0; i < 2; i++) fabric.node(db.page_server_node(i))->Fail();
  db.DropBuffer();

  NetContext strict;
  auto miss = db.GetRow(&strict, 1);
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsUnavailable()) << miss.status().ToString();

  // The availability tier is gone; the ladder's last rung is the durable
  // XStore checkpoint, one commit stale but within the bound.
  db.set_degrade_policy({true, 1'000'000});
  NetContext degraded;
  auto stale = db.GetRow(&degraded, 1);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(*stale, "v1-payload");
  EXPECT_EQ(degraded.degraded_ops, 1u);
  EXPECT_GT(degraded.staleness_lsn, 0u);
  EXPECT_EQ(db.stats().degraded_fetches, 1u);

  db.set_degrade_policy({true, 0});
  db.DropBuffer();
  NetContext bound0;
  EXPECT_FALSE(db.GetRow(&bound0, 1).ok());
  EXPECT_EQ(bound0.degraded_ops, 0u);
}

TEST(DegradeLadderTest, TaurusServesGossipedCopyWhenHomeStoreIsDown) {
  Fabric fabric;
  TaurusDb db(&fabric, /*log_stores=*/3, /*page_stores=*/3);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());
  for (int i = 0; i < 16 && !db.PageStoresConverged(); i++) {
    db.RunGossipRound(&setup);
  }
  ASSERT_TRUE(db.PageStoresConverged());  // v1 now on every page store
  ASSERT_TRUE(db.Put(&setup, 1, "v2-payload").ok());  // v2 on home store only

  // Fail the page's home store: the freshest image is unreachable and
  // gossip has not spread it yet.
  auto loc = db.Lookup(1);
  ASSERT_TRUE(loc.ok());
  const size_t home = (loc->page * 0x9E3779B97F4A7C15ull) % 3;
  fabric.node(db.page_store_node(static_cast<int>(home)))->Fail();
  db.DropBuffer();

  NetContext strict;
  auto miss = db.GetRow(&strict, 1);
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsUnavailable()) << miss.status().ToString();

  db.set_degrade_policy({true, 1'000'000});
  NetContext degraded;
  auto stale = db.GetRow(&degraded, 1);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(*stale, "v1-payload");
  EXPECT_EQ(degraded.degraded_ops, 1u);
  EXPECT_GT(degraded.staleness_lsn, 0u);
}

TEST(DegradeLadderTest, ReadOnlyAutocommitDegradesWithoutTouchingTheLog) {
  Fabric fabric;
  ReplicatedSegment::Config config;
  config.replicas = 4;
  config.num_azs = 4;
  config.write_quorum = 2;
  config.read_quorum = 3;
  AuroraDb db(&fabric, config);
  NetContext setup;
  ASSERT_TRUE(db.Put(&setup, 1, "v1-payload").ok());
  db.segment()->FailAz(2);
  db.segment()->FailAz(3);
  ASSERT_TRUE(db.Put(&setup, 1, "v2-payload").ok());
  db.segment()->ReviveAz(2);
  db.segment()->ReviveAz(3);
  db.segment()->FailAz(0);
  db.segment()->FailAz(1);
  db.DropBuffer();
  db.set_degrade_policy({true, 1'000'000});

  // The read-only autocommit serves the same bounded-staleness copy as
  // `GetRow`, but ends without a commit record or flush: only `Begin`'s
  // buffered kTxnBegin record is left behind, the durable log never moves,
  // and the stale replicas are NOT resynced by the read itself (a `GetRow`
  // here would repair them via its commit's resync).
  const Lsn flushed_before = db.wal()->flushed_lsn();
  const Lsn next_before = db.wal()->next_lsn();
  const size_t buffered_before = db.wal()->buffered();
  NetContext degraded;
  auto stale = db.GetRowReadOnly(&degraded, 1);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(*stale, "v1-payload");
  EXPECT_EQ(degraded.degraded_ops, 1u);
  EXPECT_GT(degraded.staleness_lsn, 0u);
  EXPECT_EQ(db.wal()->flushed_lsn(), flushed_before);
  EXPECT_EQ(db.wal()->next_lsn(), next_before + 1);  // the begin record
  EXPECT_EQ(db.wal()->buffered(), buffered_before + 1);

  // A second read-only pass still sees the stale copy — nothing resynced —
  // and its locks were released (a writer can lock the key immediately).
  db.DropBuffer();
  NetContext again;
  auto second = db.GetRowReadOnly(&again, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "v1-payload");
  const TxnId writer = db.Begin();
  Status locked = db.Delete(&again, writer, 1);
  // The delete proceeds past lock acquisition (no Busy from a leaked shared
  // lock) and only then dies on the strict page fetch.
  EXPECT_FALSE(locked.IsBusy()) << locked.ToString();
  EXPECT_TRUE(db.Abort(&again, writer).ok());
}

TEST(DegradeLadderTest, DisabledOrIdlePolicyIsBitIdenticalToBaseline) {
  // Two identical engines, same workload; one has the ladder enabled but
  // never needs it. Every context counter must match exactly — the ladder
  // must be invisible until a strict-path failure actually engages it.
  auto run = [](bool enabled) {
    Fabric fabric;
    AuroraDb db(&fabric);
    if (enabled) db.set_degrade_policy({true, 100});
    NetContext ctx;
    for (uint64_t k = 0; k < 20; k++) {
      EXPECT_TRUE(db.Put(&ctx, k, "row-" + std::to_string(k)).ok());
    }
    db.DropBuffer();
    for (uint64_t k = 0; k < 20; k++) {
      auto row = db.GetRow(&ctx, k);
      EXPECT_TRUE(row.ok());
    }
    return ctx;
  };
  NetContext base = run(false);
  NetContext with = run(true);
  EXPECT_EQ(base.sim_ns, with.sim_ns);
  EXPECT_EQ(base.bytes_out, with.bytes_out);
  EXPECT_EQ(base.bytes_in, with.bytes_in);
  EXPECT_EQ(base.round_trips, with.round_trips);
  EXPECT_EQ(with.degraded_ops, 0u);
  EXPECT_EQ(with.staleness_lsn, 0u);
}

// Test interceptor standing in for an overloaded memory pool: refuses the
// chosen verbs with the admission-control status while leaving the rest of
// the fabric untouched.
class RefuseVerbs : public FabricInterceptor {
 public:
  const char* name() const override { return "test-refuse"; }
  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    (void)fabric;
    if (refuse_rpc && op->verb == FabricVerb::kRpc) {
      return Status::Busy("pool refuses pushdown");
    }
    if (refuse_reads && op->verb == FabricVerb::kRead) {
      return Status::Busy("pool refuses reads");
    }
    return next(op, ctx);
  }
  bool refuse_rpc = false;
  bool refuse_reads = false;
};

TEST(DegradeLadderTest, PushdownFallsBackToClientSideExecution) {
  Fabric fabric;
  MemoryNode pool(&fabric, "fpdb-pool", 256 << 20);
  NetContext setup;
  auto table = HybridTable::Create(&setup, &fabric, &pool,
                                   tpch::LineitemSchema(),
                                   tpch::GenLineitem(2000),
                                   /*segments=*/8, /*cache_segments=*/0);
  ASSERT_TRUE(table.ok());
  ops::Fragment frag;
  frag.predicate.And(1, CmpOp::kLe, int64_t{5});
  frag.project = {0, 1};

  NetContext base_ctx;
  auto baseline =
      (*table)->Query(&base_ctx, frag, HybridTable::Mode::kPushdownOnly);
  ASSERT_TRUE(baseline.ok());

  auto refuse = std::make_shared<RefuseVerbs>();
  refuse->refuse_rpc = true;
  fabric.AddInterceptor(refuse);

  // Ladder off: the refusal surfaces and the query dies.
  NetContext off_ctx;
  auto rejected =
      (*table)->Query(&off_ctx, frag, HybridTable::Mode::kPushdownOnly);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsBusy());

  // Ladder on: every refused pushdown is executed client-side over the raw
  // segment, and the answer matches the pushdown result exactly.
  (*table)->set_degrade_to_client(true);
  HybridTable::QueryStats stats;
  NetContext on_ctx;
  auto degraded = (*table)->Query(&on_ctx, frag,
                                  HybridTable::Mode::kPushdownOnly, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->size(), baseline->size());
  EXPECT_EQ(stats.degraded_pushdowns, 8u);
  EXPECT_EQ(on_ctx.degraded_ops, 8u);
  // The fallback moves whole segments instead of filtered results.
  EXPECT_GT(on_ctx.bytes_in, base_ctx.bytes_in);

  // Both rungs refused: the ladder is exhausted and the original pushdown
  // refusal is what the caller sees.
  refuse->refuse_reads = true;
  NetContext dead_ctx;
  auto dead =
      (*table)->Query(&dead_ctx, frag, HybridTable::Mode::kPushdownOnly);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsBusy());
  EXPECT_EQ(dead_ctx.degraded_ops, 0u);
}

}  // namespace
}  // namespace disagg
