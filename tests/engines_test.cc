#include <gtest/gtest.h>

#include <string>

#include "core/engines.h"
#include "core/serverless_db.h"
#include "core/snowflake_db.h"
#include "sim/engine_registry.h"
#include "test_util.h"

namespace disagg {
namespace {

// Exercises the common RowEngine behaviour against one architecture.
void RunCrudSuite(const std::string& name) {
  SCOPED_TRACE("engine=" + name);
  Fabric fabric;
  auto db = sim::MakeRowEngine(name, &fabric);
  ASSERT_NE(db, nullptr);
  NetContext ctx;

  // Autocommit CRUD.
  ASSERT_TRUE(db->Put(&ctx, 1, "one").ok());
  ASSERT_TRUE(db->Put(&ctx, 2, "two").ok());
  EXPECT_EQ(*db->GetRow(&ctx, 1), "one");
  ASSERT_TRUE(db->Put(&ctx, 1, "uno").ok());
  EXPECT_EQ(*db->GetRow(&ctx, 1), "uno");
  EXPECT_TRUE(db->GetRow(&ctx, 99).status().IsNotFound());

  // Multi-op transaction with commit.
  TxnId txn = db->Begin();
  ASSERT_TRUE(db->Insert(&ctx, txn, 10, "ten").ok());
  ASSERT_TRUE(db->Update(&ctx, txn, 2, "TWO").ok());
  ASSERT_TRUE(db->Commit(&ctx, txn).ok());
  EXPECT_EQ(*db->GetRow(&ctx, 10), "ten");
  EXPECT_EQ(*db->GetRow(&ctx, 2), "TWO");

  // Abort rolls everything back.
  txn = db->Begin();
  ASSERT_TRUE(db->Insert(&ctx, txn, 20, "twenty").ok());
  ASSERT_TRUE(db->Update(&ctx, txn, 1, "bad").ok());
  ASSERT_TRUE(db->Delete(&ctx, txn, 2).ok());
  ASSERT_TRUE(db->Abort(&ctx, txn).ok());
  EXPECT_TRUE(db->GetRow(&ctx, 20).status().IsNotFound());
  EXPECT_EQ(*db->GetRow(&ctx, 1), "uno");
  EXPECT_EQ(*db->GetRow(&ctx, 2), "TWO");

  // Many rows to force multiple pages.
  const std::string filler(300, 'f');
  for (uint64_t k = 100; k < 200; k++) {
    ASSERT_TRUE(db->Put(&ctx, k, filler).ok());
  }
  EXPECT_EQ(*db->GetRow(&ctx, 150), filler);
}

// Registry-driven: every RowEngine architecture passes the same CRUD
// conformance suite. Adding an engine to sim::RowEngineNames() enrolls it.
TEST(RowEngineConformanceTest, CrudSuiteEveryEngine) {
  for (const std::string& name : sim::RowEngineNames()) {
    RunCrudSuite(name);
  }
}

// The same seeded mixed workload (commits, aborts, deletes) runs on every
// engine and must leave the identical committed state readable.
TEST(RowEngineConformanceTest, SeededWorkloadConvergesEverywhere) {
  std::map<uint64_t, std::string> reference;
  for (const std::string& name : sim::RowEngineNames()) {
    SCOPED_TRACE("engine=" + name);
    Fabric fabric;
    auto db = sim::MakeRowEngine(name, &fabric);
    ASSERT_NE(db, nullptr);
    NetContext ctx;
    auto committed = testutil::RunSeededMixedWorkload(db.get(), &ctx);
    if (reference.empty()) reference = committed;
    EXPECT_EQ(committed, reference);  // deterministic across architectures
    for (const auto& [key, row] : committed) {
      auto got = db->GetRow(&ctx, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(*got, row);
    }
  }
}

TEST(AuroraDbTest, LogShippingSendsNoPages) {
  // Aurora's headline: only redo records cross the network on the write
  // path. Page-shipping PolarDB moves at least a page per touched page.
  Fabric fabric;
  AuroraDb aurora(&fabric);
  PolarDb polar(&fabric);
  const std::string row(200, 'r');
  NetContext aurora_ctx, polar_ctx;
  ASSERT_TRUE(aurora.Put(&aurora_ctx, 1, row).ok());
  ASSERT_TRUE(polar.Put(&polar_ctx, 1, row).ok());
  EXPECT_LT(aurora_ctx.bytes_out, 6 * 1024u);  // ~6 small log copies
  EXPECT_GT(polar_ctx.bytes_out, 3 * kPageSize);  // 3 page replicas
  EXPECT_LT(aurora_ctx.bytes_out, polar_ctx.bytes_out / 4);
}

TEST(AuroraDbTest, RestartRecoversFromSharedStorage) {
  Fabric fabric;
  AuroraDb db(&fabric);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 7, "durable").ok());
  db.DropBuffer();  // compute node restart: stateless compute
  EXPECT_EQ(*db.GetRow(&ctx, 7), "durable");
  EXPECT_GT(db.stats().page_fetches, 0u);
}

TEST(AuroraDbTest, ReaderSharesStorageWithCacheRevalidation) {
  Fabric fabric;
  AuroraDb writer(&fabric);
  AuroraReader reader(&writer, /*cache_pages=*/8);
  NetContext ctx;
  ASSERT_TRUE(writer.Put(&ctx, 1, "v1").ok());
  EXPECT_EQ(*reader.Get(&ctx, 1), "v1");
  EXPECT_EQ(reader.segment_reads(), 1u);
  EXPECT_EQ(*reader.Get(&ctx, 1), "v1");  // cached
  EXPECT_EQ(reader.cache_hits(), 1u);
  ASSERT_TRUE(writer.Put(&ctx, 1, "v2").ok());
  EXPECT_EQ(*reader.Get(&ctx, 1), "v2");  // LSN bumped -> refetch
  EXPECT_EQ(reader.segment_reads(), 2u);
}

TEST(PolarDbTest, SurvivesRaftFollowerFailure) {
  Fabric fabric;
  PolarDb db(&fabric);
  NetContext ctx;
  fabric.node(db.polarfs()->replica_node(2))->Fail();
  ASSERT_TRUE(db.Put(&ctx, 1, "still-works").ok());
  EXPECT_EQ(*db.GetRow(&ctx, 1), "still-works");
}

TEST(SocratesDbTest, TierSeparation) {
  Fabric fabric;
  SocratesDb db(&fabric, /*page_servers=*/2);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "socrates-row").ok());
  // Commit touched only the XLOG tier; page servers are fed asynchronously.
  ASSERT_TRUE(db.PropagateLogs(&ctx).ok());
  db.DropBuffer();
  EXPECT_EQ(*db.GetRow(&ctx, 1), "socrates-row");  // from a page server
}

TEST(SocratesDbTest, XStoreServesWhenPageServersAreGone) {
  Fabric fabric;
  SocratesDb db(&fabric, 1);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "checkpointed").ok());
  ASSERT_TRUE(db.CheckpointToXStore(&ctx).ok());
  EXPECT_GT(db.xstore()->object_count(), 0u);
  db.DropBuffer();
  // Page server never got the logs (no PropagateLogs) — availability tier
  // empty; the durable XStore checkpoint still serves the read.
  EXPECT_EQ(*db.GetRow(&ctx, 1), "checkpointed");
}

TEST(TaurusDbTest, SinglePageStorePropagationPlusGossip) {
  Fabric fabric;
  TaurusDb db(&fabric, 3, 3);
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "taurus-row").ok());
  EXPECT_FALSE(db.PageStoresConverged());  // only one store got the redo
  for (int i = 0; i < 16 && !db.PageStoresConverged(); i++) {
    db.RunGossipRound(&ctx);
  }
  EXPECT_TRUE(db.PageStoresConverged());
  db.DropBuffer();
  EXPECT_EQ(*db.GetRow(&ctx, 1), "taurus-row");
}

TEST(ServerlessDbTest, SecondarySeesWritesWithoutReplay) {
  Fabric fabric;
  ServerlessDb db(&fabric, /*max_pages=*/64);
  auto primary = db.AttachCompute(8, /*writer=*/true);
  auto secondary = db.AttachCompute(8, /*writer=*/false);
  NetContext ctx;
  ASSERT_TRUE(primary->Put(&ctx, 1, "shared-v1").ok());
  EXPECT_EQ(*secondary->Get(&ctx, 1), "shared-v1");
  ASSERT_TRUE(primary->Put(&ctx, 1, "shared-v2").ok());
  // The secondary revalidates its cached copy and picks up v2 — no log
  // replay involved (PolarDB Serverless's claim).
  EXPECT_EQ(*secondary->Get(&ctx, 1), "shared-v2");
  EXPECT_TRUE(secondary->Put(&ctx, 2, "nope").IsNotSupported());
}

TEST(ServerlessDbTest, ManyRowsAcrossPages) {
  Fabric fabric;
  ServerlessDb db(&fabric, 64);
  auto primary = db.AttachCompute(8, true);
  NetContext ctx;
  const std::string filler(500, 'x');
  for (uint64_t k = 0; k < 60; k++) {
    ASSERT_TRUE(primary->Put(&ctx, k, filler).ok()) << k;
  }
  auto secondary = db.AttachCompute(8, false);
  for (uint64_t k = 0; k < 60; k++) {
    EXPECT_EQ(*secondary->Get(&ctx, k), filler);
  }
}

Schema SalesSchema() {
  return Schema{{{"day", ColumnType::kInt64},
                 {"amount", ColumnType::kDouble},
                 {"region", ColumnType::kString}}};
}

std::vector<Tuple> SalesRows(int days, int per_day) {
  std::vector<Tuple> rows;
  for (int d = 0; d < days; d++) {
    for (int i = 0; i < per_day; i++) {
      rows.push_back({static_cast<int64_t>(d),
                      static_cast<double>(d * per_day + i),
                      std::string(d % 2 ? "east" : "west")});
    }
  }
  return rows;
}

TEST(SnowflakeDbTest, LoadAndQueryWithPruning) {
  Fabric fabric;
  SnowflakeDb db(&fabric, /*rows_per_file=*/100);
  NetContext ctx;
  // 10 days x 100 rows/day = 10 files, one day each.
  ASSERT_TRUE(db.LoadTable(&ctx, "sales", SalesSchema(),
                           SalesRows(10, 100)).ok());
  ops::Fragment frag;
  frag.predicate.And(0, CmpOp::kEq, int64_t{3});
  auto with = db.Query("sales", frag, /*use_pruning=*/true);
  auto without = db.Query("sales", frag, /*use_pruning=*/false);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with->rows.size(), 100u);
  EXPECT_EQ(without->rows.size(), 100u);
  EXPECT_EQ(with->files_pruned, 9u);
  EXPECT_EQ(with->files_scanned, 1u);
  EXPECT_EQ(without->files_pruned, 0u);
  EXPECT_LT(with->sim_ns, without->sim_ns);  // min-max pruning pays off
}

TEST(SnowflakeDbTest, DistributedAggregateMatchesSingleVw) {
  Fabric fabric;
  SnowflakeDb db(&fabric, 100);
  NetContext ctx;
  ASSERT_TRUE(db.LoadTable(&ctx, "sales", SalesSchema(),
                           SalesRows(8, 100)).ok());
  ops::Fragment frag;
  frag.aggs = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
  db.SetWarehouses(1);
  auto one = db.Query("sales", frag);
  db.SetWarehouses(4);
  auto four = db.Query("sales", frag);
  ASSERT_TRUE(one.ok() && four.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  ASSERT_EQ(four->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(one->rows[0][0]), AsDouble(four->rows[0][0]));
  EXPECT_DOUBLE_EQ(AsDouble(one->rows[0][1]), AsDouble(four->rows[0][1]));
}

TEST(SnowflakeDbTest, ElasticScalingCutsQueryTime) {
  Fabric fabric;
  SnowflakeDb db(&fabric, 100);
  NetContext ctx;
  ASSERT_TRUE(db.LoadTable(&ctx, "sales", SalesSchema(),
                           SalesRows(16, 100)).ok());
  ops::Fragment frag;  // full scan
  db.SetWarehouses(1);
  auto vw1 = db.Query("sales", frag, false);
  db.SetWarehouses(8);
  auto vw8 = db.Query("sales", frag, false);
  ASSERT_TRUE(vw1.ok() && vw8.ok());
  EXPECT_LT(vw8->sim_ns * 3, vw1->sim_ns * 2);  // >1.5x speedup from 8 VWs
}

TEST(SnowflakeDbTest, VwCachesWarmAcrossQueries) {
  Fabric fabric;
  SnowflakeDb db(&fabric, 100);
  NetContext ctx;
  ASSERT_TRUE(db.LoadTable(&ctx, "sales", SalesSchema(),
                           SalesRows(4, 100)).ok());
  ops::Fragment frag;
  auto cold = db.Query("sales", frag, false);
  auto warm = db.Query("sales", frag, false);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->cache_hits, 0u);
  EXPECT_EQ(warm->cache_hits, 4u);
  EXPECT_LT(warm->sim_ns, cold->sim_ns / 10);  // SSD cache vs object store
}

}  // namespace
}  // namespace disagg
