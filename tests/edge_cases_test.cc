#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/engines.h"
#include "memnode/two_tier_cache.h"
#include "net/interconnect.h"
#include "storage/page.h"

namespace disagg {
namespace {

// Boundary and degenerate-input coverage across modules.

TEST(EdgeCaseTest, PageRejectsOversizedRecord) {
  Page page(1);
  const std::string giant(kPageSize, 'x');
  EXPECT_FALSE(page.Insert(giant).ok());
  EXPECT_EQ(page.slot_count(), 0);
}

TEST(EdgeCaseTest, PageEmptyRecordIsValid) {
  Page page(1);
  auto slot = page.Insert("");
  ASSERT_TRUE(slot.ok());
  auto got = page.Get(*slot);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(EdgeCaseTest, CostModelsAreMonotonicInSize) {
  for (const auto& model :
       {InterconnectModel::LocalDram(), InterconnectModel::Cxl(),
        InterconnectModel::Rdma(), InterconnectModel::Ssd(),
        InterconnectModel::ObjectStore()}) {
    uint64_t prev_read = 0, prev_write = 0;
    for (size_t bytes : {0, 64, 4096, 65536, 1 << 20}) {
      EXPECT_GE(model.ReadCost(bytes), prev_read) << model.name;
      EXPECT_GE(model.WriteCost(bytes), prev_write) << model.name;
      prev_read = model.ReadCost(bytes);
      prev_write = model.WriteCost(bytes);
    }
    EXPECT_GE(model.RpcCost(100, 100), model.rpc_base_ns) << model.name;
  }
}

TEST(EdgeCaseTest, TwoTierCacheWithTinyTiers) {
  // L1 = L2 = 1 page: everything demotes and evicts, nothing breaks.
  Fabric fabric;
  MemoryNode pool(&fabric, "mem", 16 << 20);
  InMemoryPageSource storage;
  for (PageId id = 0; id < 4; id++) {
    Page page(id);
    DISAGG_CHECK(page.Insert("p" + std::to_string(id)).ok());
    storage.Seed(page);
  }
  TwoTierCache cache(&fabric, &pool, &storage, 1, 1);
  NetContext ctx;
  for (int round = 0; round < 3; round++) {
    for (PageId id = 0; id < 4; id++) {
      auto page = cache.Get(&ctx, id);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ((*page)->Get(0)->ToString(), "p" + std::to_string(id));
    }
  }
  EXPECT_LE(cache.l1_size(), 1u);
  EXPECT_LE(cache.l2_size(), 1u);
}

TEST(EdgeCaseTest, EngineRejectsDuplicateInsertAndMissingOps) {
  MonolithicDb db;
  NetContext ctx;
  const TxnId txn = db.Begin();
  ASSERT_TRUE(db.Insert(&ctx, txn, 1, "row").ok());
  EXPECT_TRUE(db.Insert(&ctx, txn, 1, "dup").IsInvalidArgument());
  EXPECT_TRUE(db.Update(&ctx, txn, 99, "x").IsNotFound());
  EXPECT_TRUE(db.Delete(&ctx, txn, 99).IsNotFound());
  ASSERT_TRUE(db.Commit(&ctx, txn).ok());
}

TEST(EdgeCaseTest, EngineHandlesEmptyAndLargeRows) {
  MonolithicDb db;
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "").ok());
  EXPECT_EQ(*db.GetRow(&ctx, 1), "");
  const std::string big(4000, 'B');  // half a page
  ASSERT_TRUE(db.Put(&ctx, 2, big).ok());
  EXPECT_EQ(*db.GetRow(&ctx, 2), big);
  // Shrink and regrow through updates.
  ASSERT_TRUE(db.Put(&ctx, 2, "tiny").ok());
  ASSERT_TRUE(db.Put(&ctx, 2, big).ok());
  EXPECT_EQ(*db.GetRow(&ctx, 2), big);
}

TEST(EdgeCaseTest, AbortOfReadOnlyAndEmptyTxns) {
  MonolithicDb db;
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "v").ok());
  const TxnId empty = db.Begin();
  ASSERT_TRUE(db.Abort(&ctx, empty).ok());
  const TxnId reader = db.Begin();
  ASSERT_TRUE(db.Read(&ctx, reader, 1).ok());
  ASSERT_TRUE(db.Abort(&ctx, reader).ok());
  EXPECT_EQ(*db.GetRow(&ctx, 1), "v");
}

TEST(EdgeCaseTest, DoubleAzFailureAndRevival) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  LogRecord rec;
  rec.lsn = 1;
  rec.type = LogType::kInsert;
  rec.page_id = 1;
  rec.payload = "x";
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords({rec})).ok());
  segment.FailAz(0);
  segment.FailAz(1);  // 4 of 6 down: writes blocked
  rec.lsn = 2;
  EXPECT_TRUE(
      segment.AppendLog(&ctx, EncodedRecords({rec})).status().IsUnavailable());
  segment.ReviveAz(0);
  segment.ReviveAz(1);
  // Back to life.
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords({rec})).ok());
  EXPECT_GE(segment.CountDurable(2), 4);
}

}  // namespace
}  // namespace disagg
