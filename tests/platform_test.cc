#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "sim/engine_registry.h"
#include "workload/tpcc_lite.h"

namespace disagg {
namespace {

// ---------------------------------------------------------------------
// The platform promise: the SAME workload produces the SAME database state
// on every architecture — they differ only in cost, never in semantics.
// ---------------------------------------------------------------------

class EveryEngineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryEngineTest, RandomWorkloadMatchesModel) {
  Fabric fabric;
  auto db = sim::MakeRowEngine(GetParam(), &fabric);
  std::map<uint64_t, std::string> model;
  Random rng(31);
  NetContext ctx;
  for (int op = 0; op < 400; op++) {
    const uint64_t key = rng.Uniform(60);
    const uint64_t action = rng.Uniform(10);
    if (action < 6) {
      const std::string row = rng.RandomString(10 + rng.Uniform(80));
      ASSERT_TRUE(db->Put(&ctx, key, row).ok());
      model[key] = row;
    } else if (action < 8) {
      const TxnId txn = db->Begin();
      const Status st = db->Delete(&ctx, txn, key);
      if (model.erase(key)) {
        ASSERT_TRUE(st.ok());
        ASSERT_TRUE(db->Commit(&ctx, txn).ok());
      } else {
        EXPECT_TRUE(st.IsNotFound());
        ASSERT_TRUE(db->Abort(&ctx, txn).ok());
      }
    } else {
      auto row = db->GetRow(&ctx, key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(row.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(row.ok()) << key;
        EXPECT_EQ(*row, it->second);
      }
    }
  }
  EXPECT_EQ(db->row_count(), model.size());
}

TEST_P(EveryEngineTest, AbortedTxnLeavesNoTrace) {
  Fabric fabric;
  auto db = sim::MakeRowEngine(GetParam(), &fabric);
  NetContext ctx;
  ASSERT_TRUE(db->Put(&ctx, 1, "keep-me").ok());
  const TxnId txn = db->Begin();
  ASSERT_TRUE(db->Insert(&ctx, txn, 2, "drop-me").ok());
  ASSERT_TRUE(db->Update(&ctx, txn, 1, "clobber").ok());
  ASSERT_TRUE(db->Abort(&ctx, txn).ok());
  EXPECT_EQ(*db->GetRow(&ctx, 1), "keep-me");
  EXPECT_TRUE(db->GetRow(&ctx, 2).status().IsNotFound());
  EXPECT_EQ(db->row_count(), 1u);
}

TEST_P(EveryEngineTest, TpccMoneyIsConserved) {
  // District YTD + warehouse YTD + customer balances are the TPC-C
  // consistency conditions; our lite version checks commits succeed and the
  // order counters advance exactly once per committed NewOrder.
  Fabric fabric;
  auto db = sim::MakeRowEngine(GetParam(), &fabric);
  TpccLite::Config cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  TpccLite tpcc(db.get(), cfg);
  NetContext ctx;
  ASSERT_TRUE(tpcc.Load(&ctx).ok());
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(tpcc.NewOrder(&ctx).ok());
    ASSERT_TRUE(tpcc.Payment(&ctx).ok());
  }
  EXPECT_EQ(tpcc.stats().committed, 60u);
  uint64_t orders_issued = 0;
  for (int d = 0; d < cfg.districts_per_warehouse; d++) {
    auto district = db->GetRow(&ctx, TpccLite::DistrictKey(0, d));
    ASSERT_TRUE(district.ok());
    uint64_t next_o_id;
    memcpy(&next_o_id, district->data(), 8);
    orders_issued += next_o_id - 1;
  }
  EXPECT_EQ(orders_issued, 30u);
}

INSTANTIATE_TEST_SUITE_P(Architectures, EveryEngineTest,
                         ::testing::ValuesIn(sim::RowEngineNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Cost-model sanity across architectures: the platform exists to compare
// these ledgers, so pin the orderings the paper predicts.
// ---------------------------------------------------------------------

TEST(PlatformCostTest, WritePathByteOrdering) {
  std::map<std::string, uint64_t> bytes_out;
  for (const std::string& name : sim::RowEngineNames()) {
    Fabric fabric;
    auto db = sim::MakeRowEngine(name, &fabric);
    NetContext ctx;
    for (uint64_t k = 0; k < 50; k++) {
      ASSERT_TRUE(db->Put(&ctx, k, std::string(150, 'x')).ok());
    }
    bytes_out[name] = ctx.bytes_out;
  }
  // Page shipping moves the most; single-service log shipping the least
  // among the disaggregated designs; monolithic ships nothing remote but
  // its fsync bytes are counted too.
  EXPECT_GT(bytes_out["polar"], bytes_out["aurora"]);
  EXPECT_GT(bytes_out["aurora"], bytes_out["socrates"]);
  EXPECT_GT(bytes_out["taurus"], bytes_out["socrates"]);
  EXPECT_GT(bytes_out["polar"], bytes_out["taurus"]);
}

TEST(PlatformCostTest, EngineNamesAreUnique) {
  std::set<std::string> names;
  for (const std::string& name : sim::RowEngineNames()) {
    EXPECT_TRUE(names.insert(name).second);
  }
}

}  // namespace
}  // namespace disagg
