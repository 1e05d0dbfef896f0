#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "query/columnar.h"
#include "query/operators.h"
#include "query/pushdown.h"

namespace disagg {
namespace {

Schema LineitemSchema() {
  return Schema{{{"orderkey", ColumnType::kInt64},
                 {"quantity", ColumnType::kInt64},
                 {"price", ColumnType::kDouble},
                 {"flag", ColumnType::kString}}};
}

std::vector<Tuple> MakeRows(int n, uint64_t seed = 3) {
  Random rng(seed);
  std::vector<Tuple> rows;
  for (int i = 0; i < n; i++) {
    rows.push_back(Tuple{static_cast<int64_t>(i),
                         static_cast<int64_t>(rng.Uniform(50)),
                         static_cast<double>(rng.Uniform(1000)) / 10.0,
                         rng.Bernoulli(0.5) ? std::string("A")
                                            : std::string("B")});
  }
  return rows;
}

TEST(TupleCodecTest, RoundTrip) {
  const Schema schema = LineitemSchema();
  const Tuple row{int64_t{42}, int64_t{7}, 3.25, std::string("flagged")};
  std::string buf;
  EncodeTuple(row, &buf);
  Slice in(buf);
  auto decoded = DecodeTuple(schema, &in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(AsInt((*decoded)[0]), 42);
  EXPECT_EQ(AsInt((*decoded)[1]), 7);
  EXPECT_DOUBLE_EQ(AsDouble((*decoded)[2]), 3.25);
  EXPECT_EQ(AsString((*decoded)[3]), "flagged");
  EXPECT_TRUE(in.empty());
}

TEST(PredicateTest, MatchesAndSerializes) {
  Predicate p;
  p.And(1, CmpOp::kGe, int64_t{10}).And(3, CmpOp::kEq, std::string("A"));
  EXPECT_TRUE(p.Matches({int64_t{0}, int64_t{15}, 0.0, std::string("A")}));
  EXPECT_FALSE(p.Matches({int64_t{0}, int64_t{5}, 0.0, std::string("A")}));
  EXPECT_FALSE(p.Matches({int64_t{0}, int64_t{15}, 0.0, std::string("B")}));
  std::string buf;
  p.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = Predicate::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(
      decoded->Matches({int64_t{0}, int64_t{15}, 0.0, std::string("A")}));
}

TEST(PredicateTest, ZoneMapPruning) {
  Predicate p;
  p.And(1, CmpOp::kGt, int64_t{100});
  // Chunk with quantity in [0, 50] cannot match quantity > 100.
  EXPECT_FALSE(p.MayMatch({0, 0, 0, 0}, {1e9, 50, 1e9, 0}));
  EXPECT_TRUE(p.MayMatch({0, 0, 0, 0}, {1e9, 150, 1e9, 0}));
}

TEST(OperatorsTest, FilterProject) {
  auto rows = MakeRows(100);
  Predicate p;
  p.And(1, CmpOp::kLt, int64_t{10});
  NetContext ctx;
  auto filtered = ops::Filter(&ctx, rows, p);
  for (const Tuple& r : filtered) EXPECT_LT(AsInt(r[1]), 10);
  EXPECT_LT(filtered.size(), rows.size());
  auto projected = ops::Project(&ctx, filtered, {0, 2});
  ASSERT_FALSE(projected.empty());
  EXPECT_EQ(projected[0].size(), 2u);
  EXPECT_GT(ctx.sim_ns, 0u);
}

TEST(OperatorsTest, HashJoinInner) {
  std::vector<Tuple> orders = {{int64_t{1}, std::string("alice")},
                               {int64_t{2}, std::string("bob")}};
  std::vector<Tuple> items = {{int64_t{1}, int64_t{10}},
                              {int64_t{1}, int64_t{11}},
                              {int64_t{3}, int64_t{12}}};
  auto joined = ops::HashJoin(nullptr, orders, items, 0, 0);
  ASSERT_EQ(joined.size(), 2u);  // order 1 matches twice, 2 and 3 none
  EXPECT_EQ(AsString(joined[0][1]), "alice");
  EXPECT_EQ(joined[0].size(), 4u);
}

TEST(OperatorsTest, HashAggregateGroups) {
  std::vector<Tuple> rows = {{std::string("A"), int64_t{10}},
                             {std::string("B"), int64_t{20}},
                             {std::string("A"), int64_t{30}}};
  auto out = ops::HashAggregate(
      nullptr, rows, {0},
      {{AggFunc::kCount, 0}, {AggFunc::kSum, 1}, {AggFunc::kAvg, 1}});
  ASSERT_EQ(out.size(), 2u);
  // Groups come out in key-sorted order (A, B).
  EXPECT_EQ(AsString(out[0][0]), "A");
  EXPECT_EQ(AsInt(out[0][1]), 2);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][2]), 40.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][3]), 20.0);
  EXPECT_EQ(AsInt(out[1][1]), 1);
}

TEST(OperatorsTest, GlobalAggregateAndMinMax) {
  auto rows = MakeRows(50);
  auto out = ops::HashAggregate(
      nullptr, rows, {},
      {{AggFunc::kMin, 1}, {AggFunc::kMax, 1}, {AggFunc::kCount, 0}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LE(AsDouble(out[0][0]), AsDouble(out[0][1]));
  EXPECT_EQ(AsInt(out[0][2]), 50);
}

TEST(OperatorsTest, SortAndLimit) {
  auto rows = MakeRows(30);
  auto sorted = ops::SortBy(nullptr, rows, {1});
  for (size_t i = 1; i < sorted.size(); i++) {
    EXPECT_LE(AsInt(sorted[i - 1][1]), AsInt(sorted[i][1]));
  }
  auto top = ops::Limit(ops::SortBy(nullptr, rows, {1}, true), 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_GE(AsInt(top[0][1]), AsInt(top[4][1]));
}

TEST(ColumnarChunkTest, SerializeRoundTripWithZoneMaps) {
  const Schema schema = LineitemSchema();
  auto chunk = ColumnarChunk::FromRows(schema, MakeRows(64));
  EXPECT_EQ(chunk.row_count(), 64u);
  EXPECT_GE(chunk.maxs()[1], chunk.mins()[1]);
  auto restored = ColumnarChunk::Deserialize(schema, chunk.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->row_count(), 64u);
  EXPECT_EQ(restored->mins()[1], chunk.mins()[1]);
  for (size_t r = 0; r < 64; r++) {
    EXPECT_EQ(AsInt(restored->rows()[r][0]), AsInt(chunk.rows()[r][0]));
    EXPECT_EQ(AsString(restored->rows()[r][3]), AsString(chunk.rows()[r][3]));
  }
}

TEST(ColumnarChunkTest, PruningSkipsNonMatchingChunks) {
  const Schema schema = LineitemSchema();
  std::vector<Tuple> low, high;
  for (int i = 0; i < 10; i++) {
    low.push_back({int64_t{i}, int64_t{i}, 1.0, std::string("A")});
    high.push_back({int64_t{i}, int64_t{i + 1000}, 1.0, std::string("A")});
  }
  auto low_chunk = ColumnarChunk::FromRows(schema, low);
  auto high_chunk = ColumnarChunk::FromRows(schema, high);
  Predicate p;
  p.And(1, CmpOp::kGe, int64_t{500});
  EXPECT_FALSE(low_chunk.MayMatch(p));
  EXPECT_TRUE(high_chunk.MayMatch(p));
}

class RemoteTableTest : public ::testing::Test {
 protected:
  RemoteTableTest() : pool_(&fabric_, "mem0", 256 << 20) {
    auto table = RemoteTable::Create(&ctx_, &fabric_, &pool_,
                                     LineitemSchema(), MakeRows(2000));
    EXPECT_TRUE(table.ok());
    table_ = std::make_unique<RemoteTable>(std::move(table).value());
  }

  Fabric fabric_;
  MemoryNode pool_;
  std::unique_ptr<RemoteTable> table_;
  NetContext ctx_;
};

TEST_F(RemoteTableTest, FetchAllReturnsEverything) {
  auto rows = table_->FetchAll(&ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2000u);
}

TEST_F(RemoteTableTest, PushdownMatchesClientSideExecution) {
  ops::Fragment frag;
  frag.predicate.And(1, CmpOp::kLt, int64_t{5});
  frag.project = {0, 1};
  NetContext remote_ctx, local_ctx;
  auto pushed = table_->Pushdown(&remote_ctx, frag);
  ASSERT_TRUE(pushed.ok());
  auto fetched = table_->FetchAll(&local_ctx);
  ASSERT_TRUE(fetched.ok());
  auto local = frag.Execute(&local_ctx, *fetched);
  ASSERT_EQ(pushed->size(), local.size());
  for (size_t i = 0; i < local.size(); i++) {
    EXPECT_EQ(AsInt((*pushed)[i][0]), AsInt(local[i][0]));
    EXPECT_EQ(AsInt((*pushed)[i][1]), AsInt(local[i][1]));
  }
}

TEST_F(RemoteTableTest, SelectivePushdownMovesFewerBytes) {
  ops::Fragment frag;
  frag.predicate.And(1, CmpOp::kEq, int64_t{3});  // ~2% selectivity
  NetContext pushdown_ctx, fetch_ctx;
  ASSERT_TRUE(table_->Pushdown(&pushdown_ctx, frag).ok());
  // Fair baseline: fetch everything AND run the same fragment locally.
  auto fetched = table_->FetchAll(&fetch_ctx);
  ASSERT_TRUE(fetched.ok());
  (void)frag.Execute(&fetch_ctx, *fetched);
  EXPECT_LT(pushdown_ctx.bytes_in, fetch_ctx.bytes_in / 10);
  EXPECT_LT(pushdown_ctx.sim_ns, fetch_ctx.sim_ns);  // TELEPORT's win
}

TEST_F(RemoteTableTest, AggregatePushdownReturnsOneRow) {
  ops::Fragment frag;
  frag.aggs = {{AggFunc::kSum, 2}, {AggFunc::kCount, 0}};
  NetContext ctx;
  auto out = table_->Pushdown(&ctx, frag);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(AsInt((*out)[0][1]), 2000);
  EXPECT_LT(ctx.bytes_in, 256u);  // Farview: only the aggregate crosses
}

// Records the method of the last RPC and the address of the last read it
// passes.
class Tap : public FabricInterceptor {
 public:
  const char* name() const override { return "tap"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    if (op->verb == FabricVerb::kRpc) last_method = *op->method;
    if (op->verb == FabricVerb::kRead) last_read = op->addr;
    return next(op, ctx);
  }

  std::string last_method;
  GlobalAddr last_read{};
};

// A pushdown reply whose row or column count promises more than its bytes
// hold is Corruption: the client must not reserve what the wire claims.
TEST_F(RemoteTableTest, ForgedPushdownReplyIsCorruption) {
  auto tap = std::make_shared<Tap>();
  fabric_.AddInterceptor(tap);
  ops::Fragment frag;
  frag.aggs = {{AggFunc::kCount, 0}};
  ASSERT_TRUE(table_->Pushdown(&ctx_, frag).ok());
  ASSERT_EQ(tap->last_method.rfind("tele.exec.", 0), 0u) << tap->last_method;

  std::string huge_rows, huge_cols;
  PutVarint64(&huge_rows, uint64_t{1} << 60);
  PutVarint64(&huge_cols, 1);
  PutVarint64(&huge_cols, uint64_t{1} << 60);
  for (const std::string& forged : {huge_rows, huge_cols}) {
    fabric_.node(pool_.node())
        ->RegisterHandler(RpcMethod(tap->last_method),
                          [forged](Slice, std::string* resp,
                                   RpcServerContext*) {
                            resp->assign(forged);
                            return Status::OK();
                          });
    auto out = table_->Pushdown(&ctx_, frag);
    EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
  }
}

// The table's resident blob is pool memory: a forged row count there makes
// both the client-side scan and the pool-side pushdown fail as Corruption.
TEST_F(RemoteTableTest, ForgedBlobRowCountIsCorruption) {
  auto tap = std::make_shared<Tap>();
  fabric_.AddInterceptor(tap);
  ASSERT_TRUE(table_->FetchAll(&ctx_).ok());  // one read: the whole blob
  std::string forged;
  PutVarint64(&forged, uint64_t{1} << 60);
  ASSERT_TRUE(
      fabric_.Write(&ctx_, tap->last_read, forged.data(), forged.size()).ok());
  auto fetched = table_->FetchAll(&ctx_);
  EXPECT_TRUE(fetched.status().IsCorruption()) << fetched.status().ToString();
  ops::Fragment frag;
  frag.aggs = {{AggFunc::kCount, 0}};
  auto pushed = table_->Pushdown(&ctx_, frag);
  EXPECT_TRUE(pushed.status().IsCorruption()) << pushed.status().ToString();
}

TEST(ShuffleTest, BothModesDeliverSameRows) {
  Fabric fabric;
  MemoryNode pool(&fabric, "shufmem", 512 << 20);
  auto coupled = Shuffle::RunCoupled(&fabric, 4, 4, 1000, 64);
  auto disagg = Shuffle::RunDisaggregated(&fabric, &pool, 4, 4, 1000, 64);
  ASSERT_TRUE(coupled.ok());
  ASSERT_TRUE(disagg.ok());
  EXPECT_EQ(coupled->rows_delivered, disagg->rows_delivered);
}

TEST(ShuffleTest, DisaggregatedAvoidsQuadraticConnections) {
  Fabric fabric;
  MemoryNode pool(&fabric, "shufmem", 512 << 20);
  auto coupled = Shuffle::RunCoupled(&fabric, 8, 8, 500, 64);
  auto disagg = Shuffle::RunDisaggregated(&fabric, &pool, 8, 8, 500, 64);
  ASSERT_TRUE(coupled.ok() && disagg.ok());
  EXPECT_EQ(coupled->connections, 64u);  // P*C
  EXPECT_EQ(disagg->connections, 16u);   // P+C
  EXPECT_LT(disagg->sim_ns, coupled->sim_ns);
}

}  // namespace
}  // namespace disagg
