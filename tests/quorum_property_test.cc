#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/quorum.h"

namespace disagg {
namespace {

// Parameterized sweep over replication configurations: the quorum
// intersection invariant (W + R > V => reads always see committed writes,
// writes survive V - W failures) must hold for every geometry, not just
// Aurora's 6/3/4/3.

struct QuorumGeometry {
  int replicas;
  int azs;
  int write_quorum;
  int read_quorum;
  const char* name;
};

class QuorumPropertyTest : public ::testing::TestWithParam<QuorumGeometry> {};

LogRecord Rec(Lsn lsn) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = 1;
  r.type = LogType::kInsert;
  r.page_id = 1;
  r.slot = static_cast<uint16_t>(lsn - 1);
  r.payload = "p" + std::to_string(lsn);
  return r;
}

TEST_P(QuorumPropertyTest, WritesSurviveMaxTolerableFailures) {
  const QuorumGeometry g = GetParam();
  Fabric fabric;
  ReplicatedSegment::Config cfg;
  cfg.replicas = g.replicas;
  cfg.num_azs = g.azs;
  cfg.write_quorum = g.write_quorum;
  cfg.read_quorum = g.read_quorum;
  ReplicatedSegment segment(&fabric, cfg);
  NetContext ctx;

  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords({Rec(1)})).ok());

  // Fail exactly V - W replicas: writes must still make quorum.
  const int tolerable = g.replicas - g.write_quorum;
  for (int i = 0; i < tolerable; i++) {
    fabric.node(segment.replica(static_cast<size_t>(i)).node)->Fail();
  }
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords({Rec(2)})).ok())
      << g.name << " should tolerate " << tolerable << " failures";

  // One more failure blocks writes...
  if (tolerable + 1 < g.replicas) {
    fabric.node(segment.replica(static_cast<size_t>(tolerable)).node)->Fail();
    EXPECT_TRUE(segment.AppendLog(&ctx, EncodedRecords({Rec(3)}))
                    .status()
                    .IsUnavailable());
    // ...but as long as R replicas live, recovery still sees LSN 2.
    if (g.replicas - tolerable - 1 >= g.read_quorum) {
      auto durable = segment.RecoverDurableLsn(&ctx);
      ASSERT_TRUE(durable.ok());
      EXPECT_GE(*durable, 2u) << g.name;
    }
  }
}

TEST_P(QuorumPropertyTest, ReadQuorumAlwaysOverlapsWriteQuorum) {
  const QuorumGeometry g = GetParam();
  ASSERT_GT(g.write_quorum + g.read_quorum, g.replicas)
      << "geometry must satisfy W + R > V";
  Fabric fabric;
  ReplicatedSegment::Config cfg;
  cfg.replicas = g.replicas;
  cfg.num_azs = g.azs;
  cfg.write_quorum = g.write_quorum;
  cfg.read_quorum = g.read_quorum;
  ReplicatedSegment segment(&fabric, cfg);
  NetContext ctx;
  for (Lsn lsn = 1; lsn <= 5; lsn++) {
    ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords({Rec(lsn)})).ok());
  }
  // Whatever R live replicas recovery polls, it must see LSN >= 5.
  auto durable = segment.RecoverDurableLsn(&ctx);
  ASSERT_TRUE(durable.ok());
  EXPECT_GE(*durable, 5u);
  EXPECT_GE(segment.CountDurable(5), g.write_quorum);
}

// Records every log.append / page.apply_log request and whether it
// succeeded, so the test can replay the resync protocol against a model.
class AppendTap : public FabricInterceptor {
 public:
  struct Sent {
    NodeId node;
    std::string method;
    std::string request;
    bool ok;
  };
  const char* name() const override { return "append-tap"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    Status st = next(op, ctx);
    if (op->verb == FabricVerb::kRpc &&
        (*op->method == "log.append" || *op->method == "page.apply_log")) {
      sent.push_back({op->node, *op->method, op->request.ToString(), st.ok()});
    }
    return st;
  }
  std::vector<Sent> sent;
};

// Under a seeded fail/revive schedule, every replica is sent exactly
// EncodeBatch(history suffix it has not acked) on both services, and once
// all replicas are back one more append leaves every log byte-identical to
// the full history.
TEST_P(QuorumPropertyTest, ResyncRequestsAreEncodedHistorySuffixes) {
  const QuorumGeometry g = GetParam();
  Fabric fabric;
  auto tap = std::make_shared<AppendTap>();
  fabric.AddInterceptor(tap);
  ReplicatedSegment::Config cfg;
  cfg.replicas = g.replicas;
  cfg.num_azs = g.azs;
  cfg.write_quorum = g.write_quorum;
  cfg.read_quorum = g.read_quorum;
  ReplicatedSegment segment(&fabric, cfg);
  NetContext ctx;
  std::mt19937_64 rng(0x9e50 + static_cast<uint64_t>(g.replicas));
  std::vector<LogRecord> history;
  std::vector<size_t> acked(segment.replica_count(), 0);
  auto suffix = [&](size_t from) {
    return LogRecord::EncodeBatch(
        std::vector<LogRecord>(history.begin() + from, history.end()));
  };

  Lsn lsn = 1;
  for (int step = 0; step < 40; step++) {
    for (size_t i = 0; i < segment.replica_count(); i++) {
      Node* node = fabric.node(segment.replica(i).node);
      if (rng() % 4 == 0) node->failed() ? node->Revive() : node->Fail();
    }
    if (step == 39) {
      for (size_t i = 0; i < segment.replica_count(); i++) {
        fabric.node(segment.replica(i).node)->Revive();
      }
    }
    std::vector<LogRecord> batch;
    for (uint64_t n = 1 + rng() % 3; n > 0; n--) batch.push_back(Rec(lsn++));
    history.insert(history.end(), batch.begin(), batch.end());
    tap->sent.clear();
    // May miss quorum; that is fine.
    (void)segment.AppendLog(&ctx, EncodedRecords(batch));
    for (size_t i = 0; i < segment.replica_count(); i++) {
      const NodeId node = segment.replica(i).node;
      bool log_ok = false, page_ok = false;
      for (const AppendTap::Sent& s : tap->sent) {
        if (s.node != node) continue;
        EXPECT_EQ(s.request, suffix(acked[i]))
            << g.name << " step " << step << " replica " << i << " "
            << s.method;
        (s.method == "log.append" ? log_ok : page_ok) = s.ok;
      }
      if (log_ok && page_ok) acked[i] = history.size();
    }
  }
  for (size_t i = 0; i < segment.replica_count(); i++) {
    EXPECT_EQ(acked[i], history.size()) << g.name << " replica " << i;
    EXPECT_EQ(LogRecord::EncodeBatch(
                  segment.replica(i).log_service->SnapshotFrom(0)),
              suffix(0))
        << g.name << " replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, QuorumPropertyTest,
    ::testing::Values(QuorumGeometry{6, 3, 4, 3, "aurora"},
                      QuorumGeometry{3, 3, 2, 2, "simple_majority"},
                      QuorumGeometry{5, 5, 3, 3, "five_majority"},
                      QuorumGeometry{4, 2, 3, 2, "four_three"},
                      QuorumGeometry{7, 7, 4, 4, "seven_majority"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace disagg
