#include <gtest/gtest.h>

#include "log/shared_log.h"
#include "sim/chaos.h"

namespace disagg {
namespace {

LogRecord Rec(Lsn lsn, const char* payload = nullptr) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = 1;
  r.type = LogType::kInsert;
  r.page_id = 1;
  r.slot = static_cast<uint16_t>(lsn - 1);
  r.payload = payload ? payload : ("p" + std::to_string(lsn));
  return r;
}

EncodedRecords Recs(Lsn from, Lsn to) {
  EncodedRecords out;
  for (Lsn l = from; l <= to; l++) out.Append(Rec(l));
  return out;
}

class SharedLogTest : public ::testing::Test {
 protected:
  SharedLogTest() : service_(&fabric_, SharedLogService::Config{}) {}

  SharedLogClient Client() {
    return SharedLogClient(&fabric_, service_.ctl_node());
  }

  Fabric fabric_;
  SharedLogService service_;
  NetContext ctx_;
};

TEST_F(SharedLogTest, AppendReadTailRoundTrip) {
  SharedLogClient client = Client();
  auto tail = client.Append(&ctx_, /*tag=*/7, Recs(1, 3));
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(*tail, 3u);

  auto got = client.ReadFrom(&ctx_, 7, kInvalidSeqNum);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  for (size_t i = 0; i < got->size(); i++) {
    EXPECT_EQ((*got)[i].lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ((*got)[i].payload, "p" + std::to_string(i + 1));
  }

  // All traffic went over the fabric, not through backdoor pointers.
  EXPECT_GT(ctx_.rpcs, 0u);
}

TEST_F(SharedLogTest, ReadFromBoundIsExclusive) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 5)).ok());
  auto got = client.ReadFrom(&ctx_, 1, /*from_exclusive=*/3);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);  // seqnums 4 and 5 only
  EXPECT_EQ((*got)[0].lsn, 4u);
  EXPECT_EQ((*got)[1].lsn, 5u);
}

TEST_F(SharedLogTest, TagsArePartitionedWithIndependentSeqnums) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 4)).ok());
  ASSERT_TRUE(client.Append(&ctx_, 2, Recs(1, 2)).ok());

  // Dense per-tag seqnums, not interleaved: tag 1 holds seqnums 1-4 and
  // tag 2 seqnums 1-2.
  auto t1 = client.ReadFrom(&ctx_, 1, /*from_exclusive=*/3);
  auto t2 = client.ReadFrom(&ctx_, 2, /*from_exclusive=*/1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_EQ(t1->size(), 1u);
  EXPECT_EQ((*t1)[0].lsn, 4u);
  ASSERT_EQ(t2->size(), 1u);
  EXPECT_EQ((*t2)[0].lsn, 2u);

  auto got = client.ReadFrom(&ctx_, 2, kInvalidSeqNum);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 2u);
}

TEST_F(SharedLogTest, ResentBatchesDeduplicateByLsn) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 3)).ok());
  // WAL re-flush after an uncertain failure re-sends old records plus new.
  auto tail = client.Append(&ctx_, 1, Recs(2, 5));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 5u);
  auto got = client.ReadFrom(&ctx_, 1, kInvalidSeqNum);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 5u);  // 2 and 3 deduplicated
  for (size_t i = 0; i < got->size(); i++) {
    EXPECT_EQ((*got)[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST_F(SharedLogTest, AppendsMakeWriteQuorumDurable) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 3)).ok());
  EXPECT_GE(service_.CountDurable(1, 3),
            static_cast<size_t>(service_.config().write_quorum));
  // A fully-deduplicated re-send must still guarantee quorum (the backup
  // fan-out is a tail probe, never skipped).
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 3)).ok());
  EXPECT_GE(service_.CountDurable(1, 3),
            static_cast<size_t>(service_.config().write_quorum));
}

// Satellite regression: retention. Reads that reach below the trim point
// must fail loudly (NotFound), never silently return a truncated prefix.
TEST_F(SharedLogTest, ReadsBelowTrimPointReturnNotFound) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 6)).ok());
  ASSERT_TRUE(client.Trim(&ctx_, 1, /*up_to_inclusive=*/4).ok());

  // From-zero read now reaches below the watermark.
  auto below = client.ReadFrom(&ctx_, 1, kInvalidSeqNum);
  EXPECT_TRUE(below.status().IsNotFound()) << below.status().ToString();
  auto partly = client.ReadFrom(&ctx_, 1, /*from_exclusive=*/2);
  EXPECT_TRUE(partly.status().IsNotFound());

  // At or above the watermark the suffix is intact.
  auto at = client.ReadFrom(&ctx_, 1, /*from_exclusive=*/4);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  ASSERT_EQ(at->size(), 2u);
  EXPECT_EQ((*at)[0].lsn, 5u);

  // The tail survives trimming, and new appends continue the sequence.
  auto t = client.ReadFrom(&ctx_, 1, /*from_exclusive=*/5);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ((*t)[0].lsn, 6u);
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(7, 7)).ok());
  auto more = client.ReadFrom(&ctx_, 1, 4);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(more->size(), 3u);
}

TEST_F(SharedLogTest, SealAndReconfigureSurvivesLogNodeCrash) {
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 4)).ok());
  const uint64_t epoch_before = service_.epoch();

  // Crash one log node and reconfigure around it. The caller's sim clock
  // growth across this call is the recovery time.
  fabric_.node(service_.log_node(0))->Fail();
  const uint64_t ns_before = ctx_.sim_ns;
  ASSERT_TRUE(service_.SealAndReconfigure(&ctx_).ok());
  EXPECT_GT(service_.epoch(), epoch_before);
  EXPECT_GT(ctx_.sim_ns, ns_before);  // seal/recover work was charged

  // Committed records survive the view change and stay readable...
  auto got = client.ReadFrom(&ctx_, 1, kInvalidSeqNum);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), 4u);
  // ...and the new view accepts appends at quorum durability.
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(5, 6)).ok());
  EXPECT_GE(service_.CountDurable(1, 6),
            static_cast<size_t>(service_.config().write_quorum));
}

TEST_F(SharedLogTest, StaleClientsRefreshAcrossViewChange) {
  SharedLogClient stale = Client();
  ASSERT_TRUE(stale.Append(&ctx_, 1, Recs(1, 2)).ok());
  const uint64_t cached = stale.cached_epoch();

  ASSERT_TRUE(service_.SealAndReconfigure(&ctx_).ok());
  ASSERT_GT(service_.epoch(), cached);

  // The stale client's next append hits the epoch fence (Aborted), refreshes
  // its view, and succeeds against the new epoch — transparently.
  auto tail = stale.Append(&ctx_, 1, Recs(3, 3));
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(*tail, 3u);
  EXPECT_EQ(stale.cached_epoch(), service_.epoch());
}

TEST_F(SharedLogTest, BackendAdapterSpeaksLogBackendContract) {
  SharedLogBackend backend(&fabric_, &service_, /*tag=*/9);
  ASSERT_TRUE(backend.Append(&ctx_, Recs(1, 3)).ok());
  auto all = backend.ReadAll(&ctx_);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  auto suffix = backend.ReadFrom(&ctx_, /*from_exclusive=*/2);
  ASSERT_TRUE(suffix.ok());
  ASSERT_EQ(suffix->size(), 1u);
  EXPECT_EQ((*suffix)[0].lsn, 3u);
}

// Satellite: same-seed-same-trace determinism for a shared-log engine under
// chaos. The schedule includes mid-run log-node crash + seal/reconfigure
// interludes; the whole run — faults, view changes, recovery — must replay
// bit-identically from the seed. Runs under the ASan pass in scripts/ci.sh.
TEST(SharedLogChaosTest, SameSeedSameTraceAcrossViewChanges) {
  for (const char* engine : {"aurora+slog", "socrates+slog"}) {
    const sim::ChaosReport a = sim::RunEngineChaos(engine, 4242);
    const sim::ChaosReport b = sim::RunEngineChaos(engine, 4242);
    EXPECT_TRUE(a.violations.empty())
        << engine << ": " << a.violations.front();
    ASSERT_GT(a.log_reconfigs, 0u)
        << engine << ": schedule fired no view-change interludes";
    EXPECT_EQ(sim::TraceToString(a.trace), sim::TraceToString(b.trace))
        << engine << ": seal+reconfigure replay diverged";
    EXPECT_EQ(a.log_reconfigs, b.log_reconfigs);
  }
}

}  // namespace
}  // namespace disagg
