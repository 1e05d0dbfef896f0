#include <gtest/gtest.h>

#include "common/coding.h"
#include "log/shared_log.h"
#include "sim/chaos.h"
#include "test_util.h"

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

std::string Varints(std::initializer_list<uint64_t> values) {
  std::string out;
  for (uint64_t v : values) PutVarint64(&out, v);
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

// Hostile payloads: every malformed slog.append, slog.replicate, slog.read,
// slog.trim and slog.install fails, a replicate that would lower a tag's
// LSN order stores nothing, and no log node's copy of any tag (records,
// seqs, tail LSN) moves. Each mutating request carries a header
// the node would accept, so only its batch stands between it and the log;
// the replicate header even carries a trim watermark. slog.seal and
// slog.view answer every payload as they answer an empty one.
TEST_F(SharedLogTest, HostilePayloadsFailWithoutSideEffects) {
  const RpcMethod kAppend("slog.append"), kReplicate("slog.replicate"),
      kRead("slog.read"), kTrim("slog.trim"), kInstall("slog.install"),
      kSeal("slog.seal"), kView("slog.view");
  SharedLogClient client = Client();
  ASSERT_TRUE(client.Append(&ctx_, 1, Recs(1, 4)).ok());
  ASSERT_TRUE(client.Append(&ctx_, 2, Recs(1, 2)).ok());
  const uint64_t epoch = service_.epoch();
  const NodeId primary = service_.log_node(1);  // tag 1 % 3 members
  const NodeId backup = service_.log_node(2);

  auto read_back = [&] {
    std::vector<std::string> out;
    for (size_t i = 0; i < service_.num_log_nodes(); i++) {
      for (LogTag tag : {1, 2}) {
        std::string resp;
        EXPECT_TRUE(fabric_
                        .Call(&ctx_, service_.log_node(i), kRead,
                              Varints({epoch, tag, 0, 0, ~0ull}), &resp)
                        .ok());
        out.push_back(resp);
      }
    }
    return out;
  };
  const std::vector<std::string> before = read_back();
  ASSERT_EQ(before[2], Varints({1}) + Recs(1, 4).Batch(0, 4));  // tag 1

  // Batches ScanBatch rejects: truncated, an overlong count varint, 0->1
  // flips of the count and of the first payload length, trailing bytes, and
  // forged counts.
  const std::string good = Recs(5, 7).Batch(0, 3);
  ASSERT_EQ(good[0], 3);
  ASSERT_EQ(good[9], 2);  // Rec(5)'s payload length
  std::vector<std::string> batches = testutil::MalformedPayloads(good, {0, 9});
  batches.push_back(good + std::string(1, '\0'));
  batches.push_back(good + good);
  for (uint64_t count : {uint64_t{2}, uint64_t{4}, uint64_t{1} << 40}) {
    batches.push_back(Varints({count}) + good.substr(1));
  }
  for (const std::string& b : batches) {
    ASSERT_FALSE(LogRecord::DecodeBatch(b).ok());
  }

  const std::string append_header = Varints({epoch, 1});
  const std::string replicate_header = Varints({epoch, 1, 5, 2, 2});
  std::vector<std::pair<NodeId, std::string>> calls;
  for (const std::string& b : batches) {
    calls.emplace_back(primary, append_header + b);
    calls.emplace_back(backup, replicate_header + b);
  }
  std::vector<std::string> appends =
      testutil::MalformedPayloads(append_header + good, {});
  std::vector<std::string> replicates =
      testutil::MalformedPayloads(replicate_header + good, {});
  size_t sent = 0;
  std::string resp;
  for (const auto& [node, req] : calls) {
    const RpcMethod& method = node == primary ? kAppend : kReplicate;
    EXPECT_FALSE(fabric_.Call(&ctx_, node, method, req, &resp).ok());
    sent++;
  }
  for (const std::string& req : appends) {
    EXPECT_FALSE(fabric_.Call(&ctx_, primary, kAppend, req, &resp).ok());
    sent++;
  }
  for (const std::string& req : replicates) {
    EXPECT_FALSE(fabric_.Call(&ctx_, backup, kReplicate, req, &resp).ok());
    sent++;
  }
  const std::pair<const RpcMethod*, std::string> truncated[] = {
      {&kRead, Varints({epoch, 1, 0, 0, 1000})},
      {&kTrim, Varints({1, 3})},
      {&kInstall, Varints({epoch + 1, 3, service_.log_node(0),
                           service_.log_node(1), service_.log_node(2)})}};
  for (const auto& [method, full] : truncated) {
    for (size_t len = 0; len < full.size(); len++) {
      for (size_t i = 0; i < service_.num_log_nodes(); i++) {
        EXPECT_FALSE(fabric_
                         .Call(&ctx_, service_.log_node(i), *method,
                               full.substr(0, len), &resp)
                         .ok())
            << method->name() << " prefix " << len;
        sent++;
      }
    }
  }
  EXPECT_GT(sent, 200u);
  // A well-formed replicate whose record would not raise the tail's LSN is
  // refused like a gap: the backup answers its unchanged tail.
  ASSERT_TRUE(fabric_
                  .Call(&ctx_, backup, kReplicate,
                        Varints({epoch, 1, 5, 0, 0}) + Recs(3, 3).Batch(0, 1),
                        &resp)
                  .ok());
  EXPECT_EQ(resp, Varints({4}));
  EXPECT_EQ(read_back(), before);
  for (const auto& [tag, tail] : {std::pair<LogTag, Lsn>{1, 4}, {2, 2}}) {
    EXPECT_EQ(service_.CountDurable(tag, tail), service_.num_log_nodes());
    EXPECT_EQ(service_.CountDurable(tag, tail + 1), 0u);
  }
  // The next append lands at seq 5 as if nothing had been sent.
  ASSERT_TRUE(fabric_
                  .Call(&ctx_, primary, kAppend,
                        append_header + Recs(5, 5).Batch(0, 1), &resp)
                  .ok());
  EXPECT_EQ(resp, Varints({1, 5, 5, 5}));  // stored, tail seq/LSN, base

  for (const auto& [node, method] :
       {std::pair<NodeId, const RpcMethod*>{service_.ctl_node(), &kView},
        {primary, &kSeal}}) {
    std::string expected;
    ASSERT_TRUE(fabric_.Call(&ctx_, node, *method, "", &expected).ok());
    for (const std::string& req : appends) {
      EXPECT_TRUE(fabric_.Call(&ctx_, node, *method, req, &resp).ok());
      EXPECT_EQ(resp, expected) << method->name();
    }
  }
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
