#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "common/logging.h"
#include "pm/pilot_log.h"
#include "pm/pm_node.h"
#include "test_util.h"

namespace disagg {
namespace {

const RpcMethod kPmPersistWrite("pm.persist_write");

class PmNodeTest : public ::testing::Test {
 protected:
  PmNodeTest() : pm_(&fabric_, "pm0", 1 << 20), client_(&fabric_, &pm_) {}

  GlobalAddr Alloc(size_t n) {
    auto a = pm_.AllocLocal(n);
    DISAGG_CHECK(a.ok());
    return *a;
  }

  std::string ReadBack(GlobalAddr addr, size_t n) {
    std::string out(n, '\0');
    NetContext ctx;
    DISAGG_CHECK_OK(client_.ReadRemote(&ctx, addr, out.data(), n));
    return out;
  }

  Fabric fabric_;
  PmNode pm_;
  PmClient client_;
  NetContext ctx_;
};

TEST_F(PmNodeTest, UnflushedWriteIsLostOnCrash) {
  // Kalia et al.: a one-sided RDMA write is NOT persistent by itself — the
  // bytes may still sit in NIC/PCIe buffers.
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "volatile-data").ok());
  EXPECT_EQ(ReadBack(addr, 13), "volatile-data");  // visible...
  EXPECT_EQ(pm_.staged_writes(), 1u);
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), std::string(13, '\0'));  // ...but gone
}

TEST_F(PmNodeTest, FlushReadMakesWritesDurable) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "durable-data!").ok());
  ASSERT_TRUE(client_.FlushRead(&ctx_, addr).ok());
  EXPECT_EQ(pm_.staged_writes(), 0u);
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), "durable-data!");
}

TEST_F(PmNodeTest, RpcPersistIsDurable) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "rpc-persisted").ok());
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 13), "rpc-persisted");
}

TEST_F(PmNodeTest, HostilePersistWritesFailWithoutSideEffects) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "BASE").ok());
  // A well-formed request: offset varint, then length-prefixed data.
  std::string good;
  PutVarint64(&good, addr.offset);
  const size_t data_prefix = good.size();
  PutLengthPrefixedSlice(&good, "evil");
  std::vector<std::string> hostile =
      testutil::MalformedPayloads(good, {data_prefix});
  // Writes that end past the region, including offsets where
  // `offset + length` wraps around 2^64, and a length far beyond the bytes
  // that follow.
  for (uint64_t offset : {uint64_t{1} << 20, (uint64_t{1} << 20) - 2,
                          ~uint64_t{0} - 1}) {
    std::string req;
    PutVarint64(&req, offset);
    PutLengthPrefixedSlice(&req, "evil");
    hostile.push_back(std::move(req));
  }
  std::string huge;
  PutVarint64(&huge, addr.offset);
  PutVarint64(&huge, uint64_t{1} << 62);
  huge += "evil";
  hostile.push_back(std::move(huge));
  for (const std::string& req : hostile) {
    std::string resp;
    EXPECT_FALSE(
        fabric_.Call(&ctx_, pm_.node(), kPmPersistWrite, req, &resp).ok())
        << "request of " << req.size() << " bytes";
  }
  EXPECT_EQ(ReadBack(addr, 4), "BASE");
  EXPECT_EQ(pm_.staged_writes(), 0u);
}

TEST_F(PmNodeTest, CrashRestoresOverlappingWritesInOrder) {
  GlobalAddr addr = Alloc(16);
  ASSERT_TRUE(client_.WritePersistRpc(&ctx_, addr, "BASE").ok());
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "1111").ok());
  ASSERT_TRUE(client_.WriteUnsafe(&ctx_, addr, "2222").ok());
  pm_.Crash();
  EXPECT_EQ(ReadBack(addr, 4), "BASE");
}

TEST_F(PmNodeTest, TwoSidedPersistBeatsOneSidedPersist) {
  // Kalia et al.'s counterintuitive result: the RPC path (1 round trip,
  // server-side persist) is faster than WRITE + flush-READ (2 round trips).
  GlobalAddr addr = Alloc(256);
  const std::string data(128, 'x');
  NetContext one_sided, rpc;
  ASSERT_TRUE(client_.WritePersistOneSided(&one_sided, addr, data).ok());
  ASSERT_TRUE(client_.WritePersistRpc(&rpc, addr, data).ok());
  EXPECT_LT(rpc.sim_ns, one_sided.sim_ns);
  EXPECT_EQ(rpc.round_trips, 1u);
  EXPECT_EQ(one_sided.round_trips, 2u);
}

TEST_F(PmNodeTest, RemotePmBeatsLocalIoStack) {
  // Exadata's observation: RDMA to remote PM is faster than local PM through
  // the kernel I/O stack.
  GlobalAddr addr = Alloc(8192);
  char buf[8192];
  NetContext remote, local;
  ASSERT_TRUE(client_.ReadRemote(&remote, addr, buf, sizeof(buf)).ok());
  ASSERT_TRUE(client_.ReadLocalViaIoStack(&local, addr, buf, sizeof(buf)).ok());
  EXPECT_LT(remote.sim_ns, local.sim_ns);
}

LogRecord MakeUpdate(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = 1;
  r.type = LogType::kUpdate;
  r.page_id = page;
  r.slot = slot;
  r.payload = payload;
  return r;
}

class PilotLogTest : public ::testing::Test {
 protected:
  PilotLogTest()
      : pm_(&fabric_, "pm0", 8 << 20),
        log_(&fabric_, &pm_, /*log_capacity=*/1 << 20, /*max_pages=*/16) {
    Page page(1);
    DISAGG_CHECK(page.Insert("v0").ok());
    page.set_lsn(1);
    DISAGG_CHECK_OK(log_.CreatePage(&ctx_, page));
  }

  Fabric fabric_;
  PmNode pm_;
  PilotLog log_;
  NetContext ctx_;
};

TEST_F(PilotLogTest, FastReadWhenApplierCaughtUp) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")}).ok());
  EXPECT_GT(log_.UnappliedBytes(), 0u);
  EXPECT_GT(log_.ApplyOnPmSide(), 0u);
  EXPECT_EQ(log_.UnappliedBytes(), 0u);
  auto page = log_.ReadPage(&ctx_, 1, /*expected_lsn=*/2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v2");
  EXPECT_EQ(log_.stats().fast_reads, 1u);
  EXPECT_EQ(log_.stats().replay_reads, 0u);
}

TEST_F(PilotLogTest, StaleReadReplaysLogLocally) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2"),
                                     MakeUpdate(3, 1, 0, "v3")})
                  .ok());
  // Applier intentionally NOT run: the optimistic read must replay.
  auto page = log_.ReadPage(&ctx_, 1, /*expected_lsn=*/3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v3");
  EXPECT_EQ(log_.stats().replay_reads, 1u);
  EXPECT_EQ(log_.stats().replayed_records, 2u);
}

TEST_F(PilotLogTest, RpcAppendAlsoLands) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")},
                             PilotLog::LogMode::kRpc)
                  .ok());
  log_.ApplyOnPmSide();
  auto page = log_.ReadPage(&ctx_, 1, 2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v2");
}

TEST_F(PilotLogTest, OneSidedAppendSkipsPmServerCpu) {
  NetContext one_sided, rpc;
  ASSERT_TRUE(log_.AppendLog(&one_sided, {MakeUpdate(2, 1, 0, "v2")},
                             PilotLog::LogMode::kOneSided)
                  .ok());
  ASSERT_TRUE(log_.AppendLog(&rpc, {MakeUpdate(3, 1, 0, "v3")},
                             PilotLog::LogMode::kRpc)
                  .ok());
  EXPECT_EQ(one_sided.rpcs, 0u);  // never touches the server CPU
  EXPECT_EQ(rpc.rpcs, 1u);
}

TEST_F(PilotLogTest, ReadUnknownPageIsNotFound) {
  EXPECT_TRUE(log_.ReadPage(&ctx_, 404, 1).status().IsNotFound());
}

TEST_F(PilotLogTest, ReplayCannotExceedLoggedLsn) {
  ASSERT_TRUE(log_.AppendLog(&ctx_, {MakeUpdate(2, 1, 0, "v2")}).ok());
  EXPECT_TRUE(
      log_.ReadPage(&ctx_, 1, /*expected_lsn=*/9).status().IsUnavailable());
}

}  // namespace
}  // namespace disagg
