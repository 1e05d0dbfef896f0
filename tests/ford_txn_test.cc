#include <gtest/gtest.h>

#include "common/random.h"
#include "pm/ford_txn.h"

namespace disagg {
namespace {

class FordTest : public ::testing::Test {
 protected:
  FordTest() {
    for (int i = 0; i < 2; i++) {
      pm_.push_back(std::make_unique<PmNode>(
          &fabric_, "pm" + std::to_string(i), 64 << 20));
    }
    std::vector<PmNode*> raw;
    for (auto& n : pm_) raw.push_back(n.get());
    mgr_ = std::make_unique<FordTxnManager>(&fabric_, raw,
                                            /*records_per_node=*/32);
  }

  Fabric fabric_;
  std::vector<std::unique_ptr<PmNode>> pm_;
  std::unique_ptr<FordTxnManager> mgr_;
  NetContext ctx_;
};

TEST_F(FordTest, CommitAcrossTwoPmNodes) {
  auto txn = mgr_->Begin(&ctx_);
  // Records 0..31 live on pm0, 32..63 on pm1 — a distributed transaction.
  ASSERT_TRUE(txn.Write(1, "node0-value").ok());
  ASSERT_TRUE(txn.Write(40, "node1-value").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 1), "node0-value");
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 40), "node1-value");
  EXPECT_EQ(mgr_->stats().commits, 1u);
}

TEST_F(FordTest, EntirelyOneSided) {
  auto txn = mgr_->Begin(&ctx_);
  ASSERT_TRUE(txn.Read(3).ok());
  ASSERT_TRUE(txn.Write(3, "updated").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(ctx_.rpcs, 0u);  // READs, CASes, WRITEs, flush-READs only
}

TEST_F(FordTest, ReadYourOwnWrites) {
  auto txn = mgr_->Begin(&ctx_);
  ASSERT_TRUE(txn.Write(5, "pending").ok());
  EXPECT_EQ(*txn.Read(5), "pending");
  txn.Abort();
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 5), "");  // never applied
}

TEST_F(FordTest, ValidationAbortsOnConcurrentUpdate) {
  auto t1 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t1.Read(7).ok());
  ASSERT_TRUE(t1.Write(7, "t1-value").ok());
  // t2 sneaks in and commits an update to the same record.
  auto t2 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t2.Write(7, "t2-value").ok());
  ASSERT_TRUE(t2.Commit().ok());
  // t1's validation must now fail.
  EXPECT_TRUE(t1.Commit().IsAborted());
  EXPECT_EQ(mgr_->stats().aborts_validate, 1u);
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 7), "t2-value");
}

TEST_F(FordTest, LockConflictAborts) {
  auto t1 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t1.Write(9, "t1").ok());
  // Another transaction (id 999) holds record 9's lock word mid-commit.
  NetContext other;
  auto held = fabric_.CompareAndSwap(&other, mgr_->AddrOf(9), 0, 999);
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(*held, 0u);
  // t1's lock-phase CAS observes the holder: a lock abort, not a validation
  // abort (record 9's version never moved).
  EXPECT_TRUE(t1.Commit().IsAborted());
  EXPECT_EQ(mgr_->stats().aborts_lock, 1u);
  EXPECT_EQ(mgr_->stats().aborts_validate, 0u);
  // Once the holder releases, the record is writable again.
  ASSERT_TRUE(fabric_.CompareAndSwap(&other, mgr_->AddrOf(9), 999, 0).ok());
  auto t2 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t2.Write(9, "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 9), "t2");
}

TEST_F(FordTest, FabricErrorInLockPhaseReleasesHeldLocks) {
  auto t1 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t1.Write(1, "t1-a").ok());   // on pm0: locked first
  ASSERT_TRUE(t1.Write(40, "t1-b").ok());  // on pm1: its CAS errors
  fabric_.node(pm_[1]->node())->Fail();
  const Status st = t1.Commit();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsAborted());  // a fabric error, not a conflict
  fabric_.node(pm_[1]->node())->Revive();
  // rid 1's lock word was released on the error exit, so a later
  // transaction on it commits.
  auto t2 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t2.Write(1, "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 1), "t2");
  EXPECT_EQ(mgr_->stats().aborts_lock, 0u);
}

TEST_F(FordTest, FabricErrorInValidatePhaseReleasesHeldLocks) {
  auto t1 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t1.Read(40).ok());          // on pm1: its validate READ errors
  ASSERT_TRUE(t1.Write(1, "t1").ok());    // on pm0: locked first
  fabric_.node(pm_[1]->node())->Fail();
  const Status st = t1.Commit();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsAborted());
  fabric_.node(pm_[1]->node())->Revive();
  auto t2 = mgr_->Begin(&ctx_);
  ASSERT_TRUE(t2.Write(1, "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 1), "t2");
}

TEST_F(FordTest, CommittedWritesSurvivePmCrash) {
  auto txn = mgr_->Begin(&ctx_);
  ASSERT_TRUE(txn.Write(2, "must-survive").ok());
  ASSERT_TRUE(txn.Commit().ok());
  pm_[0]->Crash();  // commit already flushed: nothing staged may be lost
  EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, 2), "must-survive");
}

TEST_F(FordTest, RandomWorkloadMatchesModel) {
  std::map<uint64_t, std::string> model;
  Random rng(77);
  for (int i = 0; i < 200; i++) {
    const uint64_t a = rng.Uniform(64);
    const uint64_t b = rng.Uniform(64);
    auto txn = mgr_->Begin(&ctx_);
    const std::string va = "v" + std::to_string(i) + "a";
    const std::string vb = "v" + std::to_string(i) + "b";
    ASSERT_TRUE(txn.Write(a, va).ok());
    ASSERT_TRUE(txn.Write(b, vb).ok());
    Status st = txn.Commit();
    if (st.ok()) {
      // b's write wins when a == b (map ordering: writes_ applied in rid
      // order, but equal rids collapse to the last staged value).
      model[a] = va;
      model[b] = vb;
    }
    ASSERT_TRUE(st.ok() || st.IsAborted());
  }
  for (const auto& [rid, value] : model) {
    EXPECT_EQ(*mgr_->ReadCommitted(&ctx_, rid), value) << rid;
  }
}

}  // namespace
}  // namespace disagg
