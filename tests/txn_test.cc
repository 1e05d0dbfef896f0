#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/engines.h"
#include "memnode/page_source.h"
#include "txn/lock_manager.h"
#include "txn/recovery.h"
#include "txn/two_tier_aries.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace disagg {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 100, LockManager::Mode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, 100, LockManager::Mode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(3, 100, LockManager::Mode::kExclusive).IsBusy());
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 100, LockManager::Mode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, 100, LockManager::Mode::kShared).IsBusy());
  EXPECT_TRUE(lm.Acquire(2, 100, LockManager::Mode::kExclusive).IsBusy());
  // Re-entrant for the holder.
  EXPECT_TRUE(lm.Acquire(1, 100, LockManager::Mode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, 100, LockManager::Mode::kShared).ok());
}

// A shared request from the X holder is already covered: the key stays
// listed once and its release frees it for everyone.
TEST(LockManagerTest, SharedAfterExclusiveHoldsOneLock) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 7, LockManager::Mode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, 7, LockManager::Mode::kShared).ok());
  EXPECT_EQ(lm.held_locks(), 1u);
  EXPECT_TRUE(lm.Acquire(2, 7, LockManager::Mode::kShared).IsBusy());
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.held_locks(), 0u);
  EXPECT_TRUE(lm.Acquire(2, 7, LockManager::Mode::kExclusive).ok());
}

TEST(LockManagerTest, UpgradeOnlyWhenSoleSharer) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 5, LockManager::Mode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, 5, LockManager::Mode::kExclusive).ok());
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.Acquire(1, 5, LockManager::Mode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, 5, LockManager::Mode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, 5, LockManager::Mode::kExclusive).IsBusy());
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 1, LockManager::Mode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, 2, LockManager::Mode::kShared).ok());
  EXPECT_EQ(lm.held_locks(), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.held_locks(), 0u);
  EXPECT_TRUE(lm.Acquire(2, 1, LockManager::Mode::kExclusive).ok());
}

// The lock table's semantics written the plainest way (ordered maps and
// sets): the reference the recycled-storage `LockManager` must match.
class ReferenceLocks {
 public:
  bool Acquire(TxnId txn, uint64_t key, LockMode mode) {
    Entry& e = table_[key];
    if (mode == LockMode::kShared) {
      if (e.exclusive != 0) return e.exclusive == txn;
      if (e.sharers.insert(txn).second) held_[txn].push_back(key);
      return true;
    }
    if (e.exclusive != 0) return e.exclusive == txn;
    for (TxnId sharer : e.sharers) {
      if (sharer != txn) return false;
    }
    const bool newly_held = e.sharers.erase(txn) == 0;
    e.exclusive = txn;
    if (newly_held) held_[txn].push_back(key);
    return true;
  }

  void ReleaseAll(TxnId txn) {
    auto it = held_.find(txn);
    if (it == held_.end()) return;
    for (uint64_t key : it->second) {
      auto te = table_.find(key);
      if (te == table_.end()) continue;
      te->second.sharers.erase(txn);
      if (te->second.exclusive == txn) te->second.exclusive = 0;
      if (te->second.sharers.empty() && te->second.exclusive == 0) {
        table_.erase(te);
      }
    }
    held_.erase(it);
  }

  size_t held_locks() const {
    size_t n = 0;
    for (const auto& [txn, keys] : held_) n += keys.size();
    return n;
  }

 private:
  struct Entry {
    std::set<TxnId> sharers;
    TxnId exclusive = 0;
  };
  std::map<uint64_t, Entry> table_;
  std::map<TxnId, std::vector<uint64_t>> held_;
};

// Seeded random S/X acquires, upgrades and releases from 8 transactions on
// 16 keys: every call's OK/Busy outcome and every `held_locks()` agree with
// the reference. Released transactions come back under fresh ids, so the
// recycled entries and held lists are exercised too.
TEST(LockManagerTest, RandomSequencesMatchReference) {
  for (uint64_t seed = 1; seed <= 10; seed++) {
    std::mt19937_64 rng(seed);
    LockManager lm;
    ReferenceLocks ref;
    std::array<TxnId, 8> txns;
    TxnId next = 1;
    for (TxnId& t : txns) t = next++;
    for (int op = 0; op < 5000; op++) {
      TxnId& txn = txns[rng() % txns.size()];
      if (rng() % 10 == 0) {
        lm.ReleaseAll(txn);
        ref.ReleaseAll(txn);
        txn = next++;
      } else {
        const uint64_t key = 1000 + rng() % 16;
        const LockMode mode =
            rng() % 2 == 0 ? LockMode::kShared : LockMode::kExclusive;
        const Status st = lm.Acquire(txn, key, mode);
        ASSERT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
        ASSERT_EQ(st.ok(), ref.Acquire(txn, key, mode))
            << "seed " << seed << " op " << op << " txn " << txn << " key "
            << key << (mode == LockMode::kShared ? " S" : " X");
      }
      ASSERT_EQ(lm.held_locks(), ref.held_locks())
          << "seed " << seed << " op " << op;
    }
    for (TxnId txn : txns) lm.ReleaseAll(txn);
    EXPECT_EQ(lm.held_locks(), 0u);
  }
}

// Four threads lock overlapping keys exclusively: no two transactions ever
// hold X on one key at once. Each holder bumps the key's atomic count while
// it holds the lock and drops it before releasing.
TEST(LockManagerTest, ThreadsNeverShareAnExclusiveLock) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  LockManager lm;
  std::array<std::atomic<int>, kKeys> holders{};
  std::atomic<TxnId> next_txn{1};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      for (int round = 0; round < 3000; round++) {
        const TxnId txn = next_txn.fetch_add(1);
        std::vector<int> mine;
        for (int i = 0; i < 3; i++) {
          const int key = static_cast<int>(rng() % kKeys);
          if (rng() % 3 == 0) {  // read first, then try to upgrade
            if (!lm.Acquire(txn, key, LockMode::kShared).ok()) continue;
          }
          if (!lm.Acquire(txn, key, LockMode::kExclusive).ok()) continue;
          bool held_already = false;
          for (int k : mine) held_already |= k == key;
          if (held_already) continue;
          if (holders[key].fetch_add(1) != 0) violations++;
          mine.push_back(key);
          granted++;
        }
        for (int key : mine) holders[key].fetch_sub(1);
        lm.ReleaseAll(txn);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(granted.load(), 0u);
  EXPECT_EQ(lm.held_locks(), 0u);
}

TEST(WalManagerTest, LsnsMonotonicAndChained) {
  LocalDiskSink sink;
  WalManager wal(&sink);
  LogRecord a;
  a.txn_id = 7;
  a.type = LogType::kInsert;
  const Lsn l1 = wal.Append(a);
  const Lsn l2 = wal.Append(a);
  EXPECT_LT(l1, l2);
  EXPECT_EQ(wal.LastLsnOf(7), l2);
  EXPECT_EQ(wal.LastLsnOf(99), kInvalidLsn);
}

TEST(WalManagerTest, FlushDrainsBufferToSink) {
  LocalDiskSink sink;
  WalManager wal(&sink);
  LogRecord r;
  r.txn_id = 1;
  r.type = LogType::kInsert;
  r.page_id = 3;
  r.payload = "x";
  wal.Append(r);
  wal.Append(r);
  EXPECT_EQ(wal.buffered(), 2u);
  NetContext ctx;
  ASSERT_TRUE(wal.Flush(&ctx).ok());
  EXPECT_EQ(wal.buffered(), 0u);
  EXPECT_EQ(sink.record_count(), 2u);
  EXPECT_EQ(wal.flushed_lsn(), 2u);
  EXPECT_GT(ctx.sim_ns, 0u);  // the fsync was charged
}

// Fails its first append, running `during_failure` while that batch is in
// flight; afterwards accepts and keeps each request's bytes.
class FailOnceSink : public LogBackend {
 public:
  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    (void)ctx;
    if (!failed_) {
      failed_ = true;
      if (during_failure) during_failure();
      return Status::Unavailable("injected flush failure");
    }
    shipped.push_back(records.Batch(0, records.size()));
    return records.lsn(records.size() - 1);
  }
  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    (void)ctx;
    return Status::NotSupported("write-only sink");
  }

  std::function<void()> during_failure;
  std::vector<std::string> shipped;

 private:
  bool failed_ = false;
};

TEST(WalManagerTest, FailedFlushResendsEveryRecordOnceInLsnOrder) {
  FailOnceSink sink;
  WalManager wal(&sink);
  std::vector<LogRecord> stamped;
  auto append = [&](TxnId txn, std::string payload) {
    LogRecord r;
    r.txn_id = txn;
    r.type = LogType::kInsert;
    r.page_id = 3;
    r.payload = std::move(payload);
    wal.Append(&r);
    stamped.push_back(r);
  };
  append(1, "a");
  append(2, std::string(300, 'b'));
  append(1, "c");
  // Records appended while the failing batch is in flight land behind it.
  sink.during_failure = [&] { append(2, "d"); };
  NetContext ctx;
  EXPECT_TRUE(wal.Flush(&ctx).IsUnavailable());
  EXPECT_EQ(wal.buffered(), 4u);
  EXPECT_EQ(wal.flushed_lsn(), kInvalidLsn);
  append(3, "e");

  ASSERT_TRUE(wal.Flush(&ctx).ok());
  ASSERT_EQ(sink.shipped.size(), 1u);
  EXPECT_EQ(sink.shipped[0], LogRecord::EncodeBatch(stamped));
  EXPECT_EQ(wal.buffered(), 0u);
  EXPECT_EQ(wal.flushed_lsn(), 5u);

  // The next flush ships only what was appended since.
  stamped.clear();
  append(1, "f");
  ASSERT_TRUE(wal.Flush(&ctx).ok());
  ASSERT_EQ(sink.shipped.size(), 2u);
  EXPECT_EQ(sink.shipped[1], LogRecord::EncodeBatch(stamped));
}

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : wal_(&sink_), tm_(&wal_, &locks_) {}

  LocalDiskSink sink_;
  WalManager wal_;
  LockManager locks_;
  TxnManager tm_;
  NetContext ctx_;
};

TEST_F(TxnManagerTest, CommitFlushesAndReleases) {
  const TxnId t = tm_.Begin();
  ASSERT_TRUE(tm_.LockExclusive(t, 42).ok());
  tm_.LogInsert(t, 1, 0, "row");
  ASSERT_TRUE(tm_.Commit(&ctx_, t).ok());
  EXPECT_EQ(locks_.held_locks(), 0u);
  EXPECT_EQ(tm_.active_txns(), 0u);
  EXPECT_EQ(sink_.record_count(), 3u);  // begin, insert, commit
}

TEST_F(TxnManagerTest, AbortReturnsUndoNewestFirst) {
  const TxnId t = tm_.Begin();
  tm_.LogInsert(t, 1, 0, "v0");
  tm_.LogUpdate(t, 1, 0, "v0", "v1");
  auto undo = tm_.Abort(t);
  ASSERT_EQ(undo.size(), 2u);
  EXPECT_EQ(undo[0].type, LogType::kUpdate);
  EXPECT_EQ(undo[0].undo_payload, "v0");
  EXPECT_EQ(undo[1].type, LogType::kInsert);
  EXPECT_EQ(locks_.held_locks(), 0u);
}

// The WAL keeps a transaction's prev_lsn chain only while it can still log:
// commit, a read-only end and a finished rollback each drop it.
TEST_F(TxnManagerTest, EndedTransactionsLeaveNoLsnChain) {
  const TxnId committed = tm_.Begin();
  tm_.LogInsert(committed, 1, 0, "row");
  ASSERT_NE(wal_.LastLsnOf(committed), kInvalidLsn);
  ASSERT_TRUE(tm_.Commit(&ctx_, committed).ok());
  EXPECT_EQ(wal_.LastLsnOf(committed), kInvalidLsn);

  const TxnId reader = tm_.Begin();  // logs its begin record
  ASSERT_NE(wal_.LastLsnOf(reader), kInvalidLsn);
  tm_.EndReadOnly(reader);
  EXPECT_EQ(wal_.LastLsnOf(reader), kInvalidLsn);

  const TxnId aborted = tm_.Begin();
  tm_.LogInsert(aborted, 1, 1, "gone");
  (void)tm_.Abort(aborted);
  // The engine may still log delete-undo CLRs behind the abort record.
  const Lsn abort_lsn = wal_.LastLsnOf(aborted);
  EXPECT_EQ(abort_lsn, wal_.next_lsn() - 1);
  const Lsn clr = tm_.LogClr(aborted, 1, 2, "back", 1);
  EXPECT_EQ(wal_.LastLsnOf(aborted), clr);
  tm_.FinishRollback(aborted);
  EXPECT_EQ(wal_.LastLsnOf(aborted), kInvalidLsn);
}

// A rollback's records chain through prev_lsn in log order: the undo CLR
// TxnManager logs, then the abort record, then the engine's delete-undo CLR
// behind it.
TEST(RowEngineWalTest, RollbackClrChainAndEndedChains) {
  MonolithicDb db;
  NetContext ctx;
  ASSERT_TRUE(db.Put(&ctx, 1, "one").ok());
  ASSERT_TRUE(db.Put(&ctx, 2, "two").ok());

  const TxnId txn = db.Begin();
  ASSERT_TRUE(db.Update(&ctx, txn, 1, "ONE").ok());
  ASSERT_TRUE(db.Delete(&ctx, txn, 2).ok());
  ASSERT_TRUE(db.Abort(&ctx, txn).ok());
  EXPECT_EQ(db.wal()->LastLsnOf(txn), kInvalidLsn);

  const TxnId reader = db.Begin();
  ASSERT_NE(db.wal()->LastLsnOf(reader), kInvalidLsn);
  ASSERT_TRUE(db.Commit(&ctx, reader).ok());  // flushes the rollback too
  EXPECT_EQ(db.wal()->LastLsnOf(reader), kInvalidLsn);

  auto log = db.sink()->ReadAll(&ctx);
  ASSERT_TRUE(log.ok());
  std::vector<LogRecord> chain;
  for (const LogRecord& r : *log) {
    if (r.txn_id == txn) chain.push_back(r);
  }
  const std::vector<LogType> types = {LogType::kTxnBegin, LogType::kUpdate,
                                      LogType::kDelete,   LogType::kClr,
                                      LogType::kTxnAbort, LogType::kClr};
  ASSERT_EQ(chain.size(), types.size());
  for (size_t i = 0; i < chain.size(); i++) {
    EXPECT_EQ(chain[i].type, types[i]) << i;
    EXPECT_EQ(chain[i].prev_lsn, i == 0 ? kInvalidLsn : chain[i - 1].lsn)
        << i;
  }
  EXPECT_EQ(chain[3].compensates_lsn, chain[1].lsn);  // undoes the update
  EXPECT_EQ(chain[5].compensates_lsn, chain[2].lsn);  // undoes the delete
}

TEST_F(TxnManagerTest, NoWaitConflictAbortsSecondTxn) {
  const TxnId t1 = tm_.Begin();
  const TxnId t2 = tm_.Begin();
  ASSERT_TRUE(tm_.LockExclusive(t1, 7).ok());
  EXPECT_TRUE(tm_.LockExclusive(t2, 7).IsBusy());
  (void)tm_.Abort(t2);
  ASSERT_TRUE(tm_.Commit(&ctx_, t1).ok());
  const TxnId t3 = tm_.Begin();
  EXPECT_TRUE(tm_.LockExclusive(t3, 7).ok());
}

// --- ARIES recovery -------------------------------------------------------

std::vector<LogRecord> BuildLog() {
  // txn 1 commits (insert + update), txn 2 does not (insert).
  std::vector<LogRecord> log;
  auto push = [&log](Lsn lsn, TxnId txn, LogType type, PageId page,
                     uint16_t slot, std::string payload, std::string undo) {
    LogRecord r;
    r.lsn = lsn;
    r.txn_id = txn;
    r.type = type;
    r.page_id = page;
    r.slot = slot;
    r.payload = std::move(payload);
    r.undo_payload = std::move(undo);
    log.push_back(std::move(r));
  };
  push(1, 1, LogType::kTxnBegin, kInvalidPageId, 0, "", "");
  push(2, 1, LogType::kInsert, 10, 0, "committed-v0", "");
  push(3, 2, LogType::kTxnBegin, kInvalidPageId, 0, "", "");
  push(4, 2, LogType::kInsert, 10, 1, "loser-row", "");
  push(5, 1, LogType::kUpdate, 10, 0, "committed-v1", "committed-v0");
  push(6, 1, LogType::kTxnCommit, kInvalidPageId, 0, "", "");
  return log;
}

TEST(AriesRecoveryTest, RedoWinnersUndoLosers) {
  auto out = AriesRecovery::Recover(BuildLog(), {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->winners.count(1), 1u);
  EXPECT_EQ(out->losers.count(2), 1u);
  ASSERT_EQ(out->pages.count(10), 1u);
  const Page& page = out->pages.at(10);
  EXPECT_EQ(page.Get(0)->ToString(), "committed-v1");  // winner survives
  EXPECT_TRUE(page.Get(1).status().IsNotFound());       // loser rolled back
  EXPECT_EQ(out->clr_log.size(), 1u);
  EXPECT_EQ(out->clr_log[0].type, LogType::kClr);
}

TEST(AriesRecoveryTest, RecoveryIsIdempotent) {
  // Crash during recovery = run recovery again over log + CLRs; the result
  // must be the same page image.
  auto once = AriesRecovery::Recover(BuildLog(), {});
  ASSERT_TRUE(once.ok());
  std::vector<LogRecord> log2 = BuildLog();
  for (const LogRecord& clr : once->clr_log) log2.push_back(clr);
  auto twice = AriesRecovery::Recover(log2, {});
  ASSERT_TRUE(twice.ok());
  const Page& a = once->pages.at(10);
  const Page& b = twice->pages.at(10);
  EXPECT_EQ(a.Get(0)->ToString(), b.Get(0)->ToString());
  EXPECT_TRUE(b.Get(1).status().IsNotFound());
}

TEST(AriesRecoveryTest, CheckpointSkipsOldRedo) {
  auto full = AriesRecovery::Recover(BuildLog(), {});
  ASSERT_TRUE(full.ok());
  // Re-recover starting from the recovered pages: nothing to redo.
  auto from_ckpt = AriesRecovery::Recover(BuildLog(), full->pages);
  ASSERT_TRUE(from_ckpt.ok());
  EXPECT_EQ(from_ckpt->redo_applied, 0u);
  EXPECT_EQ(from_ckpt->pages.at(10).Get(0)->ToString(), "committed-v1");
}

TEST(AriesRecoveryTest, EmptyLogIsFine) {
  auto out = AriesRecovery::Recover({}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->pages.empty());
}

// --- Two-tier ARIES (LegoBase) --------------------------------------------

class TwoTierAriesTest : public ::testing::Test {
 protected:
  TwoTierAriesTest()
      : pool_(&fabric_, "mem0", 64 << 20),
        aries_(&fabric_, &pool_, &storage_, &sink_),
        wal_(&sink_) {}

  /// Runs two committed transactions, checkpoints after the first.
  void RunWorkload() {
    LogRecord r;
    r.txn_id = 1;
    r.type = LogType::kTxnBegin;
    r.page_id = kInvalidPageId;
    wal_.Append(r);
    r.type = LogType::kInsert;
    r.page_id = 5;
    r.slot = 0;
    r.payload = "first";
    wal_.Append(r);
    r.type = LogType::kTxnCommit;
    r.page_id = kInvalidPageId;
    wal_.Append(r);
    DISAGG_CHECK_OK(wal_.Flush(&ctx_));

    // Materialize the page state at checkpoint time.
    Page page(5);
    DISAGG_CHECK(page.Insert("first").ok());
    page.set_lsn(2);
    DISAGG_CHECK_OK(aries_.Checkpoint(&ctx_, {{5, page}}, /*lsn=*/2));

    r.txn_id = 2;
    r.type = LogType::kTxnBegin;
    r.page_id = kInvalidPageId;
    wal_.Append(r);
    r.type = LogType::kInsert;
    r.page_id = 5;
    r.slot = 1;
    r.payload = "second";
    wal_.Append(r);
    r.type = LogType::kTxnCommit;
    r.page_id = kInvalidPageId;
    wal_.Append(r);
    DISAGG_CHECK_OK(wal_.Flush(&ctx_));
  }

  Fabric fabric_;
  MemoryNode pool_;
  InMemoryPageSource storage_;
  LocalDiskSink sink_;
  TwoTierAries aries_;
  WalManager wal_;
  NetContext ctx_;
};

TEST_F(TwoTierAriesTest, RecoversFromRemoteMemoryFast) {
  RunWorkload();
  bool used_remote = false;
  NetContext rec_ctx;
  auto out = aries_.Recover(&rec_ctx, &used_remote);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(used_remote);
  const Page& page = out->pages.at(5);
  EXPECT_EQ(page.Get(0)->ToString(), "first");
  EXPECT_EQ(page.Get(1)->ToString(), "second");  // log tail replayed
}

TEST_F(TwoTierAriesTest, FallsBackToStorageWhenPoolLost) {
  RunWorkload();
  aries_.InvalidateRemoteTier();
  bool used_remote = true;
  NetContext rec_ctx;
  auto out = aries_.Recover(&rec_ctx, &used_remote);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(used_remote);
  const Page& page = out->pages.at(5);
  EXPECT_EQ(page.Get(0)->ToString(), "first");
  EXPECT_EQ(page.Get(1)->ToString(), "second");
}

TEST_F(TwoTierAriesTest, RemoteRecoveryIsFasterThanStorage) {
  RunWorkload();
  NetContext fast_ctx, slow_ctx;
  bool used_remote = false;
  ASSERT_TRUE(aries_.Recover(&fast_ctx, &used_remote).ok());
  ASSERT_TRUE(used_remote);
  aries_.InvalidateRemoteTier();
  ASSERT_TRUE(aries_.Recover(&slow_ctx, &used_remote).ok());
  ASSERT_FALSE(used_remote);
  EXPECT_LT(fast_ctx.sim_ns, slow_ctx.sim_ns);  // LegoBase's fast recovery
}

}  // namespace
}  // namespace disagg
