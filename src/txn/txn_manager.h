#ifndef DISAGG_TXN_TXN_MANAGER_H_
#define DISAGG_TXN_TXN_MANAGER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace disagg {

/// Transaction coordinator tying strict 2PL to the WAL: engines call the
/// Log* methods BEFORE applying a change to a page (write-ahead rule), and
/// Commit flushes the log to the sink — the durability point whose cost
/// varies across architectures (local fsync vs XLOG RPC vs Aurora quorum).
class TxnManager {
 public:
  TxnManager(WalManager* wal, LockBackend* locks) : wal_(wal), locks_(locks) {}

  /// Swaps the lock backend (e.g. for the memory-node offloaded lock table,
  /// `RowEngine::AdoptConcurrencyOffload`). Config-time only: call before
  /// any transaction begins.
  void set_lock_backend(LockBackend* locks) { locks_ = locks; }
  LockBackend* lock_backend() { return locks_; }

  TxnId Begin();

  /// Lock helpers (no-wait: Busy means "abort and retry"; Aborted means the
  /// memory-node lock table wounded or fenced this txn — abort, don't
  /// retry the same txn id). `ctx` carries the fabric charge for offloaded
  /// backends; the ctx-less overloads serve local-backend callers.
  Status LockShared(NetContext* ctx, TxnId txn, uint64_t key) {
    return locks_->AcquireLock(ctx, txn, key, LockMode::kShared);
  }
  Status LockExclusive(NetContext* ctx, TxnId txn, uint64_t key) {
    return locks_->AcquireLock(ctx, txn, key, LockMode::kExclusive);
  }
  Status LockShared(TxnId txn, uint64_t key) {
    return LockShared(nullptr, txn, key);
  }
  Status LockExclusive(TxnId txn, uint64_t key) {
    return LockExclusive(nullptr, txn, key);
  }

  /// WAL wrappers; each returns the stamped LSN the caller must put on the
  /// page it modifies. `row_key` is the engine-level key (0 if none).
  Lsn LogInsert(TxnId txn, PageId page, uint16_t slot, Slice after,
                uint64_t row_key = 0);
  Lsn LogUpdate(TxnId txn, PageId page, uint16_t slot, Slice before,
                Slice after, uint64_t row_key = 0);
  Lsn LogDelete(TxnId txn, PageId page, uint16_t slot, Slice before,
                uint64_t row_key = 0);

  /// Appends the commit record and flushes (group commit). Releases locks.
  /// If `records` is given, the transaction's stamped data records (oldest
  /// first) are moved into it — what a page-shipping engine sends to its
  /// page stores at commit.
  Status Commit(NetContext* ctx, TxnId txn,
                std::vector<LogRecord>* records = nullptr);

  /// Logs compensation records (CLRs) for the rollback plus an abort
  /// record, and returns the transaction's updates in reverse order so the
  /// engine can undo them in its buffer. Releases locks. Delete-undo CLRs
  /// are the engine's job (it knows the re-insert slot): call LogClr, then
  /// FinishRollback.
  std::vector<LogRecord> Abort(NetContext* ctx, TxnId txn);
  std::vector<LogRecord> Abort(TxnId txn) { return Abort(nullptr, txn); }

  /// Ends a transaction that logged nothing: just releases its locks. A
  /// read-only transaction has no durability point — no commit record, no
  /// flush, no quorum round-trip. The caller guarantees the transaction
  /// performed no Log* calls (any tracked undo is dropped, not rolled back).
  void EndReadOnly(NetContext* ctx, TxnId txn);
  void EndReadOnly(TxnId txn) { EndReadOnly(nullptr, txn); }

  /// Logs one CLR describing a rollback action the engine performed
  /// (empty `restored_image` = the slot was deleted again).
  Lsn LogClr(TxnId txn, PageId page, uint16_t slot, Slice restored_image,
             Lsn compensated_lsn);

  /// Ends an aborted transaction's log chain once the engine has logged its
  /// last CLR: the WAL forgets the transaction.
  void FinishRollback(TxnId txn) { wal_->EndTxn(txn); }

  size_t active_txns() const;

 private:
  Lsn LogAndTrack(TxnId txn, LogRecord record);

  WalManager* wal_;
  LockBackend* locks_;
  std::atomic<TxnId> next_txn_{1};
  mutable std::mutex mu_;
  std::map<TxnId, std::vector<LogRecord>> undo_;  // newest last
};

}  // namespace disagg

#endif  // DISAGG_TXN_TXN_MANAGER_H_
