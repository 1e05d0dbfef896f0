#ifndef DISAGG_TXN_TXN_MANAGER_H_
#define DISAGG_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace disagg {

/// Transaction coordinator tying strict 2PL to the WAL: engines call the
/// Log* methods BEFORE applying a change to a page (write-ahead rule), and
/// Commit flushes the log to the sink — the durability point whose cost
/// varies across architectures (local fsync vs XLOG RPC vs Aurora quorum).
///
/// Each transaction's records live in a per-transaction log taken from a
/// pool and returned to it when the transaction ends: the records and their
/// payload strings keep their capacity, so a warm transaction's Log* calls
/// allocate nothing.
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
  /// Once the flush succeeded, `on_durable` runs with the transaction's
  /// stamped data records (oldest first) — what a page-shipping engine
  /// sends to its page stores at commit — and its status is returned. The
  /// span is valid until `on_durable` returns.
  template <typename OnDurable>
  Status Commit(NetContext* ctx, TxnId txn, OnDurable&& on_durable) {
    Status st = CommitDurable(ctx, txn);
    if (st.ok()) st = on_durable(RecordsOf(txn));
    Retire(txn, nullptr);
    return st;
  }
  Status Commit(NetContext* ctx, TxnId txn) {
    return Commit(ctx, txn,
                  [](std::span<const LogRecord>) { return Status::OK(); });
  }

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
  /// One transaction's data records, newest last. Slots past `used` are
  /// records of an earlier transaction kept for their string capacity.
  struct TxnLog {
    std::vector<LogRecord> slots;
    size_t used = 0;

    std::span<const LogRecord> records() const {
      return std::span<const LogRecord>(slots.data(), used);
    }
  };

  /// `txn`'s log, taken from the pool on first use. Caller holds `mu_`.
  TxnLog* LogOfLocked(TxnId txn);
  /// A cleared record appended to `txn`'s log, to be filled and stamped
  /// outside `mu_` (only `txn`'s own calls touch its log).
  LogRecord* NextRecord(TxnId txn, LogType type, PageId page, uint16_t slot,
                        uint64_t row_key);
  /// Logs the commit record, flushes and releases the locks.
  Status CommitDurable(NetContext* ctx, TxnId txn);
  /// `txn`'s records (empty if it has no log), valid until it is retired.
  std::span<const LogRecord> RecordsOf(TxnId txn) const;
  /// Returns `txn`'s log to the pool, first copying its records newest
  /// first into `*undo` when given.
  void Retire(TxnId txn, std::vector<LogRecord>* undo);

  WalManager* wal_;
  LockBackend* locks_;
  std::atomic<TxnId> next_txn_{1};
  mutable std::mutex mu_;
  FlatMap<std::unique_ptr<TxnLog>> active_;
  std::vector<std::unique_ptr<TxnLog>> pool_;
};

}  // namespace disagg

#endif  // DISAGG_TXN_TXN_MANAGER_H_
