#ifndef DISAGG_TXN_LOCK_MANAGER_H_
#define DISAGG_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "storage/log_record.h"
#include "txn/lock_backend.h"

namespace disagg {

/// Row-level S/X lock table (strict two-phase locking). No blocking waits:
/// conflicting requests fail with Status::Busy and the transaction aborts
/// and retries — the no-wait policy common in distributed/disaggregated
/// settings where blocking a remote caller is worse than restarting it.
///
/// The compute-local `LockBackend`: `ctx` is ignored, acquisition touches
/// no fabric. The offloaded alternative lives at the memory node
/// (`OffloadedLockClient`, src/memnode/executor.h).
///
/// Storage is recycled: a released entry's sharer list and a finished
/// transaction's held-key list keep their capacity in spare pools, so once
/// the tables reach their working size an acquire allocates nothing.
class LockManager : public LockBackend {
 public:
  using Mode = LockMode;

  /// Acquires (or upgrades) `key` for `txn`. Every conflict path returns
  /// Status::Busy — never TimedOut/Aborted — so callers' retry loops can
  /// key on IsBusy() alone (the contract concurrency_test exercises).
  Status Acquire(TxnId txn, uint64_t key, Mode mode);

  /// Releases everything `txn` holds (commit/abort).
  void ReleaseAll(TxnId txn);

  // LockBackend (local: the context is unused, nothing touches the fabric).
  Status AcquireLock(NetContext* ctx, TxnId txn, uint64_t key,
                     LockMode mode) override {
    (void)ctx;
    return Acquire(txn, key, mode);
  }
  void ReleaseAllLocks(NetContext* ctx, TxnId txn) override {
    (void)ctx;
    ReleaseAll(txn);
  }

  size_t held_locks() const;

 private:
  struct Entry {
    std::vector<TxnId> sharers;  // unordered, each at most once
    TxnId exclusive = 0;         // 0 = none
  };

  mutable std::mutex mu_;
  FlatMap<Entry> table_;
  // Keys each transaction acquired, in order, each listed once.
  FlatMap<std::vector<uint64_t>> held_;
  size_t held_count_ = 0;
  std::vector<std::vector<TxnId>> spare_sharers_;
  std::vector<std::vector<uint64_t>> spare_held_;
};

}  // namespace disagg

#endif  // DISAGG_TXN_LOCK_MANAGER_H_
