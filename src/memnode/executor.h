#ifndef DISAGG_MEMNODE_EXECUTOR_H_
#define DISAGG_MEMNODE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "memnode/memory_node.h"
#include "memnode/offload_protocol.h"
#include "rindex/remote_btree.h"
#include "txn/lock_backend.h"

namespace disagg {

class LeaseAuthority;  // net/membership.h

/// Near-data concurrency offload (SmartOffloading / Farview direction): an
/// RPC-hosted executor on the memory node's wimpy CPU that runs
///
///  - **B+tree traversal**: `exec.idx.{get,scan,put,del}` run the one-sided
///    client's walk (`BLinkTree`, `rindex/blink_tree.h`) over the SAME
///    on-pool node bytes, but server side — one `Call` verb per operation
///    instead of O(depth) one-sided reads (plus CAS/unlock round trips for
///    writers). Writers take the SAME lock words via region-local atomics,
///    so offloaded and one-sided clients interoperate on a live tree.
///  - **a lock-table service**: `exec.lock.{acquire,release}` implement
///    S/X row locks with WOUND_WAIT deadlock avoidance (lower TxnId =
///    older = wins). Wound notices ride replies; there is no blocking —
///    a waiting requester sees `kConflict` (maps to Busy) and retries,
///    a wounded txn sees `kWounded` (maps to Aborted) and must abort.
///
/// Every handler charges the weak-CPU model of `offload_protocol.h` via
/// `RpcServerContext::ChargeCompute`, which the fabric scales by the pool
/// node's `cpu_scale` — the Farview pushdown precedent generalized from
/// scan operators to index and concurrency control.
///
/// **Crash/recovery.** `Crash()` fails the node (every RPC and one-sided
/// verb gets `Unavailable`) and models the loss of the executor's DRAM
/// state: the lock table. The pool region itself (tree bytes) survives —
/// it is the disaggregated memory, not the service. `Recover()` revives
/// the node, clears the lock table and bumps the **epoch**. Lock requests
/// carry the epoch at which their txn first got a grant; a request
/// carrying a pre-crash epoch is refused with `kFenced`, so a client that
/// thinks it still holds pre-crash locks learns its grants are void
/// instead of acting on them (and dead clients' locks are simply gone —
/// no key stays wedged).
class MemNodeExecutor {
 public:
  struct Stats {
    uint64_t lookups = 0;
    uint64_t scans = 0;
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t nodes_visited = 0;  ///< B+tree nodes inspected server-side
    uint64_t splits = 0;
    uint64_t acquires = 0;        ///< lock.acquire requests served
    uint64_t grants = 0;
    uint64_t conflicts = 0;       ///< kConflict replies
    uint64_t wounds = 0;          ///< holders wounded by older requesters
    uint64_t wounded_observed = 0;  ///< kWounded replies delivered
    uint64_t fenced = 0;          ///< kFenced replies (stale epoch)
    uint64_t releases = 0;        ///< txns released (incl. piggybacked)
    uint64_t piggybacked_releases = 0;  ///< of which rode another request
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    uint64_t lease_refences = 0;  ///< grant-voiding lease-epoch catch-ups

    bool operator==(const Stats&) const = default;
  };

  /// Registers the `exec.*` handlers on `pool`'s node.
  MemNodeExecutor(Fabric* fabric, MemoryNode* pool);

  /// Makes a tree traversable by this executor; returns its wire id.
  uint32_t RegisterTree(const RemoteBTree::TreeRef& tree);

  NodeId node() const { return pool_->node(); }

  /// Kills the service: the node fails (fabric-level Unavailable) and the
  /// lock table is lost. Deterministic — no timers involved.
  void Crash();

  /// Revives the node, clears the lock table, bumps the epoch.
  void Recover();

  /// Deterministic mid-operation fault injection: after `n` more handler
  /// invocations the executor crashes at the start of the n-th (the request
  /// reached the node, the node died, no reply — and no partial mutation,
  /// so seeded chaos schedules stay exactly checkable). 0 disarms.
  void ScheduleCrashAfter(uint64_t n);

  /// Subordinates the executor's crash-epoch fence to the fleet lease
  /// authority (net/membership.h): whenever the pool node's lease epoch has
  /// advanced — the failure detector revoked the node, possibly for a gray
  /// failure that never crashed it — the next handler invocation voids
  /// every grant and bumps the executor epoch exactly as `Recover()` does,
  /// so clients holding pre-revocation locks get `kFenced`. `nullptr`
  /// (the default) is bit-identical to the unbound executor.
  void BindLeaseAuthority(const LeaseAuthority* authority);

  uint64_t epoch() const;
  size_t active_locks() const;  ///< lock-table entries currently held
  Stats stats() const;

 private:
  struct LockEntry {
    std::set<TxnId> sharers;
    TxnId exclusive = 0;  // 0 = none
  };
  struct TxnState {
    uint64_t epoch = 0;           // epoch of the txn's first grant
    std::vector<uint64_t> keys;   // keys it holds (dedup'd)
  };

  Status HandleIdxGet(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleIdxScan(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleIdxPut(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleIdxDelete(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleLockAcquire(Slice req, std::string* resp,
                           RpcServerContext* sctx);
  Status HandleLockRelease(Slice req, std::string* resp,
                           RpcServerContext* sctx);

  /// Crash-point check shared by every handler, under `mu_`; returns
  /// Unavailable when a scheduled crash fires on this invocation.
  Status CheckAliveLocked();

  /// In one hold of `mu_`: the crash-point check, then `malformed` when the
  /// request did not parse (`!parsed`), then resolves `tree_id` and counts
  /// the request in `op`. Without the lock it then runs `walk` on the
  /// shared B-link walk (`rindex/blink_tree.h`) over a region node store
  /// for that tree, charges the weak CPU per node visited and adds the
  /// store's counters to `nodes_visited_` and `splits_`.
  template <class Walk>
  Status WalkTree(bool parsed, const char* malformed, uint64_t tree_id,
                  uint64_t Stats::*op, RpcServerContext* sctx, Walk&& walk);

  // ---- WOUND_WAIT lock table (all under mu_) ----------------------------
  offload::LockOutcome AcquireLocked(TxnId txn, uint64_t key, uint8_t mode);
  void ReleaseTxnLocked(TxnId txn);

  /// True when `rest` is exactly `npend` fixed64 txn ids: a lock request's
  /// piggybacked release list, validated before any lock is touched.
  static bool IsPendingList(Slice rest, uint64_t npend);
  /// Releases the `npend` txns of a list `IsPendingList` accepted.
  void ReleasePendingLocked(Slice ids, uint64_t npend);

  Fabric* fabric_;
  MemoryNode* pool_;

  mutable std::mutex mu_;
  std::vector<RemoteBTree::TreeRef> trees_;
  std::map<uint64_t, LockEntry> lock_table_;
  std::map<TxnId, TxnState> txns_;
  std::set<TxnId> wounded_;
  uint64_t epoch_ = 1;
  uint64_t crash_after_ = 0;  // 0 = disarmed
  const LeaseAuthority* lease_authority_ = nullptr;  // not owned
  uint64_t lease_epoch_seen_ = 0;  // last lease epoch folded into epoch_
  Stats stats_;  // all but the two below, which `stats()` adds in
  std::atomic<uint64_t> nodes_visited_{0};
  std::atomic<uint64_t> splits_{0};
};

/// Compute-side `LockBackend` speaking to a `MemNodeExecutor`'s lock table.
/// Every acquire/release is one RPC through the full fabric pipeline. The
/// client tracks, per txn, the epoch of its first grant (sent with every
/// later request so post-crash fencing works) and queues releases whose RPC
/// failed, piggybacking them on the next request — a dead or faulted
/// client's locks are cleaned up by its own next contact or by executor
/// recovery, never wedging a key forever.
class OffloadedLockClient : public LockBackend {
 public:
  OffloadedLockClient(Fabric* fabric, NodeId exec_node)
      : fabric_(fabric), node_(exec_node) {}

  Status AcquireLock(NetContext* ctx, TxnId txn, uint64_t key,
                     LockMode mode) override;
  void ReleaseAllLocks(NetContext* ctx, TxnId txn) override;

  size_t pending_releases() const;

 private:
  /// Drains the pending-release queue into `req` (varint count + fixed64
  /// ids); the caller must RestorePending on RPC failure.
  std::vector<TxnId> TakePending();
  void RestorePending(const std::vector<TxnId>& txns);

  Fabric* fabric_;
  NodeId node_;
  mutable std::mutex mu_;
  std::map<TxnId, uint64_t> txn_epoch_;  // first-grant epoch per live txn
  std::vector<TxnId> pending_release_;
};

/// Offloaded index traversal, client side: one `Call` per operation. Free
/// functions so `RemoteBTree`'s offload mode and tests share one encoding
/// without owning an executor pointer (the wire contract is
/// `offload_protocol.h`; only the node id and tree id are needed).
Result<uint64_t> OffloadIndexGet(Fabric* fabric, NetContext* ctx, NodeId node,
                                 uint32_t tree, uint64_t key);
Status OffloadIndexPut(Fabric* fabric, NetContext* ctx, NodeId node,
                       uint32_t tree, uint64_t key, uint64_t value);
Status OffloadIndexDelete(Fabric* fabric, NetContext* ctx, NodeId node,
                          uint32_t tree, uint64_t key);
Result<std::vector<std::pair<uint64_t, uint64_t>>> OffloadIndexScan(
    Fabric* fabric, NetContext* ctx, NodeId node, uint32_t tree, uint64_t from,
    size_t limit);

/// Bundle a registry-built "+offload" engine owns: its private pool node,
/// the executor on it, and the lock client the engine's `TxnManager` is
/// rewired to (mirrors the `AdoptSharedLog` ownership pattern).
class ConcurrencyOffload {
 public:
  explicit ConcurrencyOffload(Fabric* fabric, size_t pool_bytes = 1 << 20)
      : pool_(fabric, "offload-pool", pool_bytes),
        exec_(fabric, &pool_),
        locks_(fabric, pool_.node()) {}

  MemoryNode* pool() { return &pool_; }
  MemNodeExecutor* executor() { return &exec_; }
  OffloadedLockClient* lock_client() { return &locks_; }

 private:
  MemoryNode pool_;
  MemNodeExecutor exec_;
  OffloadedLockClient locks_;
};

}  // namespace disagg

#endif  // DISAGG_MEMNODE_EXECUTOR_H_
