#ifndef DISAGG_PM_FORD_TXN_H_
#define DISAGG_PM_FORD_TXN_H_

#include <map>
#include <string>
#include <vector>

#include "pm/pm_node.h"

namespace disagg {

/// FORD-style fast one-sided distributed transactions on disaggregated
/// persistent memory (Sec. 2.3 reference [50]): compute nodes run OCC
/// transactions over records spread across PM nodes using ONLY one-sided
/// verbs — no PM-server CPU on the transaction path.
///
/// Record layout on PM (fixed slots): {lock u64, version u64, value[]}.
/// Protocol:
///   read phase    : one-sided READ of {lock, version, value}; buffered.
///   lock phase    : CAS each write-set record's lock 0->txn_id (parallel).
///   validate      : re-READ versions of the read set; any change -> abort.
///   write+persist : one-sided WRITE of new {version+1, value}, then ONE
///                   flush-read per PM node covers all its writes (FORD's
///                   batched persistence), then unlock CAS.
/// Aborts and fabric errors in the lock or validate phase release acquired
/// locks. Everything is charged one-sided costs.
class FordTxnManager {
 public:
  static constexpr size_t kValueBytes = 40;
  static constexpr size_t kRecordBytes = 16 + kValueBytes;

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts_lock = 0;      // lost a lock CAS
    uint64_t aborts_validate = 0;  // version changed under us
  };

  /// Creates `records_per_node` fixed record slots on each PM node.
  FordTxnManager(Fabric* fabric, std::vector<PmNode*> pm_nodes,
                 size_t records_per_node);

  size_t record_count() const { return record_addrs_.size(); }

  /// A transaction handle accumulating read/write sets.
  class Txn {
   public:
    /// Reads record `rid`; returns its current value bytes.
    Result<std::string> Read(uint64_t rid);
    /// Stages a write of record `rid` (must fit kValueBytes).
    Status Write(uint64_t rid, const std::string& value);
    /// OCC commit; Aborted on conflict (caller may retry).
    Status Commit();
    /// Releases any state without applying writes.
    void Abort();

   private:
    friend class FordTxnManager;
    Txn(FordTxnManager* mgr, NetContext* ctx, uint64_t id)
        : mgr_(mgr), ctx_(ctx), id_(id) {}

    FordTxnManager* mgr_;
    NetContext* ctx_;
    uint64_t id_;
    std::map<uint64_t, uint64_t> read_versions_;
    std::map<uint64_t, std::string> writes_;
    bool finished_ = false;
  };

  Txn Begin(NetContext* ctx) { return Txn(this, ctx, next_txn_id_++); }

  /// Direct (non-transactional) read for verification in tests.
  Result<std::string> ReadCommitted(NetContext* ctx, uint64_t rid);

  const Stats& stats() const { return stats_; }

  /// Address of record `rid`'s slot; its first word is the lock word.
  GlobalAddr AddrOf(uint64_t rid) const { return record_addrs_[rid]; }

 private:
  friend class Txn;

  PmNode* NodeOf(uint64_t rid) const { return record_nodes_[rid]; }

  Fabric* fabric_;
  std::vector<PmNode*> pm_nodes_;
  std::vector<GlobalAddr> record_addrs_;
  std::vector<PmNode*> record_nodes_;
  uint64_t next_txn_id_ = 1;
  Stats stats_;
};

}  // namespace disagg

#endif  // DISAGG_PM_FORD_TXN_H_
