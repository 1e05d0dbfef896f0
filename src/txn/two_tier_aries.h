#ifndef DISAGG_TXN_TWO_TIER_ARIES_H_
#define DISAGG_TXN_TWO_TIER_ARIES_H_

#include <map>

#include "memnode/memory_node.h"
#include "memnode/page_source.h"
#include "txn/recovery.h"
#include "txn/wal.h"

namespace disagg {

/// LegoBase's two-tier ARIES (Sec. 3.1): checkpoints are taken to BOTH the
/// remote-memory pool (fast tier, survives compute crashes but not pool
/// crashes) and disaggregated storage (slow durable tier). After a compute
/// crash, recovery restarts from the remote-memory checkpoint and replays a
/// short log tail; only if the memory pool is also gone does it fall back to
/// the storage checkpoint with a longer replay.
class TwoTierAries {
 public:
  struct CheckpointMeta {
    Lsn lsn = kInvalidLsn;
    std::map<PageId, GlobalAddr> remote_pages;  // remote-memory tier
    bool remote_valid = false;
  };

  TwoTierAries(Fabric* fabric, MemoryNode* pool, PageSource* storage,
               LogBackend* log);

  /// Checkpoints `pages` (the dirty working set) at `lsn` to both tiers.
  Status Checkpoint(NetContext* ctx, const std::map<PageId, Page>& pages,
                    Lsn lsn);

  /// Recovers after a compute-node crash. Reads the newest usable
  /// checkpoint (remote memory if alive, else storage), replays the log
  /// tail, returns recovered pages. `used_remote` reports which tier served.
  Result<AriesRecovery::Outcome> Recover(NetContext* ctx, bool* used_remote);

  /// Simulates losing the memory pool too (power loss in the pool rack).
  void InvalidateRemoteTier() { meta_.remote_valid = false; }

  Lsn checkpoint_lsn() const { return meta_.lsn; }

 private:
  Fabric* fabric_;
  MemoryNode* pool_;
  PageSource* storage_;
  LogBackend* log_;
  CheckpointMeta meta_;
  std::map<PageId, Page> storage_checkpoint_;  // ids checkpointed to storage
  Lsn storage_checkpoint_lsn_ = kInvalidLsn;
};

}  // namespace disagg

#endif  // DISAGG_TXN_TWO_TIER_ARIES_H_
