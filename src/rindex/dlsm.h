#ifndef DISAGG_RINDEX_DLSM_H_
#define DISAGG_RINDEX_DLSM_H_

#include <map>
#include <optional>
#include <vector>

#include "memnode/memory_node.h"

namespace disagg {

/// dLSM-style LSM index for disaggregated memory (Sec. 3.1): a sharded LSM
/// where each shard keeps a small mutable memtable on the COMPUTE side and
/// immutable sorted runs in REMOTE memory. Reproduced optimizations:
///  - sharding: keys hash/range-partition across shards so concurrent
///    clients rarely collide;
///  - software-overhead reduction: reads binary-search remote runs directly
///    with one-sided READs (no server involvement);
///  - remote compaction: merging runs can be OFFLOADED to the memory node
///    ("lsm.compact" RPC), avoiding the 2x transfer of download-merge-upload.
///
/// Entries are fixed 16-byte {key u64, value u64}; value ~0ull is the
/// tombstone.
class DLsmShard {
 public:
  static constexpr uint64_t kTombstone = ~0ull;

  struct Stats {
    uint64_t memtable_hits = 0;
    uint64_t run_probes = 0;    // remote binary-search reads
    uint64_t flushes = 0;
    uint64_t compactions = 0;
  };

  DLsmShard(Fabric* fabric, MemoryNode* pool, size_t memtable_limit);

  Status Put(NetContext* ctx, uint64_t key, uint64_t value);
  Status Delete(NetContext* ctx, uint64_t key);
  Result<uint64_t> Get(NetContext* ctx, uint64_t key);

  /// Seals the memtable into a new remote run (newest first in search
  /// order). Automatic when the memtable limit is hit.
  Status Flush(NetContext* ctx);

  /// Client-driven compaction: download all runs, merge, upload one run.
  Status CompactLocal(NetContext* ctx);
  /// Offloaded compaction: one RPC; the memory node merges in place.
  Status CompactRemote(NetContext* ctx);

  size_t num_runs() const { return runs_.size(); }
  size_t memtable_size() const { return memtable_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Run {
    GlobalAddr addr{};
    uint64_t count = 0;
  };

  Status WriteRun(NetContext* ctx,
                  const std::vector<std::pair<uint64_t, uint64_t>>& entries,
                  Run* out);
  Result<std::optional<uint64_t>> SearchRun(NetContext* ctx, const Run& run,
                                            uint64_t key);
  Status HandleCompact(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_;
  MemoryNode* pool_;
  size_t memtable_limit_;
  RpcMethod compact_method_;  // unique per shard
  std::map<uint64_t, uint64_t> memtable_;
  std::vector<Run> runs_;  // index 0 = oldest
  Stats stats_;
};

/// Hash-sharded front over `n` DLsmShard instances.
class DLsm {
 public:
  DLsm(Fabric* fabric, MemoryNode* pool, size_t shards,
       size_t memtable_limit);

  Status Put(NetContext* ctx, uint64_t key, uint64_t value);
  Status Delete(NetContext* ctx, uint64_t key);
  Result<uint64_t> Get(NetContext* ctx, uint64_t key);

  DLsmShard* shard(size_t i) { return shards_[i].get(); }
  size_t num_shards() const { return shards_.size(); }

 private:
  DLsmShard* ShardFor(uint64_t key) {
    return shards_[(key * 0x9E3779B97F4A7C15ull) % shards_.size()].get();
  }

  std::vector<std::unique_ptr<DLsmShard>> shards_;
};

}  // namespace disagg

#endif  // DISAGG_RINDEX_DLSM_H_
