#ifndef DISAGG_RINDEX_REMOTE_BTREE_H_
#define DISAGG_RINDEX_REMOTE_BTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "memnode/memory_node.h"
#include "rindex/btree_layout.h"
#include "rindex/client_slab.h"

namespace disagg {

/// B+tree on disaggregated memory, configurable to act as either of the two
/// designs the paper contrasts (Sec. 3.1):
///
///  - **Sherman-style** (`Sherman()`): optimistic version-validated reads
///    (no locks, one READ per level) and write-combining via doorbell
///    batching; writers coordinate through a lock table emulating Sherman's
///    on-NIC lock words.
///  - **Lock-coupling** (`LockCoupling()`, Ziegler et al.): every traversal
///    step acquires the node's lock — correct but three round trips
///    (CAS + READ + unlock WRITE) per level for reads too.
///
/// Keys and values are uint64_t. Structure modifications (splits, root
/// growth) serialize on a single SMO lock — a documented simplification of
/// Sherman's hierarchical locking that leaves the measured read/write paths
/// faithful.
///
/// The walk itself (descent with the B-link step, splits, separator
/// propagation, root growth) is `BLinkTree` in `rindex/blink_tree.h`; this
/// class supplies only its fabric node store. `MemNodeExecutor` runs the
/// same walk over a region store on the memory node (`EnableOffload`).
class RemoteBTree {
 public:
  struct Options {
    bool optimistic_reads = true;
    bool batched_writes = true;
    std::string name = "sherman";

    static Options Sherman() { return Options{true, true, "sherman"}; }
    static Options LockCoupling() {
      return Options{false, false, "lock-coupling"};
    }
  };

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t optimistic_retries = 0;
    uint64_t lock_waits = 0;
    uint64_t splits = 0;
    uint64_t offloaded = 0;  ///< operations shipped to the memory-node
                             ///< executor instead of traversed one-sided
  };

  /// Shared handle to a tree (created once, attached by any client).
  struct TreeRef {
    GlobalAddr root_ptr{};    // 8-byte word holding the root node offset
    GlobalAddr lock_table{};  // array of lock words
    uint64_t lock_slots = 0;
  };

  static Result<TreeRef> Create(NetContext* ctx, Fabric* fabric,
                                MemoryNode* pool);

  RemoteBTree(Fabric* fabric, MemoryNode* pool, TreeRef tree, Options options);

  Status Put(NetContext* ctx, uint64_t key, uint64_t value);
  Result<uint64_t> Get(NetContext* ctx, uint64_t key);
  Status Delete(NetContext* ctx, uint64_t key);

  /// Ascending scan of up to `limit` pairs with key >= `from`.
  Result<std::vector<std::pair<uint64_t, uint64_t>>> Scan(NetContext* ctx,
                                                          uint64_t from,
                                                          size_t limit);

  /// Switches this handle to near-data mode: every Put/Get/Delete/Scan
  /// becomes one `exec.idx.*` RPC to the `MemNodeExecutor` at `exec_node`
  /// that registered this tree as `tree_id` — one fabric round trip per
  /// operation instead of O(depth) one-sided verbs. The executor walks and
  /// mutates the SAME region bytes under the SAME lock words, so offloaded
  /// and one-sided handles interoperate on a live tree. Unconfigured
  /// handles take the one-sided paths untouched (bit-identical behavior
  /// and counters to a build without the executor).
  void EnableOffload(NodeId exec_node, uint32_t tree_id) {
    offload_ = true;
    offload_node_ = exec_node;
    offload_tree_ = tree_id;
  }
  bool offload_enabled() const { return offload_; }

  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  /// The one-sided node store the shared B-link walk runs over
  /// (`rindex/blink_tree.h`); defined in remote_btree.cc.
  class FabricStore;

  Fabric* fabric_;
  TreeRef tree_;
  Options options_;
  ClientSlab slab_;
  Stats stats_;
  bool offload_ = false;
  NodeId offload_node_ = 0;
  uint32_t offload_tree_ = 0;
};

}  // namespace disagg

#endif  // DISAGG_RINDEX_REMOTE_BTREE_H_
