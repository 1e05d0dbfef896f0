#ifndef DISAGG_MEMNODE_MEMORY_NODE_H_
#define DISAGG_MEMNODE_MEMORY_NODE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"

namespace disagg {

/// A memory-pool node (Sec. 3): a large registered region served by a wimpy
/// CPU. Compute nodes access the region with one-sided verbs; an RPC
/// ("mem.alloc") provides shared allocation so multiple compute nodes can
/// carve the pool without coordinating among themselves.
///
/// The allocator is a bump allocator with per-size-class free lists —
/// remote-friendly because an alloc is a single RPC and no compaction ever
/// moves data under a remote pointer. Only co-located services free
/// (`FreeLocal`): no RPC hands an offset back to the pool.
class MemoryNode {
 public:
  /// Creates the node, its backing region, and the allocator RPC handlers.
  MemoryNode(Fabric* fabric, const std::string& name, size_t capacity_bytes,
             InterconnectModel model = InterconnectModel::Rdma());

  NodeId node() const { return node_; }
  uint32_t region() const { return region_->id(); }
  size_t capacity() const { return region_->size(); }
  size_t allocated_bytes() const;

  /// Server-side (no network) allocation for services co-located with the
  /// memory node.
  Result<GlobalAddr> AllocLocal(size_t bytes);
  Status FreeLocal(GlobalAddr addr, size_t bytes);

  /// Address of a raw offset in the pool region.
  GlobalAddr at(uint64_t offset) const {
    return GlobalAddr{node_, region_->id(), offset};
  }

  /// This pool node's NIC/link budget for the shared-resource congestion
  /// model (Farview sizes its far-memory NIC the same way): service
  /// bandwidth equals the node's interconnect bandwidth, and `ns_per_op`
  /// is the per-message issue overhead (default 100 ns ~ 10 M msgs/s).
  /// Pass the result into a `CongestionConfig` and
  /// `Fabric::EnableCongestion()` to make this node a contended resource.
  ResourceCapacity ServiceCapacity(uint64_t ns_per_op = 100) const;

 private:
  Status HandleAlloc(Slice req, std::string* resp, RpcServerContext* sctx);

  static size_t SizeClass(size_t bytes);

  Fabric* fabric_;
  NodeId node_ = 0;
  MemoryRegion* region_ = nullptr;
  mutable std::mutex mu_;
  uint64_t bump_ = 64;  // offset 0 is reserved as the null address
  uint64_t allocated_ = 0;
  std::map<size_t, std::vector<uint64_t>> free_lists_;  // size class → offsets
};

/// Compute-side allocator client for a MemoryNode.
class RemoteAllocator {
 public:
  RemoteAllocator(Fabric* fabric, NodeId node) : fabric_(fabric), node_(node) {}

  Result<GlobalAddr> Alloc(NetContext* ctx, size_t bytes);

 private:
  Fabric* fabric_;
  NodeId node_;
};

}  // namespace disagg

#endif  // DISAGG_MEMNODE_MEMORY_NODE_H_
