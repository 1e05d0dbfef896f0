#include "rindex/remote_btree.h"

#include <cstddef>
#include <cstring>
#include <span>
#include <thread>

#include "memnode/executor.h"
#include "rindex/blink_tree.h"

namespace disagg {

/// Fabric node store: the one-sided protocol's view of the tree. Every node
/// access is a verb from the compute node, charged to `ctx`.
class RemoteBTree::FabricStore {
 public:
  FabricStore(RemoteBTree* tree, NetContext* ctx) : t_(tree), ctx_(ctx) {}

  Result<uint64_t> Root() {
    return t_->fabric_->ReadAtomic64(ctx_, t_->tree_.root_ptr);
  }
  Status SetRoot(uint64_t offset) {
    return t_->fabric_->Write(ctx_, t_->tree_.root_ptr, &offset, 8);
  }

  /// With optimistic reads, retries torn/in-flight images.
  Status Read(uint64_t offset, BTreeNodeImage* out) {
    for (int retry = 0; retry < kBTreeMaxOptimisticRetries; retry++) {
      DISAGG_RETURN_NOT_OK(
          t_->fabric_->Read(ctx_, NodeAddr(offset), out, kBTreeNodeBytes));
      t_->stats_.reads++;
      if (!t_->options_.optimistic_reads) return Status::OK();
      if (out->version_front == out->version_back &&
          out->version_front % 2 == 0) {
        return Status::OK();
      }
      t_->stats_.optimistic_retries++;
    }
    return Status::Busy("optimistic node read did not stabilize");
  }

  Status DescendRead(uint64_t offset, BTreeNodeImage* out) {
    if (t_->options_.optimistic_reads) return Read(offset, out);
    // Lock coupling: CAS-lock, read, unlock — three round trips per level.
    const uint64_t slot = BTreeLockSlot(offset, lock_slots());
    DISAGG_RETURN_NOT_OK(Lock(slot));
    Status st = Read(offset, out);
    DISAGG_RETURN_NOT_OK(Release(slot));
    return st;
  }

  /// Writes a node image with a bumped version, honoring the batching mode.
  Status Write(uint64_t offset, BTreeNodeImage* node) {
    node->version_front += 2;
    node->version_back = node->version_front;
    t_->stats_.writes++;
    const char* bytes = reinterpret_cast<const char*>(node);
    const GlobalAddr a = NodeAddr(offset);
    if (t_->options_.batched_writes) {
      // Sherman: header, payload, and version tail ride one doorbell.
      const Fabric::WriteOp op{a.remote(), bytes, kBTreeNodeBytes};
      return t_->fabric_->WriteBatch(ctx_, a.node, std::span(&op, 1));
    }
    // Naive: three separate verbs (header+keys, values, tail), three RTTs.
    const size_t head = offsetof(BTreeNodeImage, vals);
    const size_t tail_off = offsetof(BTreeNodeImage, next);
    DISAGG_RETURN_NOT_OK(t_->fabric_->Write(ctx_, a, bytes, head));
    GlobalAddr b = a;
    b.offset += head;
    DISAGG_RETURN_NOT_OK(
        t_->fabric_->Write(ctx_, b, bytes + head, tail_off - head));
    GlobalAddr c = a;
    c.offset += tail_off;
    return t_->fabric_->Write(ctx_, c, bytes + tail_off,
                              kBTreeNodeBytes - tail_off);
  }

  Status Lock(uint64_t slot) {
    for (int spin = 0; spin < kBTreeMaxLockSpins; spin++) {
      auto observed = t_->fabric_->CompareAndSwap(ctx_, LockWord(slot), 0, 1);
      if (!observed.ok()) return observed.status();
      if (*observed == 0) return Status::OK();
      t_->stats_.lock_waits++;
      std::this_thread::yield();
    }
    return Status::Busy("lock acquisition starved");
  }
  void Unlock(uint64_t slot) { (void)Release(slot); }
  uint64_t lock_slots() const { return t_->tree_.lock_slots; }

  Result<uint64_t> Alloc() {
    DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr,
                            t_->slab_.Alloc(ctx_, kBTreeNodeBytes));
    return addr.offset;
  }
  void CountSplit() { t_->stats_.splits++; }

 private:
  GlobalAddr NodeAddr(uint64_t offset) const {
    GlobalAddr a = t_->tree_.root_ptr;
    a.offset = offset;
    return a;
  }
  GlobalAddr LockWord(uint64_t slot) const {
    GlobalAddr a = t_->tree_.lock_table;
    a.offset += slot * 8;
    return a;
  }
  Status Release(uint64_t slot) {
    const uint64_t zero = 0;
    return t_->fabric_->Write(ctx_, LockWord(slot), &zero, 8);
  }

  RemoteBTree* t_;
  NetContext* ctx_;
};

Result<RemoteBTree::TreeRef> RemoteBTree::Create(NetContext* ctx,
                                                 Fabric* fabric,
                                                 MemoryNode* pool) {
  TreeRef ref;
  auto root_ptr = pool->AllocLocal(8);
  if (!root_ptr.ok()) return root_ptr.status();
  ref.root_ptr = *root_ptr;
  ref.lock_slots = 1024;
  auto locks = pool->AllocLocal((ref.lock_slots + 1) * 8);
  if (!locks.ok()) return locks.status();
  ref.lock_table = *locks;

  // Initial empty leaf.
  auto leaf_addr = pool->AllocLocal(kBTreeNodeBytes);
  if (!leaf_addr.ok()) return leaf_addr.status();
  BTreeNodeImage leaf;
  std::memset(&leaf, 0, sizeof(leaf));
  Status st = fabric->Write(ctx, *leaf_addr, &leaf, kBTreeNodeBytes);
  if (!st.ok()) return st;
  const uint64_t off = leaf_addr->offset;
  st = fabric->Write(ctx, ref.root_ptr, &off, 8);
  if (!st.ok()) return st;
  return ref;
}

RemoteBTree::RemoteBTree(Fabric* fabric, MemoryNode* pool, TreeRef tree,
                         Options options)
    : fabric_(fabric),
      tree_(tree),
      options_(std::move(options)),
      slab_(fabric, pool->node()) {}

Status RemoteBTree::Put(NetContext* ctx, uint64_t key, uint64_t value) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexPut(fabric_, ctx, offload_node_, offload_tree_, key,
                           value);
  }
  FabricStore store(this, ctx);
  return BLinkTree<FabricStore>(&store).Put(key, value);
}

Result<uint64_t> RemoteBTree::Get(NetContext* ctx, uint64_t key) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexGet(fabric_, ctx, offload_node_, offload_tree_, key);
  }
  FabricStore store(this, ctx);
  return BLinkTree<FabricStore>(&store).Get(key);
}

Status RemoteBTree::Delete(NetContext* ctx, uint64_t key) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexDelete(fabric_, ctx, offload_node_, offload_tree_, key);
  }
  FabricStore store(this, ctx);
  return BLinkTree<FabricStore>(&store).Delete(key);
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> RemoteBTree::Scan(
    NetContext* ctx, uint64_t from, size_t limit) {
  if (offload_) {
    stats_.offloaded++;
    return OffloadIndexScan(fabric_, ctx, offload_node_, offload_tree_, from,
                            limit);
  }
  FabricStore store(this, ctx);
  return BLinkTree<FabricStore>(&store).Scan(from, limit);
}

}  // namespace disagg
