#ifndef DISAGG_RINDEX_BTREE_LAYOUT_H_
#define DISAGG_RINDEX_BTREE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

namespace disagg {

/// On-pool B+tree node image. POD, memcpy'd wholesale. One walk
/// (`BLinkTree`, `rindex/blink_tree.h`) reads and writes it over two node
/// stores: the one-sided client's fabric verbs (`RemoteBTree`) and the
/// memory-node executor's region-local loads (`MemNodeExecutor`). Both
/// protocols operate on the SAME bytes of a live tree.
struct BTreeNodeImage {
  static constexpr size_t kFanout = 32;

  uint64_t version_front;
  uint32_t level;  // 0 = leaf
  uint32_t nkeys;
  uint64_t keys[kFanout];
  uint64_t vals[kFanout];  // child offsets (internal) or values (leaf)
  uint64_t next;           // right-sibling offset (leaves), 0 = none
  uint64_t version_back;
};

inline constexpr size_t kBTreeNodeBytes = sizeof(BTreeNodeImage);

/// Lock-table slot for a node offset. Slot 0 is the SMO lock; nodes hash
/// into the remaining `lock_slots` words. Shared so the executor's
/// region-local CAS takes exactly the lock word a one-sided client would
/// CAS over the fabric — the two protocols interoperate on live trees.
inline uint64_t BTreeLockSlot(uint64_t node_offset, uint64_t lock_slots) {
  return node_offset == 0
             ? 0
             : 1 + (node_offset * 0x9E3779B97F4A7C15ull) % lock_slots;
}

}  // namespace disagg

#endif  // DISAGG_RINDEX_BTREE_LAYOUT_H_
