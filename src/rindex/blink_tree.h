#ifndef DISAGG_RINDEX_BLINK_TREE_H_
#define DISAGG_RINDEX_BLINK_TREE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rindex/btree_layout.h"

namespace disagg {

/// Bounds shared by every node store, so the one-sided and the offloaded
/// protocol converge or starve under the same conditions.
inline constexpr int kBTreeMaxOptimisticRetries = 64;
inline constexpr int kBTreeMaxLockSpins = 100000;

/// Levels a walk accepts: the root's level must be below this, and each step
/// down lands at least one level lower, so a descent passes at most this
/// many nodes. At fanout 32 that is far more keys than any pool holds.
inline constexpr uint32_t kBTreeMaxDepth = 16;

/// The B-link tree walk over `BTreeNodeImage`s, written once for both
/// placements of the index (Sec. 3.1 vs the near-data offload of Sec. 3.2):
/// `RemoteBTree` runs it over a fabric store (one-sided verbs from the
/// compute node) and `MemNodeExecutor` over a region store (loads, stores
/// and atomics on the memory node itself). Only where the walk runs
/// differs; both read, lock and write the same images in the same order.
///
/// A `Store` supplies, statically dispatched:
///
///   Result<uint64_t> Root();                  // current root offset
///   Status SetRoot(uint64_t offset);          // publish a grown root
///   Status DescendRead(uint64_t offset, BTreeNodeImage* out);
///                                             // one level of the descent
///   Status Read(uint64_t offset, BTreeNodeImage* out);
///                                             // a version-consistent image
///   Status Write(uint64_t offset, BTreeNodeImage* node);
///                                             // bump the version, publish
///   Status Lock(uint64_t slot);               // spin on a lock word
///   void Unlock(uint64_t slot);
///   uint64_t lock_slots() const;
///   Result<uint64_t> Alloc();                 // offset of a fresh node
///   void CountSplit();
///
/// A corrupt image cannot hang the walk: a child whose level is not below
/// its parent's, or a right-sibling chain that leaves level 0 or loops, is
/// `Status::Corruption`.
///
/// Writers lock the leaf's word (`BTreeLockSlot`). Structure modifications
/// (splits, root growth) also hold the SMO lock in slot 0 — a documented
/// simplification of Sherman's hierarchical locking — so only splitters
/// ever write internal nodes. Leaves are never merged.
template <class Store>
class BLinkTree {
 public:
  using Node = BTreeNodeImage;

  explicit BLinkTree(Store* store) : store_(store) {}

  Result<uint64_t> Get(uint64_t key) {
    Node leaf;
    DISAGG_RETURN_NOT_OK(Descend(key, nullptr, &leaf));
    for (uint32_t i = 0; i < leaf.nkeys; i++) {
      if (leaf.keys[i] == key) return leaf.vals[i];
    }
    return Status::NotFound("key not in tree");
  }

  /// Ascending scan of up to `limit` pairs with key >= `from`.
  Result<std::vector<std::pair<uint64_t, uint64_t>>> Scan(uint64_t from,
                                                          size_t limit) {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    Node leaf;
    DISAGG_RETURN_NOT_OK(Descend(from, nullptr, &leaf));
    while (out.size() < limit) {
      for (uint32_t i = 0; i < leaf.nkeys && out.size() < limit; i++) {
        if (leaf.keys[i] >= from) out.emplace_back(leaf.keys[i], leaf.vals[i]);
      }
      if (leaf.next == 0 || out.size() >= limit) break;
      DISAGG_RETURN_NOT_OK(store_->Read(leaf.next, &leaf));
    }
    return out;
  }

  Status Put(uint64_t key, uint64_t value) {
    Path path;
    Node leaf;
    DISAGG_RETURN_NOT_OK(Descend(key, &path, &leaf));
    const uint64_t leaf_off = path.leaf();
    bool full = false;
    DISAGG_RETURN_NOT_OK(Locked(LeafSlot(leaf_off), [&]() -> Status {
      // Re-read under the lock (the image may have changed since the descent).
      DISAGG_RETURN_NOT_OK(store_->Read(leaf_off, &leaf));
      full = !Upsert(&leaf, key, value);
      return full ? Status::OK() : store_->Write(leaf_off, &leaf);
    }));
    return full ? InsertWithSplit(key, value) : Status::OK();
  }

  Status Delete(uint64_t key) {
    Path path;
    Node leaf;
    DISAGG_RETURN_NOT_OK(Descend(key, &path, &leaf));
    const uint64_t leaf_off = path.leaf();
    return Locked(LeafSlot(leaf_off), [&]() -> Status {
      DISAGG_RETURN_NOT_OK(store_->Read(leaf_off, &leaf));
      for (uint32_t i = 0; i < leaf.nkeys; i++) {
        if (leaf.keys[i] == key) {
          for (uint32_t j = i; j + 1 < leaf.nkeys; j++) {
            leaf.keys[j] = leaf.keys[j + 1];
            leaf.vals[j] = leaf.vals[j + 1];
          }
          leaf.nkeys--;  // no merging: leaves may run underfull, as in Sherman
          return store_->Write(leaf_off, &leaf);
        }
      }
      return Status::NotFound("key not in tree");
    });
  }

 private:
  static constexpr uint32_t kFanout = Node::kFanout;
  static constexpr uint64_t kSmoSlot = 0;

  /// Offsets of the nodes a descent passed, root first, leaf last. Inline:
  /// `Descend` bounds its length by `kBTreeMaxDepth`.
  struct Path {
    uint64_t offsets[kBTreeMaxDepth] = {};
    uint32_t size = 0;

    uint64_t leaf() const { return offsets[size - 1]; }
  };

  uint64_t LeafSlot(uint64_t offset) const {
    return BTreeLockSlot(offset, store_->lock_slots());
  }

  /// Runs `fn` holding lock word `slot`; a starved acquire skips `fn`.
  template <class Fn>
  Status Locked(uint64_t slot, Fn&& fn) {
    DISAGG_RETURN_NOT_OK(store_->Lock(slot));
    Status st = fn();
    store_->Unlock(slot);
    return st;
  }

  /// Descends to the leaf that owns `key`, recording the path (offsets).
  Status Descend(uint64_t key, Path* path, Node* leaf) {
    DISAGG_ASSIGN_OR_RETURN(uint64_t offset, store_->Root());
    uint32_t above = kBTreeMaxDepth;  // the level the next node must be below
    while (true) {
      DISAGG_RETURN_NOT_OK(store_->DescendRead(offset, leaf));
      if (leaf->level >= above) {
        return Status::Corruption("B-link node not below its parent");
      }
      above = leaf->level;
      if (path != nullptr) path->offsets[path->size++] = offset;
      if (leaf->level == 0) return MoveRight(key, path, offset, leaf);
      // Internal: route to the last child whose separator <= key.
      uint32_t idx = 0;
      while (idx + 1 < leaf->nkeys && leaf->keys[idx + 1] <= key) idx++;
      offset = leaf->vals[idx];
    }
  }

  /// B-link step: a concurrent split may have moved `key` right of the leaf
  /// at `offset`. A sound chain only leads right, so meeting an offset again
  /// is a corrupt loop; Brent's check finds one with a single marker, moved
  /// ahead at doubling intervals.
  Status MoveRight(uint64_t key, Path* path, uint64_t offset, Node* leaf) {
    uint64_t marker = offset, since_marker = 0, interval = 1;
    while (leaf->nkeys > 0 && key > leaf->keys[leaf->nkeys - 1] &&
           leaf->next != 0) {
      offset = leaf->next;
      if (offset == marker) {
        return Status::Corruption("B-link sibling chain loops");
      }
      if (++since_marker == interval) {
        marker = offset;
        since_marker = 0;
        interval *= 2;
      }
      if (path != nullptr) path->offsets[path->size - 1] = offset;
      DISAGG_RETURN_NOT_OK(store_->Read(offset, leaf));
      if (leaf->level != 0) {
        return Status::Corruption("B-link sibling is not a leaf");
      }
    }
    return Status::OK();
  }

  /// Sorted insert into a node with room.
  static void InsertSorted(Node* n, uint64_t key, uint64_t value) {
    uint32_t pos = 0;
    while (pos < n->nkeys && n->keys[pos] < key) pos++;
    for (uint32_t i = n->nkeys; i > pos; i--) {
      n->keys[i] = n->keys[i - 1];
      n->vals[i] = n->vals[i - 1];
    }
    n->keys[pos] = key;
    n->vals[pos] = value;
    n->nkeys++;
  }

  /// Updates `key` in place or inserts it; false when the leaf is full.
  static bool Upsert(Node* leaf, uint64_t key, uint64_t value) {
    for (uint32_t i = 0; i < leaf->nkeys; i++) {
      if (leaf->keys[i] == key) {
        leaf->vals[i] = value;
        return true;
      }
    }
    if (leaf->nkeys >= kFanout) return false;
    InsertSorted(leaf, key, value);
    return true;
  }

  /// Split path under the SMO lock.
  Status InsertWithSplit(uint64_t key, uint64_t value) {
    return Locked(kSmoSlot, [&]() -> Status {
      Path path;
      Node leaf;
      DISAGG_RETURN_NOT_OK(Descend(key, &path, &leaf));
      const uint64_t leaf_off = path.leaf();
      return Locked(LeafSlot(leaf_off), [&]() -> Status {
        DISAGG_RETURN_NOT_OK(store_->Read(leaf_off, &leaf));
        // Room may have appeared (or the key may exist) after a racing op.
        if (Upsert(&leaf, key, value)) return store_->Write(leaf_off, &leaf);
        uint64_t sep = key, child = value;
        DISAGG_RETURN_NOT_OK(SplitInsert(leaf_off, &leaf, &sep, &child));
        // Propagate the separator up the path.
        for (uint32_t depth = path.size - 1; depth-- > 0;) {
          const uint64_t parent_off = path.offsets[depth];
          Node parent;
          DISAGG_RETURN_NOT_OK(store_->Read(parent_off, &parent));
          if (parent.nkeys < kFanout) {
            InsertSorted(&parent, sep, child);
            return store_->Write(parent_off, &parent);
          }
          DISAGG_RETURN_NOT_OK(SplitInsert(parent_off, &parent, &sep, &child));
        }
        return GrowRoot(path.offsets[0], sep, child);
      });
    });
  }

  /// Splits the full node `left` at `offset`, inserts (`*key`, `*value`)
  /// into whichever half owns it and publishes both halves. On return the
  /// pair is the separator and offset the parent must take in.
  Status SplitInsert(uint64_t offset, Node* left, uint64_t* key,
                     uint64_t* value) {
    store_->CountSplit();
    DISAGG_ASSIGN_OR_RETURN(uint64_t right_off, store_->Alloc());
    Node right;
    std::memset(&right, 0, sizeof(right));
    constexpr uint32_t kHalf = kFanout / 2;
    right.level = left->level;
    right.nkeys = kFanout - kHalf;
    std::memcpy(right.keys, left->keys + kHalf, right.nkeys * 8);
    std::memcpy(right.vals, left->vals + kHalf, right.nkeys * 8);
    if (left->level == 0) {  // only leaves are chained right
      right.next = left->next;
      left->next = right_off;
    }
    left->nkeys = kHalf;
    InsertSorted(*key >= right.keys[0] ? &right : left, *key, *value);
    // Publish right first, then the shrunk left (B-link ordering).
    DISAGG_RETURN_NOT_OK(store_->Write(right_off, &right));
    DISAGG_RETURN_NOT_OK(store_->Write(offset, left));
    *key = right.keys[0];
    *value = right_off;
    return Status::OK();
  }

  /// The root itself split: a new root takes both halves.
  Status GrowRoot(uint64_t old_root_off, uint64_t sep, uint64_t child) {
    DISAGG_ASSIGN_OR_RETURN(uint64_t root_off, store_->Alloc());
    Node old_root;
    DISAGG_RETURN_NOT_OK(store_->Read(old_root_off, &old_root));
    Node root;
    std::memset(&root, 0, sizeof(root));
    root.level = old_root.level + 1;
    root.nkeys = 2;
    root.keys[0] = 0;  // leftmost separator: minus infinity
    root.vals[0] = old_root_off;
    root.keys[1] = sep;
    root.vals[1] = child;
    DISAGG_RETURN_NOT_OK(store_->Write(root_off, &root));
    return store_->SetRoot(root_off);
  }

  Store* store_;
};

}  // namespace disagg

#endif  // DISAGG_RINDEX_BLINK_TREE_H_
