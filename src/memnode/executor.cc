#include "memnode/executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/coding.h"
#include "net/membership.h"
#include "rindex/blink_tree.h"

namespace disagg {

using offload::LockOutcome;

MemNodeExecutor::MemNodeExecutor(Fabric* fabric, MemoryNode* pool)
    : fabric_(fabric), pool_(pool) {
  Node* n = fabric_->node(pool_->node());
  n->RegisterHandler(offload::kIdxGet,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleIdxGet(req, resp, sctx);
                     });
  n->RegisterHandler(offload::kIdxScan,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleIdxScan(req, resp, sctx);
                     });
  n->RegisterHandler(offload::kIdxPut,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleIdxPut(req, resp, sctx);
                     });
  n->RegisterHandler(offload::kIdxDelete,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleIdxDelete(req, resp, sctx);
                     });
  n->RegisterHandler(offload::kLockAcquire,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleLockAcquire(req, resp, sctx);
                     });
  n->RegisterHandler(offload::kLockRelease,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleLockRelease(req, resp, sctx);
                     });
}

uint32_t MemNodeExecutor::RegisterTree(const RemoteBTree::TreeRef& tree) {
  std::lock_guard<std::mutex> lock(mu_);
  trees_.push_back(tree);
  return static_cast<uint32_t>(trees_.size() - 1);
}

void MemNodeExecutor::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  fabric_->node(pool_->node())->Fail();
  crash_after_ = 0;
  stats_.crashes++;
}

void MemNodeExecutor::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  fabric_->node(pool_->node())->Revive();
  // The executor's DRAM state (the lock table) died with it; the pool
  // region — the disaggregated memory — survives. Epoch bump fences every
  // grant the previous incarnation issued.
  lock_table_.clear();
  txns_.clear();
  wounded_.clear();
  epoch_++;
  stats_.recoveries++;
  // Recovery observes the current lease so the lazy re-fence in
  // CheckAliveLocked does not bump the epoch a second time for the same
  // incident.
  if (lease_authority_ != nullptr) {
    lease_epoch_seen_ = lease_authority_->LeaseEpoch(pool_->node());
  }
}

void MemNodeExecutor::BindLeaseAuthority(const LeaseAuthority* authority) {
  const uint64_t seen =
      authority == nullptr ? 0 : authority->LeaseEpoch(pool_->node());
  std::lock_guard<std::mutex> lock(mu_);
  lease_authority_ = authority;
  lease_epoch_seen_ = seen;
}

void MemNodeExecutor::ScheduleCrashAfter(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_after_ = n;
}

uint64_t MemNodeExecutor::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t MemNodeExecutor::active_locks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lock_table_.size();
}

MemNodeExecutor::Stats MemNodeExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.nodes_visited += nodes_visited_.load(std::memory_order_relaxed);
  s.splits += splits_.load(std::memory_order_relaxed);
  return s;
}

Status MemNodeExecutor::CheckAliveLocked() {
  if (lease_authority_ != nullptr) {
    const uint64_t lease_epoch = lease_authority_->LeaseEpoch(pool_->node());
    if (lease_epoch > lease_epoch_seen_) {
      // The fleet revoked this node's lease since we last looked (gray
      // failure: the node may never have crashed hard). Every grant issued
      // under the old lease is void — same state transition as Recover(),
      // without touching node liveness: stale clients get kFenced.
      lock_table_.clear();
      txns_.clear();
      wounded_.clear();
      epoch_++;
      lease_epoch_seen_ = lease_epoch;
      stats_.lease_refences++;
    }
  }
  if (crash_after_ > 0 && --crash_after_ == 0) {
    fabric_->node(pool_->node())->Fail();
    stats_.crashes++;
    return Status::Unavailable("memory-node executor crashed mid-operation");
  }
  return Status::OK();
}

// ---- Region node store ------------------------------------------------------

namespace {

/// The offloaded protocol's view of the tree: the memory node's own loads,
/// stores and atomics on the pool region. It issues no fabric verbs
/// (handlers must not re-enter the pipeline; see the fabric-bypass rule in
/// DESIGN.md). It counts the nodes it inspects and the splits it makes; the
/// handler charges the visits and adds both to the executor's counters.
class RegionStore {
 public:
  RegionStore(MemoryNode* pool, char* base, const RemoteBTree::TreeRef& tree)
      : pool_(pool), base_(base), tree_(tree) {}

  Result<uint64_t> Root() {
    return Word(tree_.root_ptr.offset)->load(std::memory_order_acquire);
  }
  Status SetRoot(uint64_t offset) {
    Word(tree_.root_ptr.offset)->store(offset, std::memory_order_release);
    return Status::OK();
  }

  Status Read(uint64_t offset, BTreeNodeImage* out) {
    visited++;
    for (int retry = 0; retry < kBTreeMaxOptimisticRetries; retry++) {
      std::memcpy(out, base_ + offset, kBTreeNodeBytes);
      if (out->version_front == out->version_back &&
          out->version_front % 2 == 0) {
        return Status::OK();
      }
      std::this_thread::yield();
    }
    // A torn image can only persist under a concurrent one-sided writer that
    // died mid-write; accept the last copy (writers hold the lock word, so
    // server-side mutations never observe this).
    return Status::OK();
  }
  Status DescendRead(uint64_t offset, BTreeNodeImage* out) {
    return Read(offset, out);
  }

  Status Write(uint64_t offset, BTreeNodeImage* node) {
    node->version_front += 2;
    node->version_back = node->version_front;
    std::memcpy(base_ + offset, node, kBTreeNodeBytes);
    return Status::OK();
  }

  /// Spins on the shared lock word via region-local atomics (interoperates
  /// with one-sided CAS); Busy on starvation, per the status contract.
  Status Lock(uint64_t slot) {
    for (int spin = 0; spin < kBTreeMaxLockSpins; spin++) {
      uint64_t expected = 0;
      if (LockWord(slot)->compare_exchange_strong(expected, 1,
                                                 std::memory_order_acq_rel)) {
        return Status::OK();
      }
      std::this_thread::yield();
    }
    return Status::Busy("lock acquisition starved");
  }
  void Unlock(uint64_t slot) {
    LockWord(slot)->store(0, std::memory_order_release);
  }
  uint64_t lock_slots() const { return tree_.lock_slots; }

  /// Allocation is a local call: the allocator is co-located with the
  /// executor — the near-data win.
  Result<uint64_t> Alloc() {
    DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr,
                            pool_->AllocLocal(kBTreeNodeBytes));
    return addr.offset;
  }
  void CountSplit() { splits++; }

  uint64_t visited = 0;
  uint64_t splits = 0;

 private:
  std::atomic<uint64_t>* Word(uint64_t offset) const {
    return reinterpret_cast<std::atomic<uint64_t>*>(base_ + offset);
  }
  std::atomic<uint64_t>* LockWord(uint64_t slot) const {
    return Word(tree_.lock_table.offset + slot * 8);
  }

  MemoryNode* pool_;
  char* base_;
  RemoteBTree::TreeRef tree_;
};

}  // namespace

// ---- Index handlers --------------------------------------------------------

template <class Walk>
Status MemNodeExecutor::WalkTree(bool parsed, const char* malformed,
                                 uint64_t tree_id, uint64_t Stats::*op,
                                 RpcServerContext* sctx, Walk&& walk) {
  RemoteBTree::TreeRef tree;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DISAGG_RETURN_NOT_OK(CheckAliveLocked());
    if (!parsed) return Status::InvalidArgument(malformed);
    if (tree_id >= trees_.size()) {
      return Status::InvalidArgument("unknown tree id");
    }
    tree = trees_[tree_id];
    stats_.*op += 1;
  }
  char* base =
      fabric_->node(tree.root_ptr.node)->region(tree.root_ptr.region)->data();
  RegionStore store(pool_, base, tree);
  BLinkTree<RegionStore> index(&store);
  Status st = walk(index);
  sctx->ChargeCompute(offload::kDispatchNs +
                      offload::kNodeVisitNs * store.visited);
  nodes_visited_.fetch_add(store.visited, std::memory_order_relaxed);
  splits_.fetch_add(store.splits, std::memory_order_relaxed);
  return st;
}

// Each handler parses its request before taking `mu_`; `WalkTree` reports a
// malformed one only after the crash-point check, so every invocation,
// well formed or not, counts toward `ScheduleCrashAfter`.

Status MemNodeExecutor::HandleIdxGet(Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
  uint64_t tree_id = 0, key = 0;
  const bool parsed = GetVarint64(&req, &tree_id) && GetFixed64(&req, &key);
  return WalkTree(parsed, "malformed exec.idx.get", tree_id, &Stats::lookups,
                  sctx, [&](auto& index) -> Status {
                    DISAGG_ASSIGN_OR_RETURN(uint64_t value, index.Get(key));
                    PutFixed64(resp, value);
                    return Status::OK();
                  });
}

Status MemNodeExecutor::HandleIdxScan(Slice req, std::string* resp,
                                      RpcServerContext* sctx) {
  uint64_t tree_id = 0, from = 0, limit = 0;
  const bool parsed = GetVarint64(&req, &tree_id) &&
                      GetFixed64(&req, &from) && GetVarint64(&req, &limit);
  return WalkTree(parsed, "malformed exec.idx.scan", tree_id, &Stats::scans,
                  sctx, [&](auto& index) -> Status {
                    DISAGG_ASSIGN_OR_RETURN(auto out, index.Scan(from, limit));
                    sctx->ChargeCompute(offload::kEntryNs * out.size());
                    PutVarint64(resp, out.size());
                    for (const auto& [k, v] : out) {
                      PutFixed64(resp, k);
                      PutFixed64(resp, v);
                    }
                    return Status::OK();
                  });
}

Status MemNodeExecutor::HandleIdxPut(Slice req, std::string* /*resp*/,
                                     RpcServerContext* sctx) {
  uint64_t tree_id = 0, key = 0, value = 0;
  const bool parsed = GetVarint64(&req, &tree_id) && GetFixed64(&req, &key) &&
                      GetFixed64(&req, &value);
  return WalkTree(parsed, "malformed exec.idx.put", tree_id, &Stats::inserts,
                  sctx, [&](auto& index) { return index.Put(key, value); });
}

Status MemNodeExecutor::HandleIdxDelete(Slice req, std::string* /*resp*/,
                                        RpcServerContext* sctx) {
  uint64_t tree_id = 0, key = 0;
  const bool parsed = GetVarint64(&req, &tree_id) && GetFixed64(&req, &key);
  return WalkTree(parsed, "malformed exec.idx.del", tree_id, &Stats::deletes,
                  sctx, [&](auto& index) { return index.Delete(key); });
}

// ---- WOUND_WAIT lock table -------------------------------------------------

LockOutcome MemNodeExecutor::AcquireLocked(TxnId txn, uint64_t key,
                                           uint8_t mode) {
  LockEntry& e = lock_table_[key];
  auto track = [&](bool newly_held) {
    TxnState& ts = txns_[txn];
    if (ts.epoch == 0) ts.epoch = epoch_;
    if (newly_held) ts.keys.push_back(key);
    stats_.grants++;
  };
  // WOUND_WAIT: age is the TxnId (monotonic from Begin — lower = older).
  // An older requester wounds every younger conflicting holder and then
  // waits (Busy-retry here: no blocking on an RPC server); a younger
  // requester just waits. The oldest live txn is never wounded, so some
  // txn always makes progress — no deadlock, no wedge.
  auto conflict_with = [&](const std::vector<TxnId>& holders) {
    stats_.conflicts++;
    for (TxnId h : holders) {
      if (txn < h && wounded_.insert(h).second) stats_.wounds++;
    }
    if (lock_table_[key].sharers.empty() && lock_table_[key].exclusive == 0) {
      lock_table_.erase(key);
    }
    return LockOutcome::kConflict;
  };

  if (mode == offload::kModeShared) {
    if (e.exclusive != 0 && e.exclusive != txn) {
      return conflict_with({e.exclusive});
    }
    track(e.sharers.insert(txn).second);
    return LockOutcome::kGranted;
  }
  // Exclusive.
  if (e.exclusive != 0) {
    if (e.exclusive == txn) {
      stats_.grants++;
      return LockOutcome::kGranted;
    }
    return conflict_with({e.exclusive});
  }
  std::vector<TxnId> others;
  for (TxnId sharer : e.sharers) {
    if (sharer != txn) others.push_back(sharer);
  }
  if (!others.empty()) return conflict_with(others);
  const bool newly_held = e.sharers.erase(txn) == 0;
  e.exclusive = txn;
  track(newly_held);
  return LockOutcome::kGranted;
}

void MemNodeExecutor::ReleaseTxnLocked(TxnId txn) {
  auto it = txns_.find(txn);
  if (it != txns_.end()) {
    for (uint64_t key : it->second.keys) {
      auto te = lock_table_.find(key);
      if (te == lock_table_.end()) continue;
      te->second.sharers.erase(txn);
      if (te->second.exclusive == txn) te->second.exclusive = 0;
      if (te->second.sharers.empty() && te->second.exclusive == 0) {
        lock_table_.erase(te);
      }
    }
    txns_.erase(it);
  }
  wounded_.erase(txn);
  stats_.releases++;
}

bool MemNodeExecutor::IsPendingList(Slice rest, uint64_t npend) {
  // Divides instead of multiplying, so a hostile count cannot overflow.
  return rest.size() % 8 == 0 && npend == rest.size() / 8;
}

void MemNodeExecutor::ReleasePendingLocked(Slice ids, uint64_t npend) {
  for (uint64_t i = 0; i < npend; i++) {
    ReleaseTxnLocked(DecodeFixed64(ids.data() + 8 * i));
    stats_.piggybacked_releases++;
  }
}

Status MemNodeExecutor::HandleLockAcquire(Slice req, std::string* resp,
                                          RpcServerContext* sctx) {
  std::lock_guard<std::mutex> lock(mu_);
  DISAGG_RETURN_NOT_OK(CheckAliveLocked());
  uint64_t req_epoch = 0, txn = 0, key = 0, npend = 0;
  if (!GetVarint64(&req, &req_epoch) || !GetFixed64(&req, &txn) ||
      !GetFixed64(&req, &key) || req.empty()) {
    return Status::InvalidArgument("malformed exec.lock.acquire");
  }
  const uint8_t mode = static_cast<uint8_t>(req[0]);
  req.remove_prefix(1);
  if (!GetVarint64(&req, &npend) || !IsPendingList(req, npend)) {
    return Status::InvalidArgument("malformed exec.lock.acquire");
  }

  stats_.acquires++;
  ReleasePendingLocked(req, npend);
  sctx->ChargeCompute(offload::kDispatchNs +
                      offload::kLockOpNs * (1 + npend));

  LockOutcome outcome;
  if (req_epoch != offload::kFreshEpoch && req_epoch != epoch_) {
    // The grant this txn is building on predates a crash: everything it
    // held is gone. Fence it rather than silently re-granting.
    outcome = LockOutcome::kFenced;
    stats_.fenced++;
  } else if (wounded_.count(txn) != 0) {
    outcome = LockOutcome::kWounded;  // wound notice piggybacked on the reply
    stats_.wounded_observed++;
  } else {
    outcome = AcquireLocked(txn, key, mode);
  }
  resp->push_back(static_cast<char>(outcome));
  PutVarint64(resp, epoch_);
  return Status::OK();
}

Status MemNodeExecutor::HandleLockRelease(Slice req, std::string* resp,
                                          RpcServerContext* sctx) {
  std::lock_guard<std::mutex> lock(mu_);
  DISAGG_RETURN_NOT_OK(CheckAliveLocked());
  uint64_t req_epoch = 0, txn = 0, npend = 0;
  if (!GetVarint64(&req, &req_epoch) || !GetFixed64(&req, &txn) ||
      !GetVarint64(&req, &npend) || !IsPendingList(req, npend)) {
    return Status::InvalidArgument("malformed exec.lock.release");
  }

  ReleasePendingLocked(req, npend);
  sctx->ChargeCompute(offload::kDispatchNs +
                      offload::kLockOpNs * (1 + npend));

  LockOutcome outcome = LockOutcome::kGranted;
  if (req_epoch != offload::kFreshEpoch && req_epoch != epoch_) {
    // Pre-crash locks are already gone; the release is a no-op, but tell
    // the client so it drops its stale grant state.
    outcome = LockOutcome::kFenced;
    stats_.fenced++;
  } else {
    ReleaseTxnLocked(txn);
  }
  resp->push_back(static_cast<char>(outcome));
  PutVarint64(resp, epoch_);
  return Status::OK();
}

// ---- Compute-side clients --------------------------------------------------

namespace {

/// An `exec.idx.*` request (varint tree id, then fixed64 fields) encoded
/// on the stack, so an offloaded op allocates nothing to send it.
class IndexRequest {
 public:
  explicit IndexRequest(uint32_t tree)
      : size_(static_cast<size_t>(EncodeVarint64(buf_, tree) - buf_)) {}

  IndexRequest& Fixed(uint64_t v) {
    EncodeFixed64(buf_ + size_, v);
    size_ += 8;
    return *this;
  }
  IndexRequest& Varint(uint64_t v) {
    size_ = static_cast<size_t>(EncodeVarint64(buf_ + size_, v) - buf_);
    return *this;
  }
  Slice slice() const { return Slice(buf_, size_); }

 private:
  char buf_[5 + 8 + 10] = {};  // varint32 tree id, fixed64, fixed64 or varint
  size_t size_;
};

}  // namespace

Result<uint64_t> OffloadIndexGet(Fabric* fabric, NetContext* ctx, NodeId node,
                                 uint32_t tree, uint64_t key) {
  std::string resp;
  DISAGG_RETURN_NOT_OK(fabric->Call(ctx, node, offload::kIdxGet,
                                    IndexRequest(tree).Fixed(key).slice(),
                                    &resp));
  Slice in(resp);
  uint64_t value = 0;
  if (!GetFixed64(&in, &value)) {
    return Status::Corruption("exec.idx.get response");
  }
  return value;
}

Status OffloadIndexPut(Fabric* fabric, NetContext* ctx, NodeId node,
                       uint32_t tree, uint64_t key, uint64_t value) {
  std::string resp;
  return fabric->Call(ctx, node, offload::kIdxPut,
                      IndexRequest(tree).Fixed(key).Fixed(value).slice(),
                      &resp);
}

Status OffloadIndexDelete(Fabric* fabric, NetContext* ctx, NodeId node,
                          uint32_t tree, uint64_t key) {
  std::string resp;
  return fabric->Call(ctx, node, offload::kIdxDelete,
                      IndexRequest(tree).Fixed(key).slice(), &resp);
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> OffloadIndexScan(
    Fabric* fabric, NetContext* ctx, NodeId node, uint32_t tree, uint64_t from,
    size_t limit) {
  IndexRequest req(tree);
  req.Fixed(from).Varint(limit);
  std::string resp;
  DISAGG_RETURN_NOT_OK(
      fabric->Call(ctx, node, offload::kIdxScan, req.slice(), &resp));
  Slice in(resp);
  uint64_t count = 0;
  if (!GetVarint64(&in, &count)) {
    return Status::Corruption("exec.idx.scan response");
  }
  // A corrupt count must surface as Corruption below, not as a huge
  // allocation: each entry takes 16 bytes of the reply.
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(std::min<uint64_t>(count, in.size() / 16));
  for (uint64_t i = 0; i < count; i++) {
    uint64_t k = 0, v = 0;
    if (!GetFixed64(&in, &k) || !GetFixed64(&in, &v)) {
      return Status::Corruption("exec.idx.scan response");
    }
    out.emplace_back(k, v);
  }
  return out;
}

std::vector<TxnId> OffloadedLockClient::TakePending() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnId> out;
  out.swap(pending_release_);
  return out;
}

void OffloadedLockClient::RestorePending(const std::vector<TxnId>& txns) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_release_.insert(pending_release_.begin(), txns.begin(), txns.end());
}

Status OffloadedLockClient::AcquireLock(NetContext* ctx, TxnId txn,
                                        uint64_t key, LockMode mode) {
  NetContext scratch;
  if (ctx == nullptr) ctx = &scratch;
  const std::vector<TxnId> pend = TakePending();
  std::string req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txn_epoch_.find(txn);
    PutVarint64(&req,
                it == txn_epoch_.end() ? offload::kFreshEpoch : it->second);
  }
  PutFixed64(&req, txn);
  PutFixed64(&req, key);
  req.push_back(static_cast<char>(mode == LockMode::kShared
                                      ? offload::kModeShared
                                      : offload::kModeExclusive));
  PutVarint64(&req, pend.size());
  for (TxnId dead : pend) PutFixed64(&req, dead);

  std::string resp;
  Status st = fabric_->Call(ctx, node_, offload::kLockAcquire, req, &resp);
  if (!st.ok()) {
    RestorePending(pend);
    return st;
  }
  Slice in(resp);
  if (in.empty()) return Status::Corruption("exec.lock.acquire response");
  const auto outcome = static_cast<offload::LockOutcome>(in[0]);
  in.remove_prefix(1);
  uint64_t cur_epoch = 0;
  if (!GetVarint64(&in, &cur_epoch)) {
    return Status::Corruption("exec.lock.acquire response");
  }
  std::lock_guard<std::mutex> lock(mu_);
  switch (outcome) {
    case offload::LockOutcome::kGranted:
      txn_epoch_[txn] = cur_epoch;
      return Status::OK();
    case offload::LockOutcome::kConflict:
      return Status::Busy("lock conflict at memory-node lock table");
    case offload::LockOutcome::kWounded:
      return Status::Aborted("wounded by an older transaction");
    case offload::LockOutcome::kFenced:
      txn_epoch_.erase(txn);
      return Status::Aborted("lock grants fenced by executor recovery");
  }
  return Status::Corruption("exec.lock.acquire outcome");
}

void OffloadedLockClient::ReleaseAllLocks(NetContext* ctx, TxnId txn) {
  NetContext scratch;
  if (ctx == nullptr) ctx = &scratch;
  const std::vector<TxnId> pend = TakePending();
  std::string req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txn_epoch_.find(txn);
    PutVarint64(&req,
                it == txn_epoch_.end() ? offload::kFreshEpoch : it->second);
    txn_epoch_.erase(txn);
  }
  PutFixed64(&req, txn);
  PutVarint64(&req, pend.size());
  for (TxnId dead : pend) PutFixed64(&req, dead);

  std::string resp;
  Status st = fabric_->Call(ctx, node_, offload::kLockRelease, req, &resp);
  if (!st.ok()) {
    // Queue everything for the next request: the locks stay held until a
    // later acquire/release piggybacks these ids or the executor recovers.
    RestorePending(pend);
    std::lock_guard<std::mutex> lock(mu_);
    pending_release_.push_back(txn);
  }
}

size_t OffloadedLockClient::pending_releases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_release_.size();
}

}  // namespace disagg
