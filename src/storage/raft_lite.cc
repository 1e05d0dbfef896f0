#include "storage/raft_lite.h"

#include <algorithm>
#include <ranges>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kRaftAppendEntries("raft.append_entries");
const RpcMethod kRaftRead("raft.read");

// AppendEntries request wire format.
void EncodeAppendEntries(std::string* dst, uint64_t term, uint64_t prev_index,
                         uint64_t prev_term, uint64_t leader_commit,
                         const std::vector<RaftEntry>& entries) {
  PutVarint64(dst, term);
  PutVarint64(dst, prev_index);
  PutVarint64(dst, prev_term);
  PutVarint64(dst, leader_commit);
  PutVarint64(dst, entries.size());
  for (const RaftEntry& e : entries) {
    PutVarint64(dst, e.term);
    PutLengthPrefixedSlice(dst, e.payload);
  }
}

}  // namespace

RaftReplicaService::RaftReplicaService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  fabric_->node(node_)->RegisterHandler(
      kRaftAppendEntries,
      [this](Slice req, std::string* resp, RpcServerContext* sctx) {
        return HandleAppendEntries(req, resp, sctx);
      });
  fabric_->node(node_)->RegisterHandler(
      kRaftRead,
      [this](Slice req, std::string* resp, RpcServerContext* sctx) {
        return HandleRead(req, resp, sctx);
      });
}

uint64_t RaftReplicaService::log_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

uint64_t RaftReplicaService::commit_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_;
}

Result<RaftEntry> RaftReplicaService::entry(uint64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= log_.size()) return Status::NotFound("no such entry");
  return log_[index];
}

void RaftReplicaService::BecomeLeader(uint64_t term) {
  std::lock_guard<std::mutex> lock(mu_);
  term_ = term;
}

uint64_t RaftReplicaService::AppendLocal(RaftEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(std::move(entry));
  return log_.size() - 1;
}

void RaftReplicaService::AdvanceCommitLocal(uint64_t commit) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_ = std::max(commit_, std::min<uint64_t>(commit, log_.size()));
}

Status RaftReplicaService::HandleAppendEntries(Slice req, std::string* resp,
                                               RpcServerContext* sctx) {
  uint64_t term = 0, prev_index = 0, prev_term = 0, leader_commit = 0, n = 0;
  if (!GetVarint64(&req, &term) || !GetVarint64(&req, &prev_index) ||
      !GetVarint64(&req, &prev_term) || !GetVarint64(&req, &leader_commit) ||
      !GetVarint64(&req, &n)) {
    return Status::InvalidArgument("malformed append_entries");
  }
  // `n` comes off the wire: no reserve, so a forged count fails below when
  // the payload runs out instead of sizing an allocation.
  std::vector<RaftEntry> entries;
  for (uint64_t i = 0; i < n; i++) {
    RaftEntry e;
    Slice payload;
    if (!GetVarint64(&req, &e.term) ||
        !GetLengthPrefixedSlice(&req, &payload)) {
      return Status::InvalidArgument("malformed entry");
    }
    e.payload = payload.ToString();
    entries.push_back(std::move(e));
  }

  std::lock_guard<std::mutex> lock(mu_);
  resp->clear();
  // Every response carries (success, term, log_size); the log size acts as
  // the conflict hint that lets the leader skip straight to the end of a
  // merely-lagging follower's log instead of probing one index at a time.
  if (term < term_) {
    PutVarint64(resp, 0);  // success=false
    PutVarint64(resp, term_);
    PutVarint64(resp, log_.size());
    return Status::OK();
  }
  term_ = term;
  // Log-matching: prev_index entries must exist and the last must match
  // prev_term. prev_index == 0 means "from the beginning".
  if (prev_index > log_.size() ||
      (prev_index > 0 && log_[prev_index - 1].term != prev_term)) {
    PutVarint64(resp, 0);
    PutVarint64(resp, term_);
    PutVarint64(resp, log_.size());
    sctx->ChargeCompute(200);
    return Status::OK();
  }
  // Truncate conflicting suffix, then append.
  uint64_t idx = prev_index;
  for (RaftEntry& e : entries) {
    if (idx < log_.size()) {
      if (log_[idx].term != e.term) {
        log_.resize(idx);
        log_.push_back(std::move(e));
      }
    } else {
      log_.push_back(std::move(e));
    }
    idx++;
  }
  commit_ = std::max(commit_, std::min<uint64_t>(leader_commit, log_.size()));
  sctx->ChargeCompute(200 + 150 * entries.size());
  PutVarint64(resp, 1);  // success
  PutVarint64(resp, term_);
  PutVarint64(resp, log_.size());
  return Status::OK();
}

Status RaftReplicaService::HandleRead(Slice req, std::string* resp,
                                      RpcServerContext* sctx) {
  uint64_t index = 0;
  if (!GetVarint64(&req, &index)) {
    return Status::InvalidArgument("malformed raft.read");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= commit_) return Status::NotFound("entry not committed");
  sctx->ChargeCompute(100);
  resp->clear();
  PutVarint64(resp, log_[index].term);
  PutLengthPrefixedSlice(resp, log_[index].payload);
  return Status::OK();
}

RaftLiteGroup::RaftLiteGroup(Fabric* fabric, int replicas,
                             InterconnectModel model,
                             const std::string& name_prefix)
    : fabric_(fabric) {
  for (int i = 0; i < replicas; i++) {
    Member m;
    m.node = fabric_->AddNode(name_prefix + "-" + std::to_string(i),
                              NodeKind::kStorage, model,
                              static_cast<uint32_t>(i));
    m.service = std::make_unique<RaftReplicaService>(fabric_, m.node);
    m.next_index = 0;
    replicas_.push_back(std::move(m));
  }
  replicas_[leader_].service->BecomeLeader(term_);
}

Status RaftLiteGroup::ReplicateTo(NetContext* ctx, int follower_idx) {
  Member& follower = replicas_[follower_idx];
  RaftReplicaService* leader_svc = replicas_[leader_].service.get();
  for (int attempts = 0; attempts < 64; attempts++) {
    const uint64_t prev_index = follower.next_index;
    uint64_t prev_term = 0;
    if (prev_index > 0) {
      auto e = leader_svc->entry(prev_index - 1);
      if (!e.ok()) return e.status();
      prev_term = e->term;
    }
    std::vector<RaftEntry> suffix;
    for (uint64_t i = prev_index; i < leader_svc->log_size(); i++) {
      suffix.push_back(std::move(leader_svc->entry(i)).value());
    }
    std::string req;
    EncodeAppendEntries(&req, term_, prev_index, prev_term,
                        leader_svc->commit_index(), suffix);
    std::string resp;
    DISAGG_RETURN_NOT_OK(fabric_->Call(ctx, follower.node,
                                       kRaftAppendEntries, req, &resp));
    Slice in(resp);
    uint64_t success = 0, follower_term = 0, follower_log_size = 0;
    if (!GetVarint64(&in, &success) || !GetVarint64(&in, &follower_term) ||
        !GetVarint64(&in, &follower_log_size)) {
      return Status::Corruption("append_entries response");
    }
    if (follower_term > term_) {
      return Status::Aborted("deposed: follower has a newer term");
    }
    if (success) {
      follower.next_index = leader_svc->log_size();
      return Status::OK();
    }
    // Log mismatch: back off one entry, or jump to the follower's log end
    // if it is shorter than the probe point (it cannot match beyond it).
    if (follower.next_index == 0) {
      return Status::Corruption("log mismatch at index 0");
    }
    follower.next_index =
        std::min(follower.next_index - 1, follower_log_size);
  }
  // The log-matching walk needs more rounds than this call's budget. The
  // match point found so far persists in next_index, so this is retryable
  // contention (Busy), not a simulated infrastructure failure
  // (TimedOut/Unavailable are reserved for those): calling again resumes
  // the walk where it stalled.
  return Status::Busy("replication did not converge within the round budget");
}

Status RaftLiteGroup::SyncFollower(NetContext* ctx, int follower_idx) {
  if (follower_idx < 0 || follower_idx >= size()) {
    return Status::InvalidArgument("no such replica");
  }
  if (follower_idx == leader_) return Status::OK();
  return ReplicateTo(ctx, follower_idx);
}

Result<uint64_t> RaftLiteGroup::Append(NetContext* ctx, std::string payload) {
  RaftReplicaService* leader_svc = replicas_[leader_].service.get();
  const uint64_t index =
      leader_svc->AppendLocal(RaftEntry{term_, std::move(payload)});

  int acks = 1;  // leader itself
  (void)FanOut(ctx, std::views::iota(0, size()), [&](int i, NetContext* b) {
    if (i != leader_ && ReplicateTo(b, i).ok()) acks++;
    return Status::OK();
  });

  const int majority = size() / 2 + 1;
  if (acks < majority) {
    return Status::Unavailable("no majority: " + std::to_string(acks) + "/" +
                               std::to_string(majority));
  }
  leader_svc->AdvanceCommitLocal(index + 1);
  // Lazily piggyback the new commit index on the next AppendEntries; tests
  // that need immediate propagation call Append again or ElectLeader.
  return index;
}

Result<int> RaftLiteGroup::ElectLeader(NetContext* ctx, int preferred) {
  // Find the most up-to-date live replica (Raft's election restriction).
  int best = -1;
  uint64_t best_len = 0;
  for (int i = 0; i < size(); i++) {
    if (fabric_->node(replicas_[i].node)->failed()) continue;
    const uint64_t len = replicas_[i].service->log_size();
    if (best == -1 || len > best_len) {
      best = i;
      best_len = len;
    }
  }
  if (best == -1) return Status::Unavailable("no live replica");
  if (preferred >= 0 && preferred < size() &&
      !fabric_->node(replicas_[preferred].node)->failed() &&
      replicas_[preferred].service->log_size() == best_len) {
    best = preferred;
  }
  term_++;
  leader_ = best;
  replicas_[leader_].service->BecomeLeader(term_);
  // Optimistic next_index (Raft's post-election initialization): assume each
  // follower matches the whole leader log; the reject hint walks it back
  // cheaply when one does not.
  const uint64_t leader_len = replicas_[leader_].service->log_size();
  for (auto& m : replicas_) m.next_index = leader_len;
  // Re-assert leadership / sync live followers.
  (void)FanOut(ctx, std::views::iota(0, size()), [&](int i, NetContext* b) {
    if (i != leader_) (void)ReplicateTo(b, i);
    return Status::OK();
  });
  return leader_;
}

Result<RaftEntry> RaftLiteGroup::ReadCommitted(NetContext* ctx,
                                               uint64_t index) {
  std::string req, resp;
  PutVarint64(&req, index);
  DISAGG_RETURN_NOT_OK(
      fabric_->Call(ctx, replicas_[leader_].node, kRaftRead, req, &resp));
  Slice in(resp);
  RaftEntry e;
  Slice payload;
  if (!GetVarint64(&in, &e.term) || !GetLengthPrefixedSlice(&in, &payload)) {
    return Status::Corruption("raft.read response");
  }
  e.payload = payload.ToString();
  return e;
}

Result<RaftEntry> RaftLiteGroup::ReadCommitted(uint64_t index) {
  RaftReplicaService* leader_svc = replicas_[leader_].service.get();
  if (index >= leader_svc->commit_index()) {
    return Status::NotFound("entry not committed");
  }
  return leader_svc->entry(index);
}

}  // namespace disagg
