#ifndef DISAGG_STORAGE_RAFT_LITE_H_
#define DISAGG_STORAGE_RAFT_LITE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"

namespace disagg {

/// One replicated log entry (a PolarFS chunk write).
struct RaftEntry {
  uint64_t term = 0;
  std::string payload;
};

/// Follower-side state machine of the simplified Raft used by PolarFS
/// (Sec. 2.1: "durability through a three-way replication with an optimized
/// Raft protocol"). Leader election is administrative (the group object picks
/// the leader and bumps the term); log replication implements the real Raft
/// safety rules: term checks, log-matching on (prev_index, prev_term),
/// conflict truncation, and monotonic commit index.
class RaftReplicaService {
 public:
  RaftReplicaService(Fabric* fabric, NodeId node);

  NodeId node() const { return node_; }
  uint64_t log_size() const;
  uint64_t commit_index() const;  // number of committed entries
  Result<RaftEntry> entry(uint64_t index) const;

  /// Called by the group when this replica becomes leader.
  void BecomeLeader(uint64_t term);

  /// Local (leader-side) append, no network.
  uint64_t AppendLocal(RaftEntry entry);
  void AdvanceCommitLocal(uint64_t commit);

 private:
  friend class RaftLiteGroup;
  Status HandleAppendEntries(Slice req, std::string* resp,
                             RpcServerContext* sctx);
  Status HandleRead(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_;
  NodeId node_;
  mutable std::mutex mu_;
  uint64_t term_ = 0;
  uint64_t commit_ = 0;
  std::vector<RaftEntry> log_;
};

/// Coordinator for a RaftLite replication group. The leader replica accepts
/// writes; `Append` returns once a majority has persisted the entry.
class RaftLiteGroup {
 public:
  RaftLiteGroup(Fabric* fabric, int replicas,
                InterconnectModel model = InterconnectModel::Ssd(),
                const std::string& name_prefix = "raft");

  int size() const { return static_cast<int>(replicas_.size()); }
  int leader() const { return leader_; }
  uint64_t term() const { return term_; }
  RaftReplicaService* replica(int i) { return replicas_[i].service.get(); }
  NodeId replica_node(int i) const { return replicas_[i].node; }

  /// Replicates `payload`; returns its log index (0-based) once committed on
  /// a majority. Fails Unavailable if a majority cannot be reached.
  Result<uint64_t> Append(NetContext* ctx, std::string payload);

  /// Anti-entropy: pushes the leader's log to one follower. Busy means the
  /// log-matching walk did not converge within the per-call round budget;
  /// the match point found so far is kept, so calling again resumes and
  /// makes progress (retryable contention, not an infrastructure failure).
  Status SyncFollower(NetContext* ctx, int follower_idx);

  /// Administrative failover: promotes the most up-to-date live replica
  /// (or `preferred` if it is as up-to-date as any live replica) and bumps
  /// the term. Returns the new leader index.
  Result<int> ElectLeader(NetContext* ctx, int preferred = -1);

  /// Reads a committed entry through the current leader over the fabric
  /// (`raft.read`), so retry / faults / congestion apply and the caller is
  /// charged — the read path recovery scans must use.
  Result<RaftEntry> ReadCommitted(NetContext* ctx, uint64_t index);

  /// Direct (non-fabric) committed-entry peek for tests and audits.
  Result<RaftEntry> ReadCommitted(uint64_t index);

 private:
  struct Member {
    NodeId node = 0;
    std::unique_ptr<RaftReplicaService> service;
    uint64_t next_index = 0;  // leader's guess of follower match point
  };

  /// Sends the suffix of the leader log starting at follower's next_index;
  /// steps back on log-matching conflicts (jumping straight to the
  /// follower's log end when the reject hint shows it is merely lagging).
  Status ReplicateTo(NetContext* ctx, int follower_idx);

  Fabric* fabric_;
  std::vector<Member> replicas_;
  int leader_ = 0;
  uint64_t term_ = 1;
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_RAFT_LITE_H_
