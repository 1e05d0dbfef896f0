#ifndef DISAGG_LOG_SHARED_LOG_H_
#define DISAGG_LOG_SHARED_LOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"
#include "storage/log_backend.h"
#include "storage/log_record.h"

namespace disagg {

/// Tag partitioning a shared log into independent sub-logs (Boki's log
/// streams): one tenant / engine / WAL stream per tag. Seqnums are per-tag
/// and dense — the tag's primary assigns `tail+1 .. tail+k` to each batch.
using LogTag = uint64_t;
using SeqNum = uint64_t;
constexpr SeqNum kInvalidSeqNum = 0;

/// Disaggregated shared-log service (the survey's canonical storage-side
/// building block; shape follows Boki's engine core): a small fleet of log
/// nodes jointly storing tag-partitioned streams under an epoch-numbered
/// *view*.
///
///   - View: `{epoch, members}`. The primary for a tag is
///     `members[tag % members.size()]`; its `replication - 1` successors on
///     the member ring are backups. Appends go primary-first (the primary
///     assigns seqnums), then fan out to backups; `write_quorum` total acks
///     (primary included) make the batch durable.
///   - Seal/reconfigure: on membership change the control plane seals every
///     live node (sealed nodes reject appends for the old epoch with
///     `Status::Aborted` — deliberately non-retryable so clients refresh
///     their view instead of hammering a dead epoch), recovers each tag's
///     tail as the max across live nodes, re-replicates missing suffixes to
///     the new replica set, bumps the epoch, and publishes the new view.
///     Un-acked suffixes lost with a crashed node stay lost — exactly the
///     WAL's "maybe-committed" semantics.
///   - Tag index: `slog.read` serves per-tag suffix reads.
///
/// Node RPCs (all through `Fabric::Execute`, so tracing / faults / retry /
/// deadlines / WFQ / congestion apply):
///   slog.append     -- primary append: epoch check, LSN dedup, assign seqnums
///   slog.replicate  -- backup store at given seqnums (idempotent by seqnum)
///   slog.read       -- tag suffix with seq > from AND lsn > from (exclusive
///                      bounds, LSN order; NotFound below the trim point)
///   slog.trim       -- drop records with seq <= watermark (retention)
///   slog.seal       -- seal the node's epoch, return per-tag tails
///   slog.install    -- install a new view on the node
/// Control-node RPC:
///   slog.view       -- current epoch + membership (client view refresh)
class SharedLogService {
 public:
  struct Config {
    int log_nodes = 3;       ///< size of the log-node universe
    int replication = 3;     ///< replicas per tag (primary + backups)
    int write_quorum = 2;    ///< acks (incl. primary) for durability
    InterconnectModel model = InterconnectModel::Ssd();
  };

  SharedLogService(Fabric* fabric, const Config& config,
                   const std::string& name_prefix = "slog");

  Fabric* fabric() const { return fabric_; }
  NodeId ctl_node() const { return ctl_node_; }
  size_t num_log_nodes() const { return nodes_.size(); }
  NodeId log_node(size_t i) const { return nodes_[i]->node; }
  const Config& config() const { return config_; }
  uint64_t epoch() const;

  /// Seals the current view and installs the next one over the fabric: new
  /// membership = all currently-live log nodes (crashed nodes drop out,
  /// revived ones rejoin), per-tag tails recovered as the max across live
  /// nodes, missing suffixes re-replicated to each tag's new replica set.
  /// The caller's context is charged for every seal / read / re-replicate
  /// RPC — `ctx->sim_ns` growth across this call IS the recovery time.
  Status SealAndReconfigure(NetContext* ctx);

  // ---- Test / chaos-audit inspection (direct, no fabric charge) --------

  /// Number of log nodes holding `tag` records up through `lsn`.
  size_t CountDurable(LogTag tag, Lsn lsn) const;

 private:
  /// One tag's records as the bytes they arrived in, by reference to the
  /// request that carried them. Seqs are contiguous, so record `i` has seq
  /// `tail_seq - records.size() + 1 + i`; LSNs increase along the tag.
  struct TagStore {
    EncodedRecords records;
    SeqNum tail_seq = kInvalidSeqNum;
    Lsn tail_lsn = kInvalidLsn;
    SeqNum trimmed = kInvalidSeqNum;  ///< seqs <= trimmed are gone
    Lsn trimmed_lsn = kInvalidLsn;    ///< highest LSN among trimmed records

    /// Number of records with seq <= `seq`.
    size_t CountThrough(SeqNum seq) const;
    /// Stores `r`, a record of `request`, at seq `tail_seq + 1`. The first
    /// record stored from a request retains it in `*retained`.
    void Push(const LogRecordSpan& r, Slice request, SharedBytes* retained,
              const RpcServerContext& sctx);
    /// Drops the records at or below the trim watermark, which the tail
    /// never falls below.
    void DropTrimmed();
  };

  /// One log node's state. Guarded by `mu`; handlers run on the caller's
  /// thread like every fabric RPC.
  struct NodeState {
    NodeId node = 0;
    uint64_t epoch = 0;         ///< view this node believes in
    uint64_t sealed_epoch = 0;  ///< epochs <= this reject appends
    std::vector<NodeId> members;
    std::map<LogTag, TagStore> tags;
    std::vector<LogRecordSpan> scan;  // a request's batch, reused (mu)
    mutable std::mutex mu;
  };

  void RegisterHandlers(NodeState* ns);
  Status HandleAppend(NodeState* ns, Slice req, std::string* resp,
                      RpcServerContext* sctx);
  Status HandleReplicate(NodeState* ns, Slice req, std::string* resp,
                         RpcServerContext* sctx);
  Status HandleRead(NodeState* ns, Slice req, std::string* resp,
                    RpcServerContext* sctx);
  Status HandleTrim(NodeState* ns, Slice req, std::string* resp,
                    RpcServerContext* sctx);
  Status HandleSeal(NodeState* ns, Slice req, std::string* resp,
                    RpcServerContext* sctx);
  Status HandleInstall(NodeState* ns, Slice req, std::string* resp,
                       RpcServerContext* sctx);
  Status HandleView(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_;
  Config config_;
  NodeId ctl_node_;
  std::vector<std::unique_ptr<NodeState>> nodes_;

  mutable std::mutex view_mu_;  // control-plane view state
  uint64_t epoch_ = 1;
  std::vector<NodeId> members_;
};

/// Compute-side client: caches the view (refreshed via `slog.view` on
/// `Status::Aborted` epoch rejections), drives primary-first append with
/// parallel backup fan-out, and serves the tag-index queries. Everything
/// goes through `Fabric::Call`, so the whole interceptor pipeline applies.
class SharedLogClient {
 public:
  SharedLogClient(Fabric* fabric, NodeId ctl_node)
      : fabric_(fabric), ctl_(ctl_node) {}

  /// Appends `records` to `tag`. Durable (>= write_quorum acks) on OK;
  /// returns the tag's new tail LSN. Re-sent records (lsn <= tag tail) are
  /// deduplicated at the primary, so WAL re-flush after a failed batch is
  /// idempotent. On epoch staleness the client refreshes its view and
  /// retries (bounded).
  Result<Lsn> Append(NetContext* ctx, LogTag tag,
                     const EncodedRecords& records);

  /// Tag suffix with `seqnum > from_exclusive`, LSN order, up to
  /// `max_records`. `NotFound` if the range reaches below the trim point.
  Result<std::vector<LogRecord>> ReadFrom(NetContext* ctx, LogTag tag,
                                          SeqNum from_exclusive,
                                          uint64_t max_records = 1024) {
    return Read(ctx, tag, from_exclusive, kInvalidLsn, max_records);
  }

  /// Tag suffix with `lsn > from_exclusive` (the `LogBackend` bound).
  Result<std::vector<LogRecord>> ReadFromLsn(NetContext* ctx, LogTag tag,
                                             Lsn from_exclusive) {
    return Read(ctx, tag, kInvalidSeqNum, from_exclusive, ~0ull);
  }

  /// Retention: drops records with `seqnum <= up_to_inclusive` on every
  /// replica of `tag`; later reads below the watermark return `NotFound`.
  Status Trim(NetContext* ctx, LogTag tag, SeqNum up_to_inclusive);

  Status RefreshView(NetContext* ctx);
  uint64_t cached_epoch() const { return view_.epoch; }

 private:
  struct View {
    uint64_t epoch = 0;
    int replication = 0;
    int write_quorum = 0;
    std::vector<NodeId> members;
  };

  Status EnsureView(NetContext* ctx);
  /// Replica set for `tag` under the cached view, primary first.
  std::vector<NodeId> ReplicasFor(LogTag tag) const;
  /// Calls `tag`'s primary with `make_request(epoch)` under the cached view
  /// and hands the reply to `on_reply(reply, replicas)`. A failed call or
  /// reply that says the view moved (Aborted: stale epoch; Unavailable:
  /// crashed primary, or `on_reply`'s append below the write quorum)
  /// refreshes the view and retries, three attempts in all; any other
  /// status is the caller's answer.
  template <typename MakeRequest, typename OnReply>
  Status CallPrimary(NetContext* ctx, LogTag tag, const RpcMethod& method,
                     MakeRequest make_request, OnReply on_reply);
  /// The `slog.read` behind ReadFrom and ReadFromLsn.
  Result<std::vector<LogRecord>> Read(NetContext* ctx, LogTag tag,
                                      SeqNum from_seq, Lsn from_lsn,
                                      uint64_t max_records);

  Fabric* fabric_;
  NodeId ctl_;
  View view_;
};

/// `LogBackend` adapter: one tag of a shared log as a WAL sink, so every
/// engine can swap its private log tier for the shared service without the
/// WAL/recovery layers noticing.
class SharedLogBackend : public LogBackend {
 public:
  SharedLogBackend(Fabric* fabric, const SharedLogService* service, LogTag tag)
      : client_(fabric, service->ctl_node()), tag_(tag) {}

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    return client_.Append(ctx, tag_, records);
  }
  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    return client_.ReadFromLsn(ctx, tag_, kInvalidLsn);
  }
  Result<std::vector<LogRecord>> ReadFrom(NetContext* ctx,
                                          Lsn from_exclusive) override {
    return client_.ReadFromLsn(ctx, tag_, from_exclusive);
  }

  SharedLogClient* client() { return &client_; }
  LogTag tag() const { return tag_; }

 private:
  SharedLogClient client_;
  LogTag tag_;
};

/// Engine-level log selection: every RowEngine architecture (and the
/// multi-writer engine) targets either its legacy private log tier or one
/// tag of a SharedLogService through the same `LogBackend` interface.
/// Legacy is the default and constructs exactly the pre-refactor sink, so
/// legacy-mode runs stay bit-identical (pinned by the parity tests).
struct EngineLogConfig {
  enum class Mode { kLegacy, kShared };
  Mode mode = Mode::kLegacy;
  /// Shared-log fleet to append to in `kShared` mode (not owned; must
  /// outlive the engine unless transferred with `AdoptSharedLog`).
  SharedLogService* shared_log = nullptr;
  /// Tag carrying this engine's WAL stream.
  LogTag tag = 1;
};

}  // namespace disagg

#endif  // DISAGG_LOG_SHARED_LOG_H_
