#ifndef DISAGG_NET_INTERCEPTORS_H_
#define DISAGG_NET_INTERCEPTORS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "net/fabric.h"

namespace disagg {

struct PartitionEffects;  // src/net/partition.h

/// Observes every op flowing through `Fabric::Execute()`: per-op sim-time
/// histograms keyed by "verb/interconnect/node-kind", aggregate op/failure
/// counts, and an optional bounded ring-buffer trace of the most recent ops
/// dumpable as JSON for benches. Purely observational — charges nothing, so
/// installing it never changes a client's counters.
class TraceInterceptor : public FabricInterceptor {
 public:
  /// `trace_capacity` bounds the ring-buffer op trace; 0 keeps histograms
  /// only.
  explicit TraceInterceptor(size_t trace_capacity = 0)
      : capacity_(trace_capacity) {}

  const char* name() const override { return "trace"; }

  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override;

  struct TraceRecord {
    uint64_t seq = 0;
    FabricVerb verb = FabricVerb::kRead;
    NodeId node = 0;
    uint32_t tenant = 0;     ///< tenant billed for the op (`FabricOp::tenant`)
    uint64_t bytes_out = 0;
    uint64_t bytes_in = 0;
    uint64_t sim_ns = 0;
    uint64_t queue_ns = 0;   ///< congestion queueing delay within `sim_ns`
    bool ok = false;
  };

  uint64_t ops() const;
  uint64_t failures() const;

  /// Histogram keys present so far, e.g. "read/rdma/memory".
  std::vector<std::string> Keys() const;

  /// Copy of the histogram for `key`; zero-count histogram if absent.
  Histogram HistogramFor(const std::string& key) const;

  /// The retained ring-buffer records, oldest first.
  std::vector<TraceRecord> Snapshot() const;

  /// Dumps histogram summaries plus the retained op trace as a JSON object.
  std::string DumpJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Histogram> hists_;
  uint64_t ops_ = 0;
  uint64_t failures_ = 0;
  uint64_t seq_ = 0;
  std::vector<TraceRecord> ring_;  // circular once size() == capacity_
  size_t ring_next_ = 0;
};

/// Deterministic seeded fault schedule, the composable replacement for the
/// binary `Node::Fail()` switch: packet drops and latency spikes are decided
/// by a stateless hash of (seed, op sequence number), and node flaps take a
/// node down for a window of op sequence numbers. Same seed and op stream →
/// identical injected faults and identical charged `sim_ns`.
struct FaultPolicy {
  uint64_t seed = 1;

  /// Per-op probability the op is dropped before reaching the target; the
  /// client is charged `drop_penalty_ns` (timeout detection) and sees
  /// Status::Unavailable.
  double drop_prob = 0.0;
  uint64_t drop_penalty_ns = 2000;

  /// Per-op probability a completed op is charged `spike_ns` extra latency
  /// (congestion / retransmission on the wire).
  double spike_prob = 0.0;
  uint64_t spike_ns = 10000;

  /// Keys drop/spike decisions by the issuing context's `NetContext::op_tag`
  /// (mixed with the context's local draw counter and virtual clock) instead
  /// of the interceptor's global op sequence number. Required under the
  /// epoch-parallel driver, where the order in which ops from different
  /// threads reach this interceptor is an execution detail: with a tag every
  /// decision is a pure function of (seed, which logical op, which attempt,
  /// when), identical whatever thread runs the client. Untagged contexts
  /// (`op_tag == 0`) fall back to the sequence key.
  bool key_by_op_tag = false;

  /// Node down for ops whose sequence number lies in [from_seq, until_seq) —
  /// or, when `until_ns > from_ns`, for ops *issued* in the virtual-time
  /// window [from_ns, until_ns) (the form to use with the epoch-parallel
  /// driver, where sequence positions are execution-order-dependent but the
  /// virtual clock is part of the model).
  struct Flap {
    NodeId node = 0;
    uint64_t from_seq = 0;
    uint64_t until_seq = 0;
    uint64_t from_ns = 0;
    uint64_t until_ns = 0;
  };
  std::vector<Flap> flaps;

  /// Asymmetric (one-way) partition: traffic *toward* `node` is lost in the
  /// virtual-time window [from_ns, until_ns) while the node itself stays up
  /// and its outbound replies to everyone else flow — the classic gray
  /// failure a symmetric flap cannot express. `kRequestLost` drops the op
  /// before it reaches the node (charged `drop_penalty_ns`, Unavailable,
  /// side effects never happen); `kReplyLost` lets the op EXECUTE at the
  /// node and loses the acknowledgement on the way back (the caller is
  /// charged the penalty and sees Unavailable even though the side effect
  /// landed). With `method` non-empty only kRpc ops calling that method are
  /// affected (e.g. heartbeats die while data traffic flows).
  struct OneWay {
    enum class Direction : uint8_t { kRequestLost, kReplyLost };
    NodeId node = 0;
    uint64_t from_ns = 0;
    uint64_t until_ns = 0;
    Direction dir = Direction::kRequestLost;
    std::string method;  ///< empty = every verb toward `node`
  };
  std::vector<OneWay> oneways;

  /// Gray-failure slowdown: ops targeting `node` issued in the virtual-time
  /// window [from_ns, until_ns) complete successfully but are charged
  /// `factor` times their normal cost (the extra `(factor-1) x cost` rides
  /// `sim_ns` and counts as an injected fault). No drop: the node is
  /// slow-but-alive, which is exactly what a suspicion score must catch
  /// without a single hard failure signal.
  struct Slowdown {
    NodeId node = 0;
    uint64_t from_ns = 0;
    uint64_t until_ns = 0;
    double factor = 1.0;  ///< <= 1.0 disables the window
  };
  std::vector<Slowdown> slowdowns;
};

class FaultInterceptor : public FabricInterceptor {
 public:
  explicit FaultInterceptor(FaultPolicy policy) : policy_(std::move(policy)) {}

  const char* name() const override { return "fault"; }

  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override;

  uint64_t ops_seen() const { return seq_.load(std::memory_order_relaxed); }
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t spikes() const { return spikes_.load(std::memory_order_relaxed); }
  uint64_t flap_rejections() const {
    return flap_rejections_.load(std::memory_order_relaxed);
  }
  uint64_t oneway_drops() const {
    return oneway_drops_.load(std::memory_order_relaxed);
  }
  uint64_t slowdown_hits() const {
    return slowdown_hits_.load(std::memory_order_relaxed);
  }

  const FaultPolicy& policy() const { return policy_; }

 private:
  /// True with probability `p`, as a pure function of (seed, seq, salt).
  bool Decide(uint64_t seq, uint64_t salt, double p) const;

  const FaultPolicy policy_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> spikes_{0};
  std::atomic<uint64_t> flap_rejections_{0};
  std::atomic<uint64_t> oneway_drops_{0};
  std::atomic<uint64_t> slowdown_hits_{0};
};

/// Re-issues ops that fail with a retryable status, charging exponential
/// backoff to the client's simulated clock (`NetContext::backoff_ns` breaks
/// it out of `sim_ns`) so robustness experiments remain deterministic.
/// Install *before* a FaultInterceptor so retries wrap injected faults.
struct RetryPolicy {
  int max_attempts = 4;  ///< total issues, including the first
  /// Floored at 1 ns by the interceptor: zero would multiply to zero
  /// forever and retry with no simulated cost.
  uint64_t initial_backoff_ns = 1000;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ns = 1 << 20;  ///< ~1 ms cap
  bool retry_unavailable = true;
  bool retry_timed_out = true;
  bool retry_busy = false;  ///< Busy usually signals app-level conflicts

  /// Total issues (including the first) for ops refused by congestion
  /// admission control (`FabricOp::admission_rejected`). Re-issuing into a
  /// queue that just reported "full" amplifies the overload, so these get a
  /// tighter budget than contention `Busy` — unless the op carries a
  /// deadline, in which case the remaining `deadline_ns` budget governs
  /// instead (retries continue, deadline-clamped, up to `max_attempts`).
  int max_admission_attempts = 2;
};

class RetryInterceptor : public FabricInterceptor {
 public:
  explicit RetryInterceptor(RetryPolicy policy) : policy_(policy) {}

  const char* name() const override { return "retry"; }

  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override;

  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t gave_up() const { return gave_up_.load(std::memory_order_relaxed); }

  const RetryPolicy& policy() const { return policy_; }

 private:
  bool Retryable(const Status& st) const;

  const RetryPolicy policy_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> gave_up_{0};
};

/// Per-node circuit breaker: closed → open when the recent error rate at a
/// node crosses a threshold, open → half-open after a fixed number of
/// fast-failed ops, half-open → closed after consecutive successful probes
/// (or back to open on a probe failure). While open, ops are refused
/// immediately with `Status::Unavailable` for a small `fast_fail_penalty_ns`
/// instead of burning a full drop/timeout penalty at a node that is down
/// anyway — callers fall through to replicas or the degrade ladder.
///
/// The whole state machine is a pure function of the per-node op outcome
/// stream (counts, not clocks), so chaos replay with a fixed seed drives it
/// through bit-identical transitions. Only `Unavailable`/`TimedOut` count as
/// failures: `Busy` is contention/admission, not node health.
struct BreakerPolicy {
  uint32_t window = 16;        ///< per-node outcomes per evaluation window
  uint32_t min_samples = 8;    ///< evaluate only once the window has this many
  double open_error_rate = 0.5;  ///< open when failures/window >= this
  uint64_t open_ops = 32;      ///< fast-fails while open before half-open
  uint32_t half_open_probes = 2;  ///< consecutive probe successes to close
  uint64_t fast_fail_penalty_ns = 200;  ///< cost of learning "open" locally
};

class CircuitBreakerInterceptor : public FabricInterceptor {
 public:
  explicit CircuitBreakerInterceptor(BreakerPolicy policy) : policy_(policy) {}

  const char* name() const override { return "breaker"; }

  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override;

  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  /// Current state for `node` (kClosed if the node was never seen).
  State StateFor(NodeId node) const;

  /// Forgets everything about `node`: closed state, fresh window. The
  /// membership orchestrator calls this when a revoked node rejoins at a
  /// new lease epoch — the old incarnation's failure history must not
  /// fast-fail the healthy replacement.
  void ResetNode(NodeId node);

  uint64_t fast_fails() const {
    return fast_fails_.load(std::memory_order_relaxed);
  }
  uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }

  const BreakerPolicy& policy() const { return policy_; }

  struct NodeState {
    State state = State::kClosed;
    uint32_t window_ops = 0;       // outcomes observed in the current window
    uint32_t window_failures = 0;
    uint64_t open_fast_fails = 0;  // fast-fails since the breaker opened
    uint32_t probe_successes = 0;  // consecutive successes while half-open
  };

  /// Partition-local view of this breaker for the epoch-parallel driver
  /// (src/net/partition.h): per-node state copied from the authoritative map
  /// on first touch each epoch, plus the per-node outcome log the barrier
  /// replays through the authoritative state machine in partition order
  /// (`MergeShard`). Never shared across threads.
  struct ShardState {
    enum class Outcome : uint8_t { kOk, kFailure, kFastFail };
    std::map<NodeId, NodeState> nodes;        // copy-on-first-touch
    std::vector<std::pair<NodeId, Outcome>> log;
    uint64_t fast_fails = 0;  // shard-local; summed into fast_fails_ at merge
  };

  /// Replays one partition's epoch of outcomes into the authoritative state
  /// machines and clears the shard for the next epoch; transitions reflect
  /// the merged partition order.
  void MergeShard(ShardState* shard);

 private:
  Status InterceptSharded(PartitionEffects* eff, FabricOp* op, NetContext* ctx,
                          const FabricOpInvoker& next);

  /// The open-state fast-fail bookkeeping (open → half-open after
  /// `open_ops`). Call only while `ns->state == kOpen`.
  static void ApplyFastFail(NodeState* ns, const BreakerPolicy& policy);

  /// Feeds one closed/half-open outcome through the state machine; returns
  /// true when this outcome opened the breaker. Single-sourced so the
  /// inline, sharded, and replay paths transition identically.
  static bool ApplyOutcome(NodeState* ns, bool failure,
                           const BreakerPolicy& policy);

  /// The shard's view of `node`, copied from the authoritative map (under
  /// `mu_`) the first time the partition touches it this epoch.
  NodeState& ShardNodeFor(ShardState* shard, NodeId node);

  const BreakerPolicy policy_;
  mutable std::mutex mu_;
  std::map<NodeId, NodeState> nodes_;
  std::atomic<uint64_t> fast_fails_{0};
  std::atomic<uint64_t> opens_{0};
};

}  // namespace disagg

#endif  // DISAGG_NET_INTERCEPTORS_H_
