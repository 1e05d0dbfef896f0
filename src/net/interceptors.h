#ifndef DISAGG_NET_INTERCEPTORS_H_
#define DISAGG_NET_INTERCEPTORS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.h"

namespace disagg {

/// Deterministic seeded fault schedule, the composable replacement for the
/// binary `Node::Fail()` switch: packet drops and latency spikes are decided
/// by a stateless hash of (seed, op sequence number), and node flaps take a
/// node down for a window of op sequence numbers. Same seed and op stream →
/// identical injected faults and identical charged `sim_ns`.
struct FaultPolicy {
  uint64_t seed = 1;

  /// Sim time charged to an op the schedule drops, flaps or loses one way:
  /// the client's timeout detection.
  static constexpr uint64_t kDropPenaltyNs = 2000;

  /// Per-op probability the op is dropped before reaching the target; the
  /// client is charged `kDropPenaltyNs` and sees Status::Unavailable.
  double drop_prob = 0.0;

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
  /// before it reaches the node (charged `kDropPenaltyNs`, Unavailable,
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
  /// Unavailable and TimedOut are always retried; Busy, which usually
  /// signals app-level conflicts, only when this is set.
  bool retry_busy = false;

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

}  // namespace disagg

#endif  // DISAGG_NET_INTERCEPTORS_H_
