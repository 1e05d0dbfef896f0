#ifndef DISAGG_NET_MEMBERSHIP_H_
#define DISAGG_NET_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"

namespace disagg {

namespace membership {
/// Heartbeat RPC every monitored node answers (registered by `Monitor`).
inline constexpr const char* kPingMethod = "member.ping";
/// Weak-CPU cost of answering a ping (scaled by the node's `cpu_scale`).
inline constexpr uint64_t kPingComputeNs = 200;
}  // namespace membership

/// Fencing seam between the fleet membership service and the subsystems
/// that hand out revocable state (executor lock grants, buffer-pool writer
/// slots, log epochs). A consumer binds an authority and compares the lease
/// epoch it last synchronized against the authority's current one; an
/// advance means the node's lease was revoked and everything issued under
/// the old lease is void. Unbound consumers (`nullptr`) behave exactly as
/// before the seam existed — bit-identical, pinned by parity tests.
class LeaseAuthority {
 public:
  virtual ~LeaseAuthority() = default;

  /// Current lease epoch for `node`: 1 when first monitored, +1 per
  /// revocation. 0 = node not under lease management (never fenced).
  virtual uint64_t LeaseEpoch(NodeId node) const = 0;

  /// True iff `node` holds a valid (un-revoked) lease at `epoch`.
  /// Unmonitored nodes are always valid.
  virtual bool LeaseValid(NodeId node, uint64_t epoch) const = 0;
};

struct MembershipOptions {
  /// Virtual-time spacing of heartbeats per monitored node. Probes fire at
  /// epoch barriers, so the effective period is max(this, epoch_ns).
  uint64_t heartbeat_period_ns = 20'000;

  /// Phi-accrual-style suspicion score: revocation threshold and the
  /// per-signal increments/decay. A hard miss (Unavailable / TimedOut)
  /// contributes `miss_increment`; a slow-but-successful ack whose RTT
  /// exceeds `gray_rtt_factor` times the node's EWMA baseline contributes
  /// `gray_increment` (the gray-failure signal); a healthy ack multiplies
  /// the score by `healthy_decay`. `Status::Busy` is an ALIVE signal —
  /// admission rejection is overload, not node death — so it decays the
  /// score exactly like a healthy ack and never moves the RTT baseline
  /// (the status contract of `net/verb.h`, here load-bearing for quorum
  /// safety: overload can never amputate members).
  double suspicion_threshold = 3.0;
  double miss_increment = 1.0;
  double gray_increment = 0.5;
  double healthy_decay = 0.25;
  double gray_rtt_factor = 4.0;
  /// EWMA smoothing for the RTT baseline (baseline is frozen while a
  /// sample classifies as gray, so a slowdown cannot drag its own
  /// reference up).
  double rtt_alpha = 0.2;

  /// Virtual-time delay between lease revocation and the orchestrator
  /// running the node's repair action (models replacement provisioning).
  uint64_t repair_delay_ns = 100'000;

  /// Consecutive alive heartbeats a repaired node must answer before it
  /// rejoins (its lease valid again).
  uint32_t rejoin_probes = 2;

  /// When false the service detects and revokes (fencing still happens)
  /// but never runs repair hooks — the scripted-recovery / no-recovery
  /// comparison arms. Probing still resumes after `repair_delay_ns`, so an
  /// externally revived node is re-admitted through the same probation.
  bool auto_recover = true;
};

/// Fleet membership, failure detection, and unattended recovery
/// (DESIGN.md "Membership, leases, and self-healing").
///
/// Heartbeats ride the fabric op pipeline as ordinary `Call` verbs —
/// charged to the service's probe context, interceptable (fault windows
/// and congestion apply to probes exactly as to data traffic), and
/// deadline-capped at one heartbeat period. Suspicion updates, lease
/// revocations, orchestrated repairs, and rejoins all execute inside
/// `EndEpoch`, which the load driver calls at its epoch barriers
/// while no ops are in flight — so every decision is a pure function of
/// (seed, partitions, epoch_ns), bit-identical at any thread count. The
/// deterministic `events()` log is both the replay comparand and the
/// source of detection-latency / MTTR metrics.
///
/// Node lifecycle: kUp --(suspicion >= threshold)--> kRevoked (lease
/// epoch bumped, which fences every consumer bound to this authority;
/// repair timer armed) --(timer at a barrier)--> kRejoining (repair hook
/// runs, probation probing starts) --(rejoin_probes alive acks)--> kUp.
/// Repair runs at most once per lease epoch — actions are idempotent and
/// replayable by construction.
class MembershipService : public LeaseAuthority {
 public:
  enum class NodeHealth : uint8_t { kUp, kRevoked, kRejoining };

  struct Event {
    enum class Kind : uint8_t { kSuspect, kRevoke, kRepair, kRejoin };
    uint64_t at_ns = 0;
    NodeId node = 0;
    Kind kind = Kind::kSuspect;
    uint64_t lease_epoch = 0;  ///< lease epoch after the transition
    bool operator==(const Event&) const = default;
  };

  struct Stats {
    uint64_t heartbeats = 0;  ///< probes issued
    uint64_t misses = 0;      ///< Unavailable/TimedOut probe outcomes
    uint64_t gray_acks = 0;   ///< successful but slower than the gray bound
    uint64_t busy_acks = 0;   ///< Busy probe outcomes (alive, never a miss)
    uint64_t revocations = 0;
    uint64_t repairs = 0;
    uint64_t rejoins = 0;
  };

  MembershipService(Fabric* fabric, MembershipOptions opts);

  /// Places `node` under lease management: registers the `member.ping`
  /// handler on it and grants lease epoch 1. Config-time, like node
  /// registration; monitor before binding consumers to the authority.
  void Monitor(NodeId node);

  /// Recovery action for `node`, run once per revocation when the repair
  /// timer fires at a barrier (e.g. `MemNodeExecutor::Recover`, log-fleet
  /// `SealAndReconfigure`, buffer-pool `FenceCrashedWriters`). Only runs
  /// with `auto_recover` set. Must not call back into this service.
  void OnRepair(NodeId node, std::function<void()> fn);

  /// Schedules `fn` to run at the first barrier whose end >= `at_ns`
  /// (before that barrier's heartbeats), in (at_ns, registration) order.
  /// The deterministic stand-in for "a node dies at t": chaos schedules
  /// and benches arm kills and scripted revives through this.
  void At(uint64_t at_ns, std::function<void()> fn);

  /// Barrier step: runs due scheduled actions, due repairs, and every due
  /// heartbeat round (nodes in ascending id order), then applies suspicion
  /// and lifecycle transitions. Call with no ops in flight.
  void EndEpoch(uint64_t epoch_end_ns);

  /// Serial convenience for chaos loops: runs every barrier step at
  /// multiples of the heartbeat period up to `now_ns`. The barrier instants
  /// are a pure function of the caller's clock stream, so replays match.
  void AdvanceTo(uint64_t now_ns);

  // ---- LeaseAuthority ---------------------------------------------------
  uint64_t LeaseEpoch(NodeId node) const override;
  bool LeaseValid(NodeId node, uint64_t epoch) const override;

  const MembershipOptions& options() const { return opts_; }

  NodeHealth HealthFor(NodeId node) const;
  double SuspicionFor(NodeId node) const;
  const std::vector<Event>& events() const { return events_; }
  Stats stats() const;

  /// Aggregate probe traffic (heartbeat RTTs summed into `sim_ns`): the
  /// service is a tenant of the fabric like any other and its overhead is
  /// measurable.
  const NetContext& probe_context() const { return charge_; }

 private:
  struct NodeState {
    NodeHealth health = NodeHealth::kUp;
    uint64_t lease_epoch = 1;
    double suspicion = 0.0;
    double rtt_ewma = 0.0;  // 0 = no baseline yet
    bool suspected = false;  // kSuspect emitted since the last healthy ack
    uint64_t next_hb_ns = 0;
    uint64_t probe_seq = 0;
    uint64_t repair_due_ns = 0;      // armed while kRevoked
    uint64_t repaired_epoch = 0;     // lease epoch whose repair already ran
    uint32_t alive_probes = 0;       // consecutive, while kRejoining
    std::function<void()> on_repair;
  };

  struct ScheduledAction {
    uint64_t at_ns = 0;
    uint64_t seq = 0;
    std::function<void()> fn;
  };

  /// Issues one heartbeat and applies its outcome. `lock` is released
  /// around the fabric call (probes must not hold service state while the
  /// pipeline — and anything it fences — runs).
  void HeartbeatLocked(NodeId id, NodeState* st, uint64_t now_ns,
                       std::unique_lock<std::mutex>* lock);
  void RevokeLocked(NodeId id, NodeState* st, uint64_t now_ns);
  void RejoinLocked(NodeId id, NodeState* st, uint64_t now_ns);

  Fabric* const fabric_;
  const MembershipOptions opts_;

  mutable std::mutex mu_;
  std::map<NodeId, NodeState> nodes_;  // ascending id = barrier visit order
  std::vector<ScheduledAction> actions_;  // sorted by (at_ns, seq)
  uint64_t action_seq_ = 0;
  std::vector<Event> events_;
  NetContext charge_;
  Stats stats_;
  uint64_t advanced_to_ns_ = 0;  // AdvanceTo cursor
  bool advancing_ = false;       // AdvanceTo re-entrancy guard
};

}  // namespace disagg

#endif  // DISAGG_NET_MEMBERSHIP_H_
