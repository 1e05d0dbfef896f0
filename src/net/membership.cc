#include "net/membership.h"

#include <algorithm>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kPing(membership::kPingMethod);

/// Deterministic nonzero op tag for a heartbeat probe: keyed fault policies
/// (`key_by_op_tag`) then draw per-probe, not per-sequence-slot, so probe
/// outcomes replay regardless of how much data traffic interleaves.
uint64_t ProbeTag(NodeId node, uint64_t probe_seq) {
  uint64_t tag = 0x4D454D4245525348ull;  // "MEMBERSH"
  tag ^= (static_cast<uint64_t>(node) + 1) * 0x9E3779B97F4A7C15ull;
  tag ^= (probe_seq + 1) * 0xC2B2AE3D27D4EB4Full;
  return tag == 0 ? 1 : tag;
}

}  // namespace

MembershipService::MembershipService(Fabric* fabric, MembershipOptions opts)
    : fabric_(fabric), opts_(opts) {}

void MembershipService::Monitor(NodeId node) {
  Node* n = fabric_->node(node);
  n->RegisterHandler(
      kPing,
      [](Slice request, std::string* response, RpcServerContext* server_ctx) {
        server_ctx->ChargeCompute(membership::kPingComputeNs);
        response->assign(request.data(), request.size());  // echo
        return Status::OK();
      });
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.emplace(node, NodeState{});
}

void MembershipService::OnRepair(NodeId node, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_[node].on_repair = std::move(fn);
}

void MembershipService::At(uint64_t at_ns, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  ScheduledAction action;
  action.at_ns = at_ns;
  action.seq = action_seq_++;
  action.fn = std::move(fn);
  auto pos = std::upper_bound(
      actions_.begin(), actions_.end(), action,
      [](const ScheduledAction& a, const ScheduledAction& b) {
        return a.at_ns != b.at_ns ? a.at_ns < b.at_ns : a.seq < b.seq;
      });
  actions_.insert(pos, std::move(action));
}

void MembershipService::EndEpoch(uint64_t epoch_end_ns) {
  std::unique_lock<std::mutex> lock(mu_);

  // 1. Scheduled actions due at this barrier, in (at_ns, registration)
  //    order. Run unlocked: kills/revives touch node + executor state.
  while (!actions_.empty() && actions_.front().at_ns <= epoch_end_ns) {
    std::function<void()> fn = std::move(actions_.front().fn);
    actions_.erase(actions_.begin());
    lock.unlock();
    fn();
    lock.lock();
  }

  // 2. Per node, ascending id (the merge order every shard-merging control
  //    plane in this repo uses): due repairs, then the due heartbeat round.
  for (auto& [id, st] : nodes_) {
    if (st.health == NodeHealth::kRevoked) {
      if (st.repair_due_ns == 0 || epoch_end_ns < st.repair_due_ns) continue;
      st.repair_due_ns = 0;
      st.health = NodeHealth::kRejoining;
      st.alive_probes = 0;
      events_.push_back(
          {epoch_end_ns, id, Event::Kind::kRepair, st.lease_epoch});
      stats_.repairs++;
      // Once per lease epoch: replaying a barrier (or a second timer for
      // the same revocation) must not re-run the recovery action.
      if (opts_.auto_recover && st.on_repair &&
          st.repaired_epoch != st.lease_epoch) {
        st.repaired_epoch = st.lease_epoch;
        std::function<void()> hook = st.on_repair;
        lock.unlock();
        hook();
        lock.lock();
      }
      // Fall through: the freshly repaired node starts probation at this
      // same barrier.
    }
    if (epoch_end_ns < st.next_hb_ns) continue;
    st.next_hb_ns = epoch_end_ns + opts_.heartbeat_period_ns;
    HeartbeatLocked(id, &st, epoch_end_ns, &lock);
  }
}

void MembershipService::AdvanceTo(uint64_t now_ns) {
  uint64_t period;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-entrancy guard: a caller may pump AdvanceTo from inside the op
    // pipeline (chaos does), and our own heartbeat probes traverse that
    // same pipeline — the nested pump must observe "already advancing"
    // and fall straight through.
    if (advancing_) return;
    advancing_ = true;
    period = opts_.heartbeat_period_ns;
  }
  // Impose the barrier structure the load driver's epochs give: one step
  // per period boundary. The set of instants is a pure function
  // of the caller's (monotone) clock, so chaos replays are bit-identical.
  for (;;) {
    uint64_t step_ns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (advanced_to_ns_ + period > now_ns) {
        advancing_ = false;
        return;
      }
      advanced_to_ns_ += period;
      step_ns = advanced_to_ns_;
    }
    EndEpoch(step_ns);
  }
}

void MembershipService::HeartbeatLocked(NodeId id, NodeState* st,
                                        uint64_t now_ns,
                                        std::unique_lock<std::mutex>* lock) {
  st->probe_seq++;
  NetContext ctx;
  ctx.sim_ns = now_ns;
  ctx.op_tag = ProbeTag(id, st->probe_seq);
  // A probe slower than one period is a miss by definition; the deadline
  // also caps retry-style amplification if callers stack interceptors.
  ctx.deadline_ns = now_ns + opts_.heartbeat_period_ns;
  std::string request, response;
  PutFixed64(&request, st->probe_seq);

  lock->unlock();
  const Status pst = fabric_->Call(&ctx, id, kPing, request, &response);
  lock->lock();

  stats_.heartbeats++;
  const uint64_t rtt = ctx.sim_ns - now_ns;
  AccumulateTraffic(&charge_, ctx);
  charge_.sim_ns += rtt;

  bool alive = false;
  if (pst.ok()) {
    if (st->rtt_ewma > 0.0 &&
        static_cast<double>(rtt) >
            opts_.gray_rtt_factor * st->rtt_ewma) {
      // Gray: answered, but far outside its own baseline. Suspicion grows
      // slowly (half a miss by default) and the baseline stays frozen so
      // the slowdown cannot normalize itself.
      st->suspicion += opts_.gray_increment;
      stats_.gray_acks++;
    } else {
      alive = true;
      st->suspicion *= opts_.healthy_decay;
      st->rtt_ewma =
          st->rtt_ewma == 0.0
              ? static_cast<double>(rtt)
              : opts_.rtt_alpha * static_cast<double>(rtt) +
                    (1.0 - opts_.rtt_alpha) * st->rtt_ewma;
    }
  } else if (pst.IsBusy()) {
    // Admission rejection: the node is alive and shedding load. Decays
    // suspicion, never updates the RTT baseline, never counts as a miss —
    // overload must not amputate fleet members.
    alive = true;
    st->suspicion *= opts_.healthy_decay;
    stats_.busy_acks++;
  } else {
    // Unavailable / TimedOut / anything else: a hard miss.
    st->suspicion += opts_.miss_increment;
    stats_.misses++;
  }

  if (alive && st->suspicion < 0.5 * opts_.suspicion_threshold) {
    st->suspected = false;
  }

  if (st->health == NodeHealth::kUp) {
    if (!st->suspected && st->suspicion >= 0.5 * opts_.suspicion_threshold) {
      st->suspected = true;
      events_.push_back({now_ns, id, Event::Kind::kSuspect, st->lease_epoch});
    }
    if (st->suspicion >= opts_.suspicion_threshold) {
      RevokeLocked(id, st, now_ns);
    }
  } else if (st->health == NodeHealth::kRejoining) {
    if (alive) {
      if (++st->alive_probes >= opts_.rejoin_probes) {
        RejoinLocked(id, st, now_ns);
      }
    } else {
      st->alive_probes = 0;  // probation restarts on any non-alive signal
    }
  }
}

void MembershipService::RevokeLocked(NodeId id, NodeState* st,
                                     uint64_t now_ns) {
  st->health = NodeHealth::kRevoked;
  st->lease_epoch++;
  st->suspected = false;
  st->repair_due_ns = now_ns + opts_.repair_delay_ns;
  events_.push_back({now_ns, id, Event::Kind::kRevoke, st->lease_epoch});
  stats_.revocations++;
}

void MembershipService::RejoinLocked(NodeId id, NodeState* st,
                                     uint64_t now_ns) {
  st->health = NodeHealth::kUp;
  st->suspicion = 0.0;
  st->alive_probes = 0;
  st->rtt_ewma = 0.0;  // new incarnation, new baseline
  events_.push_back({now_ns, id, Event::Kind::kRejoin, st->lease_epoch});
  stats_.rejoins++;
}

uint64_t MembershipService::LeaseEpoch(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.lease_epoch;
}

bool MembershipService::LeaseValid(NodeId node, uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return true;  // unmonitored: never fenced
  return it->second.health != NodeHealth::kRevoked &&
         epoch == it->second.lease_epoch;
}

MembershipService::NodeHealth MembershipService::HealthFor(
    NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? NodeHealth::kUp : it->second.health;
}

double MembershipService::SuspicionFor(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? 0.0 : it->second.suspicion;
}

MembershipService::Stats MembershipService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace disagg
