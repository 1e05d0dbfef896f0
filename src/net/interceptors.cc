#include "net/interceptors.h"

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace disagg {

// ---- FaultInterceptor ----------------------------------------------------

bool FaultInterceptor::Decide(uint64_t seq, uint64_t salt, double p) const {
  if (p <= 0.0) return false;
  // Stateless: the decision depends only on (seed, seq, salt), so a given op
  // position in the stream always faults the same way regardless of thread
  // interleaving or which probabilities are also enabled.
  uint64_t mix = policy_.seed;
  mix ^= (seq + 1) * 0x9E3779B97F4A7C15ull;
  mix ^= (salt + 1) * 0xC2B2AE3D27D4EB4Full;
  Random rng(mix);
  return rng.Bernoulli(p);
}

Status FaultInterceptor::Intercept(Fabric* /*fabric*/, FabricOp* op,
                                   NetContext* ctx,
                                   const FabricOpInvoker& next) {
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);

  // In op-tag mode the decision key is a pure function of (which logical
  // op, which of its attempts, at what virtual time) — independent of the
  // global order in which threads reach this interceptor. The draw counter
  // advances so each retry of one op gets a fresh decision, as it did under
  // the sequence key.
  uint64_t key = seq;
  if (policy_.key_by_op_tag && ctx->op_tag != 0) {
    key = ctx->op_tag ^ ((ctx->fault_draws + 1) * 0xFF51AFD7ED558CCDull) ^
          ((ctx->sim_ns + 1) * 0xC4CEB9FE1A85EC53ull);
    ctx->fault_draws++;
  }

  for (const FaultPolicy::Flap& flap : policy_.flaps) {
    const bool active = flap.until_ns > flap.from_ns
                            ? (ctx->sim_ns >= flap.from_ns &&
                               ctx->sim_ns < flap.until_ns)
                            : (seq >= flap.from_seq && seq < flap.until_seq);
    if (flap.node == op->node && active) {
      flap_rejections_.fetch_add(1, std::memory_order_relaxed);
      ctx->Charge(FaultPolicy::kDropPenaltyNs);
      ctx->faults_injected++;
      return Status::Unavailable("injected flap: node " +
                                 std::to_string(op->node) + " down at op " +
                                 std::to_string(seq));
    }
  }

  // Asymmetric partitions: keyed purely by the issuing context's virtual
  // clock (and optionally the RPC method), so the window is part of the
  // model, not of execution order. A kRequestLost window refuses the op
  // before any side effect; a kReplyLost window lets the op EXECUTE and
  // loses the acknowledgement — the caller sees Unavailable although the
  // effect landed, the signature failure mode lease fencing must survive.
  for (const FaultPolicy::OneWay& ow : policy_.oneways) {
    if (ow.node != op->node || ctx->sim_ns < ow.from_ns ||
        ctx->sim_ns >= ow.until_ns) {
      continue;
    }
    if (!ow.method.empty() &&
        (op->verb != FabricVerb::kRpc || op->method == nullptr ||
         *op->method != ow.method)) {
      continue;
    }
    oneway_drops_.fetch_add(1, std::memory_order_relaxed);
    ctx->faults_injected++;
    if (ow.dir == FaultPolicy::OneWay::Direction::kRequestLost) {
      ctx->Charge(FaultPolicy::kDropPenaltyNs);
      return Status::Unavailable("injected one-way partition: request to node " +
                                 std::to_string(op->node) + " lost");
    }
    (void)next(op, ctx);
    ctx->Charge(FaultPolicy::kDropPenaltyNs);
    return Status::Unavailable("injected one-way partition: reply from node " +
                               std::to_string(op->node) + " lost");
  }

  if (Decide(key, /*salt=*/0xD0, policy_.drop_prob)) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    ctx->Charge(FaultPolicy::kDropPenaltyNs);
    ctx->faults_injected++;
    return Status::Unavailable("injected packet loss at op " +
                               std::to_string(seq));
  }

  // Gray slowdown windows active at the op's issue instant compound
  // multiplicatively; the extra cost is charged on top of whatever the op
  // itself cost, so a slowed node serves correct results late.
  double slow_factor = 1.0;
  for (const FaultPolicy::Slowdown& sd : policy_.slowdowns) {
    if (sd.node == op->node && sd.factor > 1.0 && ctx->sim_ns >= sd.from_ns &&
        ctx->sim_ns < sd.until_ns) {
      slow_factor *= sd.factor;
    }
  }
  const uint64_t ns_before = ctx->sim_ns;

  Status st = next(op, ctx);

  if (slow_factor > 1.0) {
    const uint64_t extra = static_cast<uint64_t>(
        static_cast<double>(ctx->sim_ns - ns_before) * (slow_factor - 1.0));
    if (extra > 0) {
      slowdown_hits_.fetch_add(1, std::memory_order_relaxed);
      ctx->Charge(extra);
      ctx->faults_injected++;
    }
  }

  if (st.ok() && Decide(key, /*salt=*/0x5A, policy_.spike_prob)) {
    spikes_.fetch_add(1, std::memory_order_relaxed);
    ctx->Charge(policy_.spike_ns);
    ctx->faults_injected++;
  }
  return st;
}

// ---- RetryInterceptor ----------------------------------------------------

bool RetryInterceptor::Retryable(const Status& st) const {
  if (st.IsUnavailable() || st.IsTimedOut()) return true;
  if (st.IsBusy()) return policy_.retry_busy;
  return false;
}

Status RetryInterceptor::Intercept(Fabric* /*fabric*/, FabricOp* op,
                                   NetContext* ctx,
                                   const FabricOpInvoker& next) {
  // Floor the backoff at 1 ns: a zero initial backoff would multiply to
  // zero forever and burn every attempt with no simulated cost (a busy-spin
  // no real client exhibits).
  uint64_t backoff = std::max<uint64_t>(1, policy_.initial_backoff_ns);
  Status st;
  for (int attempt = 1;; attempt++) {
    st = next(op, ctx);
    op->attempts = static_cast<uint32_t>(attempt);
    if (st.ok() || attempt >= policy_.max_attempts || !Retryable(st)) break;
    // An exhausted deadline cannot be cured by waiting longer.
    if (op->deadline_exhausted) break;
    // Admission rejections ("queue full") get a tighter re-issue budget than
    // contention Busy — retrying into a full queue amplifies the overload —
    // unless a deadline governs the op, in which case the remaining budget
    // decides below.
    if (op->admission_rejected && op->deadline_ns == 0 &&
        attempt >= policy_.max_admission_attempts) {
      break;
    }
    // Never back off past the remaining deadline budget: an attempt issued
    // at or after the deadline is refused anyway, so give up now instead of
    // charging backoff that cannot buy another attempt.
    if (op->deadline_ns != 0 && ctx->sim_ns + backoff >= op->deadline_ns) {
      break;
    }
    ctx->Charge(backoff);
    ctx->backoff_ns += backoff;
    ctx->retries++;
    retries_.fetch_add(1, std::memory_order_relaxed);
    backoff = std::min<uint64_t>(
        policy_.max_backoff_ns,
        static_cast<uint64_t>(static_cast<double>(backoff) *
                              policy_.backoff_multiplier));
    backoff = std::max<uint64_t>(1, backoff);  // multiplier < 1 can re-zero it
  }
  if (!st.ok() && Retryable(st)) {
    gave_up_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

}  // namespace disagg
