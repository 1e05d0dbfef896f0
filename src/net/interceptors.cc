#include "net/interceptors.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/random.h"

namespace disagg {

// ---- TraceInterceptor ----------------------------------------------------

Status TraceInterceptor::Intercept(Fabric* fabric, FabricOp* op,
                                   NetContext* ctx,
                                   const FabricOpInvoker& next) {
  const uint64_t ns_before = ctx->sim_ns;
  const uint64_t out_before = ctx->bytes_out;
  const uint64_t in_before = ctx->bytes_in;
  const uint64_t queue_before = ctx->queue_ns;
  Status st = next(op, ctx);
  const uint64_t ns = ctx->sim_ns - ns_before;

  std::string key = FabricVerbName(op->verb);
  key += '/';
  const Node* target = fabric->node(op->node);
  if (target != nullptr) {
    key += target->model().name;
    key += '/';
    key += NodeKindName(target->kind());
  } else {
    key += "?/?";
  }

  std::lock_guard<std::mutex> lock(mu_);
  ops_++;
  if (!st.ok()) failures_++;
  hists_[key].Record(ns);
  if (capacity_ > 0) {
    TraceRecord rec;
    rec.seq = seq_++;
    rec.verb = op->verb;
    rec.node = op->node;
    rec.tenant = op->tenant;
    rec.bytes_out = ctx->bytes_out - out_before;
    rec.bytes_in = ctx->bytes_in - in_before;
    rec.sim_ns = ns;
    rec.queue_ns = ctx->queue_ns - queue_before;
    rec.ok = st.ok();
    if (ring_.size() < capacity_) {
      ring_.push_back(rec);
    } else {
      ring_[ring_next_] = rec;
      ring_next_ = (ring_next_ + 1) % capacity_;
    }
  }
  return st;
}

uint64_t TraceInterceptor::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

uint64_t TraceInterceptor::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::vector<std::string> TraceInterceptor::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(hists_.size());
  for (const auto& [key, hist] : hists_) keys.push_back(key);
  return keys;
}

Histogram TraceInterceptor::HistogramFor(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hists_.find(key);
  return it == hists_.end() ? Histogram{} : it->second;
}

std::vector<TraceInterceptor::TraceRecord> TraceInterceptor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || capacity_ == 0) {
    out = ring_;
  } else {
    for (size_t i = 0; i < ring_.size(); i++) {
      out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
    }
  }
  return out;
}

std::string TraceInterceptor::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"ops\":" << ops_ << ",\"failures\":" << failures_
     << ",\"histograms\":{";
  bool first = true;
  for (const auto& [key, hist] : hists_) {
    if (!first) os << ',';
    first = false;
    os << '"' << key << "\":{\"count\":" << hist.count()
       << ",\"mean_ns\":" << hist.Mean() << ",\"p50_ns\":" << hist.Percentile(50)
       << ",\"p99_ns\":" << hist.Percentile(99) << ",\"max_ns\":" << hist.max()
       << '}';
  }
  os << "},\"trace\":[";
  // Oldest-first walk of the ring (inline Snapshot; we already hold mu_).
  const size_t n = ring_.size();
  const size_t start = (capacity_ > 0 && n == capacity_) ? ring_next_ : 0;
  for (size_t i = 0; i < n; i++) {
    const TraceRecord& r = ring_[(start + i) % n];
    if (i > 0) os << ',';
    os << "{\"seq\":" << r.seq << ",\"verb\":\"" << FabricVerbName(r.verb)
       << "\",\"node\":" << r.node << ",\"tenant\":" << r.tenant
       << ",\"bytes_out\":" << r.bytes_out
       << ",\"bytes_in\":" << r.bytes_in << ",\"sim_ns\":" << r.sim_ns
       << ",\"queue_ns\":" << r.queue_ns
       << ",\"ok\":" << (r.ok ? "true" : "false") << '}';
  }
  os << "]}";
  return os.str();
}

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
  if (st.IsUnavailable()) return policy_.retry_unavailable;
  if (st.IsTimedOut()) return policy_.retry_timed_out;
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
