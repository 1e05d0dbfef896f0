#ifndef DISAGG_NET_NET_CONTEXT_H_
#define DISAGG_NET_NET_CONTEXT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "net/verb.h"

namespace disagg {

/// Per-verb slice of a client's traffic: how many operations of one verb the
/// client executed and what they cost. On a run with no interceptor-injected
/// perturbation, summing these over all verbs reproduces the aggregate
/// fabric-charged counters exactly (local compute charged directly via
/// `Charge()` by upper layers is aggregate-only by design).
struct VerbCounters {
  uint64_t ops = 0;        ///< operations of this verb that reached the target
  uint64_t sim_ns = 0;     ///< simulated time charged by those operations
  uint64_t bytes_out = 0;  ///< bytes pushed by those operations
  uint64_t bytes_in = 0;   ///< bytes pulled by those operations

  void Merge(const VerbCounters& o) {
    ops += o.ops;
    sim_ns += o.sim_ns;
    bytes_out += o.bytes_out;
    bytes_in += o.bytes_in;
  }
};

/// Per-client accounting of simulated time and traffic. Every fabric
/// operation issued with this context charges its cost here; benchmarks
/// derive throughput and latency from the accumulated simulated nanoseconds,
/// which is deterministic and independent of host speed or core count.
struct NetContext {
  uint64_t sim_ns = 0;        ///< total simulated time consumed
  uint64_t bytes_out = 0;     ///< bytes this client pushed onto the fabric
  uint64_t bytes_in = 0;      ///< bytes this client pulled off the fabric
  uint64_t round_trips = 0;   ///< network round trips (RDMA verbs + RPCs)
  uint64_t rpcs = 0;          ///< two-sided operations among the round trips

  // Interceptor-maintained robustness counters. `backoff_ns` and fault
  // penalties are *included* in `sim_ns`; these break out where it went.
  uint64_t retries = 0;          ///< op re-issues by the retry interceptor
  uint64_t backoff_ns = 0;       ///< sim time spent in retry backoff
  uint64_t faults_injected = 0;  ///< drops/spikes/flaps hit by this client

  /// Queueing delay imposed by the shared-resource congestion model
  /// (`src/net/congestion.h`), *included* in `sim_ns` like `backoff_ns`.
  /// Always 0 when congestion is disabled or the fabric is uncontended.
  uint64_t queue_ns = 0;

  /// Ops refused up front by congestion admission control
  /// (`ResourceCapacity::max_backlog_ns`); each was failed with
  /// `Status::Busy` and charged only `CongestionConfig::kRejectionCostNs`
  /// (included in `sim_ns`, not in `queue_ns`).
  uint64_t admission_rejects = 0;

  // ---- Graceful-degradation counters (all 0 unless a deadline or degrade
  // policy is configured; see DESIGN.md "Graceful degradation") -----------

  /// Ops whose completion overran the context's `deadline_ns` budget, plus
  /// ops refused up front because the budget was already exhausted at issue
  /// time (those fail with `Status::TimedOut` before touching the wire).
  uint64_t deadline_misses = 0;

  /// Reads served by the engine degrade ladder from a bounded-staleness
  /// replica copy (the strict-freshness path had failed with
  /// Busy/Unavailable/TimedOut first).
  uint64_t degraded_ops = 0;

  /// Total staleness observed across `degraded_ops`, in LSN units:
  /// sum over degraded reads of (required page LSN - served copy's LSN).
  /// Always <= degraded_ops * the policy's staleness bound.
  uint64_t staleness_lsn = 0;

  /// Absolute virtual-time deadline for ops issued on this context
  /// (0 = no deadline, the default). An *input* attribute like `tenant`:
  /// `Fork()` inherits it, merges leave the destination's value. The retry
  /// interceptor never backs off past the remaining budget, and the fabric
  /// refuses ops issued at or after the deadline with `Status::TimedOut`.
  /// Compared against `sim_ns`, so callers set it as `sim_ns + budget`.
  uint64_t deadline_ns = 0;

  /// Tenant id stamped onto every fabric op this context issues
  /// (`FabricOp::tenant`): the key for weighted fair queueing and per-tenant
  /// admission control at congested resources. 0 (the default) is an
  /// ordinary tenant like any other — with no `tenant_weights` configured
  /// the congestion model never looks at it. An *input* attribute, not a
  /// counter: `Fork()` inherits it and merges leave the destination's value.
  uint32_t tenant = 0;

  /// Deterministic identity of the logical operation this context is
  /// issuing, stamped by the load drivers as a pure function of
  /// (client, op index); 0 = untagged. With
  /// `FaultPolicy::key_by_op_tag` set, fault decisions are keyed by
  /// (op_tag, fault_draws, sim_ns) instead of the interceptor's global op
  /// sequence — required under the epoch-parallel driver, where the global
  /// order in which ops reach an interceptor is an execution detail, not
  /// part of the model. An *input* attribute like `tenant`: `Fork()`
  /// inherits it, merges leave the destination's value.
  uint64_t op_tag = 0;

  /// How many fault-injection decisions this context has drawn (advanced by
  /// the fault interceptor in `key_by_op_tag` mode so retries of one op get
  /// fresh draws). Bookkeeping, not a metric: `Fork()` starts a branch at 0
  /// — branches decorrelate through their distinct issue times — and merges
  /// leave the destination's value.
  uint64_t fault_draws = 0;

  /// Per-verb breakdown of the fabric-charged counters above, maintained by
  /// `Fabric::Execute()`.
  VerbCounters per_verb[kNumFabricVerbs] = {};

  const VerbCounters& verb(FabricVerb v) const { return per_verb[VerbIndex(v)]; }

  void Charge(uint64_t ns) { sim_ns += ns; }

  void Reset() { *this = NetContext{}; }

  /// A branch context for work forked *now*: the clock starts at this
  /// context's current `sim_ns` (so fabric ops issued on the branch arrive
  /// at the congestion model at the right virtual time), while all traffic
  /// counters start at zero. `FanOut()` forks every branch this way; with
  /// congestion disabled it charges exactly what zero-initialized branches +
  /// `MergeParallel` charge.
  NetContext Fork() const {
    NetContext b;
    b.sim_ns = sim_ns;
    b.tenant = tenant;  // branches bill the same tenant at shared resources
    b.deadline_ns = deadline_ns;  // branches race the same budget
    b.op_tag = op_tag;            // branches are legs of the same logical op
    return b;
  }

  double SimMillis() const { return static_cast<double>(sim_ns) / 1e6; }
};

/// Sums one branch's traffic/attribution counters (everything except the
/// clock) into `parent`; the shared leg of `MergeParallel` and `FanOut`.
inline void AccumulateTraffic(NetContext* parent, const NetContext& b) {
  parent->bytes_out += b.bytes_out;
  parent->bytes_in += b.bytes_in;
  parent->round_trips += b.round_trips;
  parent->rpcs += b.rpcs;
  parent->retries += b.retries;
  parent->backoff_ns += b.backoff_ns;
  parent->faults_injected += b.faults_injected;
  parent->queue_ns += b.queue_ns;
  parent->admission_rejects += b.admission_rejects;
  parent->deadline_misses += b.deadline_misses;
  parent->degraded_ops += b.degraded_ops;
  parent->staleness_lsn += b.staleness_lsn;
  for (size_t v = 0; v < kNumFabricVerbs; v++) {
    parent->per_verb[v].Merge(b.per_verb[v]);
  }
}

/// Folds the contexts of operations issued *in parallel* from time zero
/// (e.g. Snowflake virtual warehouses or a bench's concurrent clients) into
/// a parent context: elapsed simulated time is the
/// max of the branches, while traffic counters are summed. Per-verb
/// breakdowns, `backoff_ns`, and `queue_ns` (like traffic) are attribution
/// counters and are summed, so after a parallel merge they bound, rather
/// than equal, the parent's elapsed `sim_ns`.
///
/// Rule of thumb: one timeline -> `AccumulateTraffic` plus the summed
/// `sim_ns`; side-by-side timelines -> `MergeParallel`; branches forked
/// mid-timeline -> `FanOut`. Users: pushdown producers and consumers
/// (`src/query/pushdown.cc`), the `SnowflakeDb::Query` VW merge and the
/// E9/E20 benches' concurrent clients. The load driver folds its clients the
/// same way, summing `AccumulateTraffic` per partition rather than keeping a
/// context per open-loop client.
inline void MergeParallel(NetContext* parent,
                          const NetContext* branches, size_t n) {
  uint64_t max_ns = 0;
  for (size_t i = 0; i < n; i++) {
    const NetContext& b = branches[i];
    if (b.sim_ns > max_ns) max_ns = b.sim_ns;
    AccumulateTraffic(parent, b);
  }
  parent->sim_ns += max_ns;
}

/// Runs an *internal* fan-out on one client's timeline (quorum, Raft and
/// log-store appends, page-store broadcast, freshest-wins page reads, FORD
/// lock and validate phases): for each element of `items`, `fn(item,
/// &branch)` issues that element's work on `branch`, a `ctx->Fork()` taken
/// at the fan-out's start. Each branch is folded into `ctx` as soon as it
/// returns: its traffic and attribution counters are summed
/// (`AccumulateTraffic`) and `ctx`'s clock ends at the latest branch finish
/// (branch clocks are absolute), so no branch vector is built. A non-OK
/// `fn` result stops the fan-out after that branch is folded and is
/// returned, so every branch that ran is charged. Sites that tolerate a
/// per-branch failure (quorum and majority counts) return OK from `fn` and
/// count their own acks. `MergeParallel` remains the fold for *top-level*
/// concurrent clients whose timelines all start at zero.
template <typename Items, typename Fn>
Status FanOut(NetContext* ctx, const Items& items, Fn fn) {
  // `ctx->sim_ns` stays at the fan-out's start until every branch has run,
  // so each `Fork()` starts its branch there.
  uint64_t end_ns = ctx->sim_ns;
  Status st;
  for (const auto& item : items) {
    NetContext branch = ctx->Fork();
    st = fn(item, &branch);
    AccumulateTraffic(ctx, branch);
    if (branch.sim_ns > end_ns) end_ns = branch.sim_ns;
    if (!st.ok()) break;
  }
  ctx->sim_ns = end_ns;
  return st;
}

}  // namespace disagg

#endif  // DISAGG_NET_NET_CONTEXT_H_
