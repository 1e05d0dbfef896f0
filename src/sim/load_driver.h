#ifndef DISAGG_SIM_LOAD_DRIVER_H_
#define DISAGG_SIM_LOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "net/net_context.h"

namespace disagg {

class SloController;      // src/net/slo_controller.h
class MembershipService;  // src/net/membership.h

namespace sim {

/// Default virtual-time epoch width of the load driver (100 us): wide
/// enough to amortize the barrier, narrow enough that cross-partition effect
/// exchange stays timely at the congestion timescales the benches use.
inline constexpr uint64_t kDefaultEpochNs = 100'000;

/// How the load driver executes a run (DESIGN.md "Parallel simulation").
///
/// The driver splits clients into `partitions` round-robin partitions
/// (client -> client % partitions) and advances them through bounded
/// virtual-time epochs. Within an epoch each partition processes its own
/// virtual-time heap; then all partitions barrier. With more than one
/// partition, each runs against partition-local views of the
/// order-sensitive shared state (the per-node congestion queues), and
/// the barrier replays their effect logs into the authoritative state in
/// partition-id order. A single partition has nothing to exchange: its ops
/// act on the authoritative state directly, in global virtual-time order.
///
/// The determinism contract: the result is a pure function of
/// (seed, workload, `partitions`, `epoch_ns`) — `threads` is purely an
/// execution resource and NEVER affects a single counter or trace bit
/// (pinned by tests/parallel_sim_test.cc across thread counts 1/2/8).
/// `partitions == 1` is the global virtual-time schedule (pinned against a
/// reference loop in the same test); `partitions > 1` is its own (equally
/// deterministic) schedule in which cross-partition interference at shared
/// resources is exchanged at epoch granularity rather than per op.
struct ParallelConfig {
  uint32_t threads = 1;     ///< worker threads (execution resource only)
  uint32_t partitions = 1;  ///< client partitions (0 is read as 1)
  uint64_t epoch_ns = 0;    ///< epoch width; 0 = kDefaultEpochNs
  bool record_trace = false;  ///< fill `LoadReport::trace` (one record/op)

  /// SLO control plane hook: when set, every completed op is reported to
  /// the controller (tenant taken from the op's context; partitions'
  /// observations are ingested at the barrier) and
  /// `SloController::EndEpoch` fires at every epoch barrier. Controller
  /// decisions are a pure function of (seed, workload, partitions,
  /// epoch_ns), never of `threads`. Not owned.
  SloController* controller = nullptr;

  /// Fleet membership hook: when set, `MembershipService::EndEpoch` fires at
  /// every epoch barrier (after the SLO controller's), so heartbeat rounds,
  /// suspicion updates, lease revocations, and orchestrated repairs execute
  /// between epochs, never inside one — a pure function of (seed, workload,
  /// partitions, epoch_ns), never of `threads`. Not owned.
  MembershipService* membership = nullptr;
};

/// Options for one closed-loop load run: N logical clients, each issuing
/// `ops_per_client` operations back to back (plus optional think time),
/// interleaved in *virtual* time.
struct LoadOptions {
  uint64_t clients = 1;
  uint64_t ops_per_client = 100;
  uint64_t think_ns = 0;  ///< client-side pause between ops (charged, but
                          ///< excluded from the per-op latency samples)
  uint64_t seed = 1;      ///< per-client RNGs derive from this
  ParallelConfig parallel;
};

/// How an open-loop client's arrival process is drawn.
enum class ArrivalProcess {
  kPoisson,        ///< exponential inter-arrivals at the offered rate
  kDeterministic,  ///< fixed spacing 1e9/rate, clients phase-staggered
};

/// Options for one open-loop run: N independent arrival streams, each
/// issuing `ops_per_client` operations at `ops_per_sec` *regardless of
/// completions* — the offered load does not self-throttle at saturation,
/// which is what exposes the unbounded-queue regime past capacity.
struct OpenLoopOptions {
  uint64_t clients = 1;
  uint64_t ops_per_client = 100;
  double ops_per_sec = 1e6;  ///< offered rate PER CLIENT (aggregate = N x)
  ArrivalProcess process = ArrivalProcess::kPoisson;
  uint64_t seed = 1;  ///< workload RNG streams derive exactly as in
                      ///< `LoadOptions` (same seed -> same op draws);
                      ///< arrival streams use an independent derivation
  ParallelConfig parallel;
};

/// Issues one operation on behalf of `client` (0-based). All simulated cost
/// must be charged to `ctx`; `rng` is the client's private deterministic
/// stream. Returning a non-ok status counts as an error but does not stop
/// the client (its charged time still advances, like a real failed request).
/// Multi-tenant workloads set `ctx->tenant` (first thing, before any fabric
/// op) to bill the op's traffic at congested resources.
using ClientOpFn = std::function<Status(uint64_t client, uint64_t op_index,
                                        NetContext* ctx, Random* rng)>;

/// Result of a closed- or open-loop run.
struct LoadReport {
  uint64_t clients = 0;
  uint64_t ops = 0;     ///< operations issued (ok + errors)
  uint64_t errors = 0;  ///< non-ok operations
  uint64_t busy = 0;    ///< subset of errors that returned Status::Busy
                        ///< (admission-control rejections fail this way)

  /// Wall-clock of the run in simulated time: max over clients of their
  /// final `sim_ns` (the slowest client defines the makespan).
  uint64_t makespan_ns = 0;

  /// Per-op latency (charged sim time per op, think time excluded). For
  /// open-loop runs this is the *response time* from arrival to completion.
  Histogram latency;

  /// All ops' traffic counters summed, as `MergeParallel` folds concurrent
  /// clients; `total.sim_ns` equals `makespan_ns`.
  NetContext total;

  /// Each client's final simulated clock (completion of its last op);
  /// `makespan_ns` is the max of these.
  std::vector<uint64_t> per_client_sim_ns;

  // ---- Open-loop only (zero for closed-loop runs) ---------------------

  /// Aggregate offered load (`clients * ops_per_sec`). Compare against
  /// `ThroughputOpsPerSec()`: below capacity they agree; past capacity the
  /// achieved rate plateaus while offered keeps rising.
  double offered_ops_per_sec = 0.0;

  /// Ops in flight sampled at every arrival instant (for Poisson arrivals
  /// PASTA makes these samples unbiased time averages). Mean/max/percentiles
  /// show the queue-depth-over-time behaviour: bounded below the knee,
  /// growing without bound past it. Computed at every epoch barrier from
  /// that epoch's ops in canonical order (see `trace`), with the set of
  /// unfinished ops carried from epoch to epoch — equal to replaying the
  /// whole canonical trace, without keeping it unless `record_trace` is set.
  Histogram queue_depth;
  uint64_t max_in_flight = 0;

  /// One record per op when `ParallelConfig::record_trace` is set: the
  /// trace the determinism suite compares bit for bit. Canonical order is
  /// (arrival_ns, client, op_index) — the global virtual-time order with a
  /// client-id tie-break, independent of partitions and threads. The driver
  /// appends each epoch's records at its barrier, merged from the
  /// partitions in that order; epochs split virtual time, so no whole-run
  /// sort is needed.
  struct OpTrace {
    uint64_t arrival_ns = 0;  ///< when the op was issued (closed loop: the
                              ///< client's clock before the op)
    uint64_t done_ns = 0;     ///< the issuing context's clock after the op
    uint64_t client = 0;
    uint64_t op_index = 0;
    Status::Code code = Status::Code::kOk;
    bool operator==(const OpTrace&) const = default;
  };
  std::vector<OpTrace> trace;

  /// Epoch barriers the run crossed (empty epochs are skipped, not
  /// counted).
  uint64_t epochs = 0;

  double ThroughputOpsPerSec() const {
    return makespan_ns == 0 ? 0.0
                            : static_cast<double>(ops) * 1e9 /
                                  static_cast<double>(makespan_ns);
  }
};

/// Runs `opts.clients` closed-loop clients against `op`, interleaving them
/// in global virtual-time order: at every step the client with the smallest
/// simulated clock issues its next operation. This ordering is what makes
/// the shared-resource congestion model (`src/net/congestion.h`) a
/// queue-by-arrival discipline — arrivals at every resource are
/// non-decreasing — and it makes the whole run a pure function of (`opts`,
/// the op closure): same seed, same trace, bit for bit. With more than one
/// partition the order holds within each partition and epoch (see
/// `ParallelConfig`); `threads` never enters the function.
LoadReport RunClosedLoop(const LoadOptions& opts, const ClientOpFn& op);

/// Runs `opts.clients` open-loop arrival streams against `op`. Arrival
/// times are generated up front from the offered rate (Poisson or
/// deterministic per `opts.process`) and the streams are interleaved in
/// global virtual-time order; each arrival executes on a context whose
/// clock starts at the arrival instant, so its charged completion time and
/// queueing delay are independent of how backed up other arrivals already
/// are on the client side. Ops keep being issued at the offered rate even
/// when earlier ops are still queued — past capacity the in-flight count
/// and the response-time tail grow without bound, exactly the regime
/// closed-loop clients cannot reach. Deterministic: same options, same
/// trace, bit for bit; partitions and threads as in `RunClosedLoop`.
/// Non-finite or non-positive rates, and rates so low that a stream's
/// arrivals could overrun the 64-bit virtual clock, return an empty report
/// (as a zero rate does).
LoadReport RunOpenLoop(const OpenLoopOptions& opts, const ClientOpFn& op);

}  // namespace sim
}  // namespace disagg

#endif  // DISAGG_SIM_LOAD_DRIVER_H_
