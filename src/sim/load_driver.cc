#include "sim/load_driver.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "net/membership.h"
#include "net/partition.h"
#include "net/slo_controller.h"

namespace disagg {
namespace sim {

namespace {

/// Distinct, seed-derived per-client streams (golden-ratio spacing avoids
/// the correlated low bits of seed, seed+1, ...). The SAME derivation is
/// used by both loop shapes so a workload closure draws identically under
/// closed- and open-loop scheduling.
uint64_t ClientSeed(uint64_t seed, uint64_t client) {
  return seed + client * 0x9E3779B97F4A7C15ull;
}

/// Salt for the open-loop arrival streams, independent of the workload
/// streams so switching arrival processes never perturbs the op draws.
constexpr uint64_t kArrivalSalt = 0xA221BA15ED5EEDull;

/// The `NetContext::op_tag` for (client, op_index): a nonzero hash that is
/// a pure function of the logical op's identity, so tag-keyed fault
/// decisions are identical under any scheduling of the same workload.
uint64_t OpTag(uint64_t client, uint64_t op_index) {
  uint64_t mix = (client + 1) * 0x9E3779B97F4A7C15ull;
  mix ^= (op_index + 1) * 0xC2B2AE3D27D4EB4Full;
  mix ^= mix >> 29;
  return mix | 1;  // 0 means "untagged"
}

/// Heap entry: the client's virtual clock, with the client id as a
/// deterministic tie-break (lower id goes first at equal times).
struct Runnable {
  uint64_t at_ns;
  uint64_t client;
  bool operator>(const Runnable& o) const {
    return at_ns != o.at_ns ? at_ns > o.at_ns : client > o.client;
  }
};

/// Inter-arrival gap for one open-loop stream (`period_ns` = 1e9 / rate).
uint64_t NextGapNs(const OpenLoopOptions& opts, double period_ns,
                   Random* arrival_rng) {
  if (opts.process == ArrivalProcess::kDeterministic) {
    return static_cast<uint64_t>(period_ns);
  }
  // Exponential inter-arrival. NextDouble() is in [0, 1), so the argument
  // of log is in (0, 1] and the gap is finite.
  const double u = arrival_rng->NextDouble();
  return static_cast<uint64_t>(-std::log(1.0 - u) * period_ns);
}

/// First arrival of client `c`'s open-loop stream.
uint64_t FirstArrivalNs(const OpenLoopOptions& opts, double period_ns,
                        uint64_t c, Random* arrival_rng) {
  if (opts.process == ArrivalProcess::kDeterministic) {
    // Phase-stagger the streams across one period so N deterministic
    // clients offer a smooth aggregate rate instead of N-bursts.
    return static_cast<uint64_t>(period_ns * static_cast<double>(c) /
                                 static_cast<double>(opts.clients));
  }
  return NextGapNs(opts, period_ns, arrival_rng);
}

/// Epoch end for the epoch containing `at_ns` (epochs are half-open
/// [k*epoch_ns, (k+1)*epoch_ns) windows of virtual time).
uint64_t EpochEndFor(uint64_t at_ns, uint64_t epoch_ns) {
  return (at_ns / epoch_ns + 1) * epoch_ns;
}

/// Persistent worker pool with a generation barrier: `Run(fn)` executes
/// fn(p) for every partition p — worker t takes partitions t, t+T, t+2T, …
/// — and returns once all are done. The partition→thread mapping is pure
/// load balancing: partitions share no mutable state within an epoch, and
/// the barrier's mutex publishes each epoch's writes to the main thread, so
/// WHICH thread ran a partition can never reach a result. With fewer than
/// two workers everything runs inline on the calling thread.
class EpochPool {
 public:
  EpochPool(uint32_t threads, uint32_t partitions) : partitions_(partitions) {
    const uint32_t n = std::min(threads, partitions);
    if (n <= 1) return;
    workers_.reserve(n);
    for (uint32_t t = 0; t < n; t++) {
      workers_.emplace_back(
          [this, t, n] { WorkerLoop(t, n); });
    }
  }

  EpochPool(const EpochPool&) = delete;
  EpochPool& operator=(const EpochPool&) = delete;

  ~EpochPool() {
    if (workers_.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void Run(const std::function<void(uint32_t)>& fn) {
    if (workers_.empty()) {
      for (uint32_t p = 0; p < partitions_; p++) fn(p);
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_ = &fn;
    pending_ = static_cast<uint32_t>(workers_.size());
    generation_++;
    cv_work_.notify_all();
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    work_ = nullptr;
  }

 private:
  void WorkerLoop(uint32_t index, uint32_t stride) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(uint32_t)>* work = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        work = work_;
      }
      for (uint32_t p = index; p < partitions_; p += stride) (*work)(p);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }

  const uint32_t partitions_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(uint32_t)>* work_ = nullptr;
  uint32_t pending_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

/// One client partition's private slice of the run.
struct Partition {
  std::priority_queue<Runnable, std::vector<Runnable>,
                      std::greater<Runnable>>
      heap;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;
  Histogram latency;
  std::vector<LoadReport::OpTrace> records;
  PartitionEffects effects;
  /// Per-tenant SLO observations accumulated this epoch (controller runs
  /// only); ingested at the barrier in partition-id order and cleared.
  SloController::EpochObservations obs;

  /// Folds one completed op into the partition's counters.
  void Account(uint64_t latency_ns, const Status& st, uint32_t tenant,
               bool observe) {
    ops++;
    if (!st.ok()) {
      errors++;
      if (st.IsBusy()) busy++;
    }
    latency.Record(latency_ns);
    if (observe) obs[tenant].Add(latency_ns, st);
  }
};

/// Client partitions for a run: `partitions` capped at the client count,
/// with 0 read as 1.
uint32_t PartitionCount(const ParallelConfig& pc, uint64_t clients) {
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(pc.partitions, 1, clients));
}

/// Smallest pending event time across all partitions, or UINT64_MAX.
uint64_t MinPending(const std::vector<Partition>& parts) {
  uint64_t next = std::numeric_limits<uint64_t>::max();
  for (const Partition& part : parts) {
    if (!part.heap.empty()) next = std::min(next, part.heap.top().at_ns);
  }
  return next;
}

/// The epoch loop both disciplines share. Each epoch every partition pops
/// its runnables below `epoch_end` and hands them to `step(part, r)`; then,
/// with workers parked, the barrier legs run on the calling thread: the
/// partitions' congestion and breaker shards replay into the authoritative
/// state in partition-id order, the SLO controller ingests each partition's
/// observations (also in partition-id order) and runs its control step, and
/// membership runs its heartbeat rounds, revocations and repairs. Empty
/// epochs are skipped: the next epoch is the one holding the earliest
/// pending event. Returns the number of barriers crossed.
///
/// A single partition installs no effects container, so congestion and
/// breaker calls act on the authoritative state directly: there is no other
/// partition to exchange with, and shard + replay would do each admission
/// twice.
template <typename Step>
uint64_t RunEpochs(const ParallelConfig& pc, uint64_t epoch_ns,
                   uint64_t epoch_end, std::vector<Partition>* parts,
                   Step step) {
  const bool sharded = parts->size() > 1;
  EpochPool pool(pc.threads, static_cast<uint32_t>(parts->size()));
  uint64_t epochs = 0;
  for (;;) {
    pool.Run([&](uint32_t p) {
      Partition& part = (*parts)[p];
      PartitionEffectsScope scope(sharded ? &part.effects : nullptr);
      while (!part.heap.empty() && part.heap.top().at_ns < epoch_end) {
        const Runnable r = part.heap.top();
        part.heap.pop();
        step(part, r);
      }
    });
    epochs++;
    for (Partition& part : *parts) {
      for (auto& [state, shard] : part.effects.congestion_shards) {
        state->MergeShard(shard.get());
      }
      for (auto& [breaker, shard] : part.effects.breaker_shards) {
        breaker->MergeShard(&shard);
      }
    }
    if (pc.controller != nullptr) {
      for (Partition& part : *parts) {
        pc.controller->Ingest(part.obs);
        part.obs.clear();
      }
      pc.controller->EndEpoch(epoch_end);
    }
    if (pc.membership != nullptr) pc.membership->EndEpoch(epoch_end);

    const uint64_t next = MinPending(*parts);
    if (next == std::numeric_limits<uint64_t>::max()) return epochs;
    epoch_end = EpochEndFor(next, epoch_ns);
  }
}

void FinalizeCounters(const std::vector<NetContext>& ctxs,
                      const std::vector<Partition>& parts,
                      LoadReport* report) {
  for (const Partition& part : parts) {
    report->ops += part.ops;
    report->errors += part.errors;
    report->busy += part.busy;
    report->latency.Merge(part.latency);  // bucket merge: order-insensitive
  }
  report->per_client_sim_ns.reserve(ctxs.size());
  for (const NetContext& c : ctxs) {
    report->per_client_sim_ns.push_back(c.sim_ns);
    if (c.sim_ns > report->makespan_ns) report->makespan_ns = c.sim_ns;
  }
  MergeParallel(&report->total, ctxs.data(), ctxs.size());
}

/// Canonical trace order (arrival, client, op_index): the key is unique per
/// record, so this is a total order.
bool TraceLess(const LoadReport::OpTrace& a, const LoadReport::OpTrace& b) {
  if (a.arrival_ns != b.arrival_ns) return a.arrival_ns < b.arrival_ns;
  if (a.client != b.client) return a.client < b.client;
  return a.op_index < b.op_index;
}

/// Concatenates the partitions' per-op records into canonical order.
std::vector<LoadReport::OpTrace> SortedRecords(std::vector<Partition>* parts) {
  std::vector<LoadReport::OpTrace> all;
  size_t n = 0;
  for (const Partition& part : *parts) n += part.records.size();
  all.reserve(n);
  for (Partition& part : *parts) {
    all.insert(all.end(), part.records.begin(), part.records.end());
    part.records.clear();
    part.records.shrink_to_fit();
  }
  std::sort(all.begin(), all.end(), TraceLess);
  return all;
}

}  // namespace

LoadReport RunClosedLoop(const LoadOptions& opts, const ClientOpFn& op) {
  LoadReport report;
  report.clients = opts.clients;
  if (opts.clients == 0 || opts.ops_per_client == 0) return report;

  const ParallelConfig& pc = opts.parallel;
  const uint32_t P = PartitionCount(pc, opts.clients);
  const uint64_t epoch_ns = pc.epoch_ns > 0 ? pc.epoch_ns : kDefaultEpochNs;
  const bool observe = pc.controller != nullptr;

  std::vector<NetContext> ctxs(opts.clients);
  std::vector<Random> rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  rngs.reserve(opts.clients);
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(ClientSeed(opts.seed, c));
  }

  // Round-robin client→partition assignment (client % P): part of the
  // determinism contract's config, never a runtime decision.
  std::vector<Partition> parts(P);
  for (uint64_t c = 0; c < opts.clients; c++) parts[c % P].heap.push({0, c});

  report.epochs = RunEpochs(
      pc, epoch_ns, epoch_ns, &parts, [&](Partition& part, Runnable r) {
        NetContext* ctx = &ctxs[r.client];
        const uint64_t before = ctx->sim_ns;
        ctx->op_tag = OpTag(r.client, issued[r.client]);
        Status st = op(r.client, issued[r.client], ctx, &rngs[r.client]);
        part.Account(ctx->sim_ns - before, st, ctx->tenant, observe);
        if (pc.record_trace) {
          part.records.push_back(LoadReport::OpTrace{
              before, ctx->sim_ns, r.client, issued[r.client], st.code()});
        }
        if (opts.think_ns > 0) ctx->Charge(opts.think_ns);
        if (++issued[r.client] < opts.ops_per_client) {
          part.heap.push({ctx->sim_ns, r.client});
        }
      });

  FinalizeCounters(ctxs, parts, &report);
  if (pc.record_trace) report.trace = SortedRecords(&parts);
  return report;
}

LoadReport RunOpenLoop(const OpenLoopOptions& opts, const ClientOpFn& op) {
  LoadReport report;
  report.clients = opts.clients;
  if (opts.clients == 0 || opts.ops_per_client == 0 ||
      opts.ops_per_sec <= 0.0) {
    return report;
  }
  report.offered_ops_per_sec =
      opts.ops_per_sec * static_cast<double>(opts.clients);
  const double period_ns = 1e9 / opts.ops_per_sec;

  const ParallelConfig& pc = opts.parallel;
  const uint32_t P = PartitionCount(pc, opts.clients);
  const uint64_t epoch_ns = pc.epoch_ns > 0 ? pc.epoch_ns : kDefaultEpochNs;
  const bool observe = pc.controller != nullptr;

  // Workload streams derive exactly as in RunClosedLoop; arrival streams use
  // an independent salt so switching processes never perturbs the op draws.
  std::vector<NetContext> accs(opts.clients);  // per-client folded counters
  std::vector<Random> rngs;
  std::vector<Random> arrival_rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  rngs.reserve(opts.clients);
  arrival_rngs.reserve(opts.clients);
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(ClientSeed(opts.seed, c));
    arrival_rngs.emplace_back(ClientSeed(opts.seed, c) ^ kArrivalSalt);
  }

  std::vector<Partition> parts(P);
  for (uint64_t c = 0; c < opts.clients; c++) {
    parts[c % P].heap.push(
        {FirstArrivalNs(opts, period_ns, c, &arrival_rngs[c]), c});
  }

  // The first epoch is the one holding the earliest arrival.
  report.epochs = RunEpochs(
      pc, epoch_ns, EpochEndFor(MinPending(parts), epoch_ns), &parts,
      [&](Partition& part, Runnable a) {
        // The op runs on a context clocked at its arrival instant: arrivals
        // do not wait for each other client-side (that is the congestion
        // model's job server-side), so the stream keeps offering load while
        // earlier ops queue.
        NetContext ctx = accs[a.client].Fork();
        ctx.sim_ns = a.at_ns;
        ctx.op_tag = OpTag(a.client, issued[a.client]);
        Status st = op(a.client, issued[a.client], &ctx, &rngs[a.client]);
        part.Account(ctx.sim_ns - a.at_ns, st, ctx.tenant, observe);
        // Records are always kept open-loop: the queue-depth gauge is a
        // post-pass over the canonical arrival order.
        part.records.push_back(LoadReport::OpTrace{
            a.at_ns, ctx.sim_ns, a.client, issued[a.client], st.code()});
        JoinParallel(&accs[a.client], &ctx, 1);
        if (++issued[a.client] < opts.ops_per_client) {
          part.heap.push(
              {a.at_ns + NextGapNs(opts, period_ns, &arrival_rngs[a.client]),
               a.client});
        }
      });

  FinalizeCounters(accs, parts, &report);

  // The in-flight gauge, replayed over the canonical arrival order: ops
  // whose completion precedes an arrival have left the system; the depth
  // sampled at each arrival includes the arriving op itself.
  std::vector<LoadReport::OpTrace> ordered = SortedRecords(&parts);
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      completions;
  for (const LoadReport::OpTrace& t : ordered) {
    while (!completions.empty() && completions.top() <= t.arrival_ns) {
      completions.pop();
    }
    completions.push(t.done_ns);
    const uint64_t depth = completions.size();
    report.queue_depth.Record(depth);
    if (depth > report.max_in_flight) report.max_in_flight = depth;
  }
  if (pc.record_trace) report.trace = std::move(ordered);
  return report;
}

std::string LoadReport::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "clients=%llu ops=%llu errors=%llu busy=%llu "
                "makespan_ms=%.3f tput_kops=%.1f offered_kops=%.1f "
                "p50_us=%.2f p99_us=%.2f queue_ms=%.3f max_inflight=%llu",
                static_cast<unsigned long long>(clients),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(busy),
                static_cast<double>(makespan_ns) / 1e6,
                ThroughputOpsPerSec() / 1e3, offered_ops_per_sec / 1e3,
                latency.Percentile(50) / 1e3, latency.Percentile(99) / 1e3,
                static_cast<double>(total.queue_ns) / 1e6,
                static_cast<unsigned long long>(max_in_flight));
  return buf;
}

}  // namespace sim
}  // namespace disagg
