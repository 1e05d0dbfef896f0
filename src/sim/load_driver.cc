#include "sim/load_driver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <condition_variable>
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

/// Run-queue entry: the client's virtual clock, with the client id as a
/// deterministic tie-break (lower id goes first at equal times).
struct Runnable {
  uint64_t at_ns;
  uint64_t client;
  bool operator>(const Runnable& o) const {
    return at_ns != o.at_ns ? at_ns > o.at_ns : client > o.client;
  }
};

/// The inter-arrival gap of an open-loop stream, scaled by `period_ns`, is
/// at most this: Poisson gaps are -log(1 - u) with u <= 1 - 2^-53.
double MaxGapFactor(ArrivalProcess process) {
  return process == ArrivalProcess::kDeterministic ? 1.0 : 53.0 * std::log(2.0);
}

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

/// One partition's run queue: an epoch calendar (R. Brown, "Calendar
/// queues", CACM 1988) with one bucket per epoch of virtual time. The
/// current epoch's runnables sit in a small binary heap, those of the next
/// `kRingEpochs` epochs sit unsorted in a ring of buckets, and anything
/// further out waits in an unsorted overflow list. Pushes and pops are O(1)
/// amortized while arrival gaps fit the ring: an epoch heapifies only its
/// own bucket, and the next non-empty epoch is found from one occupancy
/// word. The overflow list is rescanned at most once per `kRingEpochs`
/// epochs the window advances, and only once its earliest entry is inside
/// the new window, so a far-off runnable costs one touch per window it
/// waits through rather than one per epoch. A bucket is a list of
/// fixed-size chunks from one pool, so memory follows the pending runnables
/// (not every bucket's past peak), an epoch allocates nothing once the pool
/// has grown, and draining a bucket chases one pointer per chunk, not per
/// runnable.
class EpochCalendar {
 public:
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();

  explicit EpochCalendar(uint64_t epoch_ns)
      : epoch_ns_(epoch_ns), current_end_ns_(epoch_ns) {
    ring_.fill(kNil);
  }

  /// Queues `r`, which must not precede the current epoch. Forced inline:
  /// it sits on every op's path, and left to g++ 12 it became a call that
  /// cost ~8 ns/op on closed loops with few ops per epoch (4-vCPU x86-64).
  [[gnu::always_inline]] void Push(const Runnable& r) {
    if (r.at_ns < current_end_ns_) {
      heap_.push_back(r);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      return;
    }
    const uint64_t epoch = r.at_ns / epoch_ns_;
    if (epoch - current_ <= kRingEpochs) {
      PushBucket(epoch % kRingEpochs, r);
    } else {
      overflow_.push_back(r);
      overflow_min_ = std::min(overflow_min_, epoch);
    }
  }

  /// The current epoch's earliest runnable, or null once it is drained.
  const Runnable* Peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  Runnable Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const Runnable r = heap_.back();
    heap_.pop_back();
    return r;
  }

  /// The earliest epoch holding a runnable, or `kNone` when empty.
  uint64_t NextEpoch() const {
    if (!heap_.empty()) return current_;
    uint64_t next = overflow_min_;
    if (occupied_ != 0) {
      // The ring holds epochs (current_, current_ + kRingEpochs]; rotate
      // epoch current_ + 1's bucket down to bit 0.
      const uint64_t ahead = std::rotr(
          occupied_, static_cast<int>((current_ + 1) % kRingEpochs));
      next = std::min(next, current_ + 1 + std::countr_zero(ahead));
    }
    return next;
  }

  /// Makes `epoch` current. The current epoch must be drained and no
  /// runnable may precede `epoch`.
  void Advance(uint64_t epoch) {
    if (epoch == current_) return;
    // The ring held (current_, current_ + kRingEpochs], so `epoch`'s bucket
    // holds only `epoch`.
    const uint64_t slot = epoch % kRingEpochs;
    for (uint32_t c = ring_[slot]; c != kNil;) {
      Chunk& chunk = chunks_[c];
      heap_.insert(heap_.end(), chunk.r.begin(), chunk.r.begin() + chunk.size);
      const uint32_t next = chunk.next;
      chunk.next = free_;
      free_ = c;
      c = next;
    }
    ring_[slot] = kNil;
    occupied_ &= ~(uint64_t{1} << slot);
    current_ = epoch;
    current_end_ns_ = (epoch + 1) * epoch_ns_;
    // Every overflow entry lies beyond scanned_ + kRingEpochs, so one that
    // is due now implies the window moved a full ring since the last scan.
    if (overflow_min_ <= epoch + kRingEpochs &&
        epoch - scanned_ >= kRingEpochs) {
      ScanOverflow();
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

 private:
  static constexpr uint64_t kRingEpochs = 64;  // one occupancy bit each
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();

  static constexpr uint32_t kChunk = 15;  // 248-byte chunks

  /// A piece of one ring bucket; `next` links the bucket's chunks (newest
  /// first) or the free list.
  struct Chunk {
    uint32_t size;
    uint32_t next;
    std::array<Runnable, kChunk> r;
  };

  /// Moves the overflow entries inside the window into the heap or ring.
  void ScanOverflow() {
    scanned_ = current_;
    overflow_min_ = kNone;
    size_t kept = 0;
    for (const Runnable& r : overflow_) {
      const uint64_t epoch = r.at_ns / epoch_ns_;
      if (epoch - current_ > kRingEpochs) {
        overflow_[kept++] = r;
        overflow_min_ = std::min(overflow_min_, epoch);
      } else if (epoch == current_) {
        heap_.push_back(r);
      } else {
        PushBucket(epoch % kRingEpochs, r);
      }
    }
    overflow_.resize(kept);
  }

  /// Adds `r` to ring bucket `slot`.
  [[gnu::always_inline]] void PushBucket(uint64_t slot, const Runnable& r) {
    uint32_t c = ring_[slot];
    if (c == kNil || chunks_[c].size == kChunk) c = NewChunk(slot);
    Chunk& chunk = chunks_[c];
    chunk.r[chunk.size++] = r;
    occupied_ |= uint64_t{1} << slot;
  }

  /// Puts an empty chunk (a free one if any) at the head of bucket `slot`.
  /// Kept out of line so the inlined push path stays small.
  [[gnu::noinline]] uint32_t NewChunk(uint64_t slot) {
    uint32_t c = free_;
    if (c != kNil) {
      free_ = chunks_[c].next;
    } else {
      c = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    chunks_[c].size = 0;
    chunks_[c].next = ring_[slot];
    ring_[slot] = c;
    return c;
  }

  const uint64_t epoch_ns_;
  uint64_t current_ = 0;  ///< the epoch the heap holds
  uint64_t current_end_ns_;
  std::vector<Runnable> heap_;
  std::vector<Chunk> chunks_;
  uint32_t free_ = kNil;  ///< head of the free-chunk list
  std::array<uint32_t, kRingEpochs> ring_;  ///< bucket list heads
  uint64_t occupied_ = 0;  ///< bit e % kRingEpochs set: epoch e's bucket
  std::vector<Runnable> overflow_;
  uint64_t overflow_min_ = kNone;  ///< earliest epoch in `overflow_`
  uint64_t scanned_ = 0;           ///< current_ at the last overflow scan
};

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
  explicit Partition(uint64_t epoch_ns) : queue(epoch_ns) {}

  EpochCalendar queue;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;
  Histogram latency;
  /// Summed traffic counters of this partition's open-loop ops (closed-loop
  /// clients keep their own contexts).
  NetContext traffic;
  /// This epoch's op records, in canonical order; drained at the barrier.
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

/// The run's client partitions: `partitions` capped at the client count,
/// with 0 read as 1.
std::vector<Partition> MakePartitions(const ParallelConfig& pc,
                                      uint64_t clients, uint64_t epoch_ns) {
  const uint64_t n = std::clamp<uint64_t>(pc.partitions, 1, clients);
  std::vector<Partition> parts;
  parts.reserve(n);
  for (uint64_t p = 0; p < n; p++) parts.emplace_back(epoch_ns);
  return parts;
}

/// Earliest epoch holding a runnable in any partition, or `kNone`.
uint64_t NextEpoch(const std::vector<Partition>& parts) {
  uint64_t next = EpochCalendar::kNone;
  for (const Partition& part : parts) {
    next = std::min(next, part.queue.NextEpoch());
  }
  return next;
}

/// One partition's unread records in `DrainRecords`' merge, ordered by its
/// next record's (arrival, client). That key is unique across runs: each
/// client lives in one partition.
struct RecordRun {
  uint64_t arrival_ns;
  uint64_t client;
  const LoadReport::OpTrace* next;
  const LoadReport::OpTrace* end;
  bool operator>(const RecordRun& o) const {
    return arrival_ns != o.arrival_ns ? arrival_ns > o.arrival_ns
                                      : client > o.client;
  }
};

/// Hands the records every partition produced this epoch to `sink` in
/// canonical order, then clears them. A partition pops its runnables in
/// (time, client) order and a client's op indexes rise, so each partition's
/// records are already canonical; a P-way merge orders the epoch, and
/// epochs split virtual time, so draining at every barrier yields the whole
/// run in canonical order without buffering it. `runs` is working space
/// the caller reuses across epochs.
template <typename Sink>
void DrainRecords(std::vector<Partition>* parts, std::vector<RecordRun>* runs,
                  Sink& sink) {
  runs->clear();
  for (const Partition& part : *parts) {
    if (part.records.empty()) continue;
    const LoadReport::OpTrace* first = part.records.data();
    runs->push_back({first->arrival_ns, first->client, first,
                     first + part.records.size()});
  }
  // A min-heap of runs. After each record the top run's key grows, so it
  // sinks back into place (or leaves once drained).
  std::make_heap(runs->begin(), runs->end(), std::greater<>());
  while (!runs->empty()) {
    RecordRun top = runs->front();
    sink(*top.next);
    if (++top.next == top.end) {
      top = runs->back();
      runs->pop_back();
      if (runs->empty()) break;
    } else {
      top.arrival_ns = top.next->arrival_ns;
      top.client = top.next->client;
    }
    const size_t n = runs->size();
    size_t i = 0;
    for (size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && (*runs)[child] > (*runs)[child + 1]) child++;
      if (!(top > (*runs)[child])) break;
      (*runs)[i] = (*runs)[child];
      i = child;
    }
    (*runs)[i] = top;
  }
  for (Partition& part : *parts) part.records.clear();
}

/// The epoch loop both disciplines share. Each epoch every partition makes
/// the epoch current in its calendar and hands its runnables to
/// `step(part, r)` in (time, client) order; then, with workers parked, the
/// barrier legs run on the calling thread: the partitions' congestion
/// shards replay into the authoritative state in partition-id order, the
/// epoch's op records drain into `sink` in canonical order, the SLO
/// controller ingests each partition's observations (also in partition-id
/// order) and runs its control step, and membership runs its
/// heartbeat rounds, revocations and repairs. Empty epochs are skipped: the
/// next epoch is the one holding the earliest pending event. Returns the
/// number of barriers crossed.
///
/// A single partition installs no effects container, so congestion calls
/// act on the authoritative state directly: there is no other partition to
/// exchange with, and shard + replay would do each admission twice.
template <typename Step, typename Sink>
uint64_t RunEpochs(const ParallelConfig& pc, uint64_t epoch_ns,
                   std::vector<Partition>* parts, Step step, Sink sink) {
  const bool sharded = parts->size() > 1;
  EpochPool pool(pc.threads, static_cast<uint32_t>(parts->size()));
  std::vector<RecordRun> runs;
  uint64_t epochs = 0;
  uint64_t epoch = NextEpoch(*parts);
  // Built once per run: a fresh closure per epoch would allocate each time.
  const std::function<void(uint32_t)> run_partition = [&](uint32_t p) {
    Partition& part = (*parts)[p];
    PartitionEffectsScope scope(sharded ? &part.effects : nullptr);
    part.queue.Advance(epoch);
    while (part.queue.Peek() != nullptr) step(part, part.queue.Pop());
  };
  for (; epoch != EpochCalendar::kNone; epoch = NextEpoch(*parts)) {
    pool.Run(run_partition);
    epochs++;
    for (Partition& part : *parts) {
      for (auto& [state, shard] : part.effects.congestion_shards) {
        state->MergeShard(shard.get());
      }
    }
    DrainRecords(parts, &runs, sink);
    const uint64_t epoch_end = (epoch + 1) * epoch_ns;
    if (pc.controller != nullptr) {
      for (Partition& part : *parts) {
        pc.controller->Ingest(part.obs);
        part.obs.clear();
      }
      pc.controller->EndEpoch(epoch_end);
    }
    if (pc.membership != nullptr) pc.membership->EndEpoch(epoch_end);
  }
  return epochs;
}

/// Folds the partitions' counters into `report`. `per_client_sim_ns` is each
/// client's final clock; the makespan is their max.
void FinalizeCounters(const std::vector<Partition>& parts,
                      std::vector<uint64_t> per_client_sim_ns,
                      LoadReport* report) {
  for (const Partition& part : parts) {
    report->ops += part.ops;
    report->errors += part.errors;
    report->busy += part.busy;
    report->latency.Merge(part.latency);  // bucket merge: order-insensitive
    AccumulateTraffic(&report->total, part.traffic);
  }
  for (uint64_t ns : per_client_sim_ns) {
    report->makespan_ns = std::max(report->makespan_ns, ns);
  }
  report->total.sim_ns = report->makespan_ns;
  report->per_client_sim_ns = std::move(per_client_sim_ns);
}

/// An open-loop client between ops. Each op runs on a fresh context, so
/// this is all a client keeps: 32 bytes, which keeps the per-client working
/// set of a 10^5-client run cache-friendly.
struct OpenClient {
  Random rng;      ///< workload stream
  Random arrival;  ///< arrival stream
  uint64_t issued = 0;
  uint64_t done_ns = 0;  ///< latest completion so far
};
static_assert(sizeof(OpenClient) == 32);

}  // namespace

LoadReport RunClosedLoop(const LoadOptions& opts, const ClientOpFn& op) {
  LoadReport report;
  report.clients = opts.clients;
  if (opts.clients == 0 || opts.ops_per_client == 0) return report;

  const ParallelConfig& pc = opts.parallel;
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
  std::vector<Partition> parts = MakePartitions(pc, opts.clients, epoch_ns);
  for (uint64_t c = 0; c < opts.clients; c++) {
    parts[c % parts.size()].queue.Push({0, c});
  }

  auto append = [&](const LoadReport::OpTrace& t) {
    report.trace.push_back(t);
  };
  report.epochs = RunEpochs(
      pc, epoch_ns, &parts,
      [&](Partition& part, Runnable r) {
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
          part.queue.Push({ctx->sim_ns, r.client});
        }
      },
      append);

  std::vector<uint64_t> clocks;
  clocks.reserve(ctxs.size());
  for (const NetContext& c : ctxs) {
    AccumulateTraffic(&report.total, c);
    clocks.push_back(c.sim_ns);
  }
  FinalizeCounters(parts, std::move(clocks), &report);
  return report;
}

LoadReport RunOpenLoop(const OpenLoopOptions& opts, const ClientOpFn& op) {
  LoadReport report;
  report.clients = opts.clients;
  if (opts.clients == 0 || opts.ops_per_client == 0 ||
      !std::isfinite(opts.ops_per_sec) || opts.ops_per_sec <= 0.0) {
    return report;
  }
  // A stream's worst-case last arrival must fit the virtual clock, with
  // headroom for the ops it issues; slower rates get the empty report too.
  const double period_ns = 1e9 / opts.ops_per_sec;
  if (period_ns * MaxGapFactor(opts.process) *
          static_cast<double>(opts.ops_per_client) >=
      0x1p63) {
    return report;
  }
  report.offered_ops_per_sec =
      opts.ops_per_sec * static_cast<double>(opts.clients);

  const ParallelConfig& pc = opts.parallel;
  const uint64_t epoch_ns = pc.epoch_ns > 0 ? pc.epoch_ns : kDefaultEpochNs;
  const bool observe = pc.controller != nullptr;

  // Workload streams derive exactly as in RunClosedLoop; arrival streams use
  // an independent salt so switching processes never perturbs the op draws.
  std::vector<OpenClient> clients;
  clients.reserve(opts.clients);
  std::vector<Partition> parts = MakePartitions(pc, opts.clients, epoch_ns);
  for (uint64_t c = 0; c < opts.clients; c++) {
    clients.push_back({Random(ClientSeed(opts.seed, c)),
                       Random(ClientSeed(opts.seed, c) ^ kArrivalSalt)});
    parts[c % parts.size()].queue.Push(
        {FirstArrivalNs(opts, period_ns, c, &clients[c].arrival), c});
  }

  // The in-flight gauge, fed each epoch's records in canonical arrival
  // order: ops whose completion precedes an arrival have left the system;
  // the depth sampled at each arrival includes the arriving op itself.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
      completions;
  auto gauge = [&](const LoadReport::OpTrace& t) {
    while (!completions.empty() && completions.top() <= t.arrival_ns) {
      completions.pop();
    }
    completions.push(t.done_ns);
    const uint64_t depth = completions.size();
    report.queue_depth.Record(depth);
    report.max_in_flight = std::max(report.max_in_flight, depth);
    if (pc.record_trace) report.trace.push_back(t);
  };

  report.epochs = RunEpochs(
      pc, epoch_ns, &parts,
      [&](Partition& part, Runnable a) {
        // Start loading the next runnable's client while this op runs.
        if (const Runnable* next = part.queue.Peek()) {
          __builtin_prefetch(&clients[next->client]);
        }
        OpenClient& client = clients[a.client];
        // The op runs on a fresh context clocked at its arrival instant:
        // arrivals do not wait for each other client-side (that is the
        // congestion model's job server-side), so the stream keeps offering
        // load while earlier ops queue.
        NetContext ctx;
        ctx.sim_ns = a.at_ns;
        ctx.op_tag = OpTag(a.client, client.issued);
        Status st = op(a.client, client.issued, &ctx, &client.rng);
        part.Account(ctx.sim_ns - a.at_ns, st, ctx.tenant, observe);
        // Records are always kept open-loop: the gauge drains them.
        part.records.push_back(LoadReport::OpTrace{
            a.at_ns, ctx.sim_ns, a.client, client.issued, st.code()});
        AccumulateTraffic(&part.traffic, ctx);
        client.done_ns = std::max(client.done_ns, ctx.sim_ns);
        if (++client.issued < opts.ops_per_client) {
          part.queue.Push(
              {a.at_ns + NextGapNs(opts, period_ns, &client.arrival),
               a.client});
        }
      },
      gauge);

  std::vector<uint64_t> clocks;
  clocks.reserve(clients.size());
  for (const OpenClient& c : clients) clocks.push_back(c.done_ns);
  FinalizeCounters(parts, std::move(clocks), &report);
  return report;
}

}  // namespace sim
}  // namespace disagg
