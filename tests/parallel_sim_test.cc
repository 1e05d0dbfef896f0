#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <ranges>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "memnode/executor.h"
#include "net/congestion.h"
#include "net/fabric.h"
#include "net/interceptors.h"
#include "rindex/remote_btree.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

// The cross-thread determinism suite pinning the epoch-parallel driver's
// contract (src/sim/load_driver.h `ParallelConfig`):
//   1. `threads` never reaches a result bit — same seed, same partitions,
//      any thread count {1, 2, 8}: bit-identical counters AND trace, for
//      both loop disciplines, with the full stack enabled (congestion +
//      WFQ + admission control + retry + tag-keyed faults).
//   2. `partitions == 1` reproduces a plain reference loop bit for bit.
//   3. Equal virtual timestamps order deterministically by (client id,
//      op seq) — pinned by a deliberately engineered timestamp collision.
//   4. `partitions > 1` conserves work: authoritative resource accounting
//      equals the one-partition run's even though the interleaving differs.
//   5. The open-loop gauge, fed epoch by epoch at the barriers, equals a
//      post-pass over the canonical trace, and 1-2 hold for arrival gaps
//      at and far beyond the run queue's window, for mostly empty epochs
//      and for equal timestamps.

/// Everything a LoadReport exposes, flattened for tuple comparison. The
/// trace rides along separately (vector<OpTrace> has operator==).
auto Flatten(const sim::LoadReport& r) {
  return std::make_tuple(
      r.clients, r.ops, r.errors, r.busy, r.makespan_ns, r.total.sim_ns,
      r.total.queue_ns, r.total.backoff_ns, r.total.bytes_out,
      r.total.bytes_in, r.total.round_trips, r.total.admission_rejects,
      r.per_client_sim_ns, r.latency.count(), r.latency.min(),
      r.latency.max(), r.latency.Percentile(50), r.latency.Percentile(99),
      r.offered_ops_per_sec, r.max_in_flight, r.queue_depth.count(),
      r.queue_depth.max(), r.queue_depth.Mean());
}

// ---- Reference schedule ---------------------------------------------------
//
// The global virtual-time schedule written out the plain way: one heap over
// every client (lower clock first, client id breaking ties), one context per
// client, the open loop's in-flight gauge computed inline at each arrival,
// and no controller or membership hooks. `partitions == 1` must reproduce
// it bit for bit. The seed, arrival and op-tag arithmetic restates the
// driver's on purpose: changing any of it changes every seeded result.

uint64_t RefClientSeed(uint64_t seed, uint64_t client) {
  return seed + client * 0x9E3779B97F4A7C15ull;
}

uint64_t RefOpTag(uint64_t client, uint64_t op_index) {
  uint64_t mix = (client + 1) * 0x9E3779B97F4A7C15ull;
  mix ^= (op_index + 1) * 0xC2B2AE3D27D4EB4Full;
  mix ^= mix >> 29;
  return mix | 1;
}

struct RefEvent {
  uint64_t at_ns;
  uint64_t client;
  bool operator>(const RefEvent& o) const {
    return at_ns != o.at_ns ? at_ns > o.at_ns : client > o.client;
  }
};
using RefHeap =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

/// Counts one completed op and appends its trace record.
void RefRecord(sim::LoadReport* report, uint64_t arrival_ns, uint64_t done_ns,
               uint64_t client, uint64_t op_index, const Status& st) {
  report->ops++;
  if (!st.ok()) {
    report->errors++;
    if (st.IsBusy()) report->busy++;
  }
  report->latency.Record(done_ns - arrival_ns);
  report->trace.push_back(
      sim::LoadReport::OpTrace{arrival_ns, done_ns, client, op_index,
                               st.code()});
}

void RefFinish(sim::LoadReport* report, const std::vector<NetContext>& ctxs) {
  for (const NetContext& c : ctxs) {
    report->per_client_sim_ns.push_back(c.sim_ns);
    report->makespan_ns = std::max(report->makespan_ns, c.sim_ns);
  }
  MergeParallel(&report->total, ctxs.data(), ctxs.size());
}

sim::LoadReport ReferenceClosedLoop(const sim::LoadOptions& opts,
                                    const sim::ClientOpFn& op) {
  sim::LoadReport report;
  report.clients = opts.clients;
  std::vector<NetContext> ctxs(opts.clients);
  std::vector<Random> rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  RefHeap ready;
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(RefClientSeed(opts.seed, c));
    ready.push({0, c});
  }
  while (!ready.empty()) {
    const RefEvent r = ready.top();
    ready.pop();
    NetContext* ctx = &ctxs[r.client];
    const uint64_t before = ctx->sim_ns;
    ctx->op_tag = RefOpTag(r.client, issued[r.client]);
    const Status st = op(r.client, issued[r.client], ctx, &rngs[r.client]);
    RefRecord(&report, before, ctx->sim_ns, r.client, issued[r.client], st);
    ctx->Charge(opts.think_ns);
    if (++issued[r.client] < opts.ops_per_client) {
      ready.push({ctx->sim_ns, r.client});
    }
  }
  RefFinish(&report, ctxs);
  return report;
}

/// Both arrival processes, restated from the driver.
sim::LoadReport ReferenceOpenLoop(const sim::OpenLoopOptions& opts,
                                  const sim::ClientOpFn& op) {
  sim::LoadReport report;
  report.clients = opts.clients;
  report.offered_ops_per_sec =
      opts.ops_per_sec * static_cast<double>(opts.clients);
  const double period_ns = 1e9 / opts.ops_per_sec;
  const bool poisson = opts.process == sim::ArrivalProcess::kPoisson;
  auto gap = [period_ns, poisson](Random* rng) {
    if (!poisson) return static_cast<uint64_t>(period_ns);
    return static_cast<uint64_t>(-std::log(1.0 - rng->NextDouble()) *
                                 period_ns);
  };
  std::vector<NetContext> accs(opts.clients);
  std::vector<Random> rngs;
  std::vector<Random> arrival_rngs;
  std::vector<uint64_t> issued(opts.clients, 0);
  RefHeap arrivals;
  for (uint64_t c = 0; c < opts.clients; c++) {
    rngs.emplace_back(RefClientSeed(opts.seed, c));
    arrival_rngs.emplace_back(RefClientSeed(opts.seed, c) ^
                              0xA221BA15ED5EEDull);
    arrivals.push({poisson ? gap(&arrival_rngs[c])
                           : static_cast<uint64_t>(
                                 period_ns * static_cast<double>(c) /
                                 static_cast<double>(opts.clients)),
                   c});
  }
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
      completions;
  while (!arrivals.empty()) {
    const RefEvent a = arrivals.top();
    arrivals.pop();
    while (!completions.empty() && completions.top() <= a.at_ns) {
      completions.pop();
    }
    // The op is a one-branch fan-out from the client's accumulator whose
    // clock starts at the arrival; the fold moves the accumulator to the
    // latest finish.
    (void)FanOut(&accs[a.client], std::views::single(a),
                 [&](const RefEvent& ev, NetContext* ctx) {
      ctx->sim_ns = ev.at_ns;
      ctx->op_tag = RefOpTag(ev.client, issued[ev.client]);
      const Status st = op(ev.client, issued[ev.client], ctx, &rngs[ev.client]);
      RefRecord(&report, ev.at_ns, ctx->sim_ns, ev.client, issued[ev.client],
                st);
      completions.push(ctx->sim_ns);
      report.queue_depth.Record(completions.size());
      report.max_in_flight = std::max<uint64_t>(report.max_in_flight,
                                                completions.size());
      return Status::OK();
    });
    if (++issued[a.client] < opts.ops_per_client) {
      arrivals.push({a.at_ns + gap(&arrival_rngs[a.client]), a.client});
    }
  }
  RefFinish(&report, accs);
  return report;
}

/// The adversarial rig: three congested memory nodes, WFQ across three
/// tenants, bounded backlogs (admission rejections), retries, and a
/// tag-keyed fault schedule with a virtual-time flap. Every order-sensitive
/// shared-state path the epoch-parallel driver must exchange
/// deterministically is live.
struct FullStackRig {
  Fabric fabric;
  std::vector<NodeId> nodes;
  std::vector<MemoryRegion*> regions;

  FullStackRig() {
    for (int i = 0; i < 3; i++) {
      NodeId n = fabric.AddNode("mem" + std::to_string(i), NodeKind::kMemory,
                                InterconnectModel::Rdma());
      nodes.push_back(n);
      regions.push_back(fabric.node(n)->AddRegion("heap", 1 << 20));
    }

    CongestionConfig cfg;
    cfg.default_node = ResourceCapacity{800, 0.05, 400'000};
    cfg.tenant_weights = {{0, 4.0}, {1, 2.0}, {2, 1.0}};
    fabric.EnableCongestion(cfg);

    RetryPolicy retry;
    retry.max_attempts = 3;
    fabric.AddInterceptor(std::make_shared<RetryInterceptor>(retry));

    FaultPolicy faults;
    faults.seed = 99;
    faults.drop_prob = 0.02;
    faults.spike_prob = 0.05;
    faults.key_by_op_tag = true;  // required under the parallel driver
    faults.flaps.push_back(
        FaultPolicy::Flap{nodes[1], 0, 0, 300'000, 900'000});
    fabric.AddInterceptor(std::make_shared<FaultInterceptor>(faults));
  }

  sim::ClientOpFn Op() {
    return [this](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
      ctx->tenant = static_cast<uint32_t>(client % 3);
      char buf[2048];
      const size_t n = size_t{16} << rng->Uniform(7);  // 16..1024 bytes
      const uint64_t pick = rng->Uniform(3);
      GlobalAddr addr{nodes[pick], regions[pick]->id(),
                      rng->Uniform(64) * 2048};
      return fabric.Read(ctx, addr, buf, n);
    };
  }
};

/// A closed- or open-loop runner: the driver's, or the reference loop.
using ClosedRunner = sim::LoadReport (*)(const sim::LoadOptions&,
                                         const sim::ClientOpFn&);
using OpenRunner = sim::LoadReport (*)(const sim::OpenLoopOptions&,
                                       const sim::ClientOpFn&);

sim::LoadReport RunClosed(uint64_t seed, uint32_t partitions,
                          uint32_t threads,
                          ClosedRunner runner = sim::RunClosedLoop) {
  FullStackRig rig;
  sim::LoadOptions opts;
  opts.clients = 24;
  opts.ops_per_client = 50;
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  return runner(opts, rig.Op());
}

sim::LoadReport RunOpen(uint64_t seed, uint32_t partitions, uint32_t threads,
                        OpenRunner runner = sim::RunOpenLoop) {
  FullStackRig rig;
  sim::OpenLoopOptions opts;
  opts.clients = 24;
  opts.ops_per_client = 50;
  opts.ops_per_sec = 40'000;  // aggregate ~1M ops/s: real contention
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  return runner(opts, rig.Op());
}

TEST(ParallelSimTest, ClosedLoopBitIdenticalAcrossThreadCounts) {
  const auto t1 = RunClosed(42, 8, 1);
  const auto t2 = RunClosed(42, 8, 2);
  const auto t8 = RunClosed(42, 8, 8);
  ASSERT_EQ(t1.ops, 24u * 50u);
  ASSERT_GT(t1.epochs, 1u);  // the run actually crossed barriers
  ASSERT_GT(t1.total.admission_rejects, 0u);  // admission control engaged
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  // ...and the function still depends on the seed.
  EXPECT_NE(Flatten(t1), Flatten(RunClosed(43, 8, 8)));
}

TEST(ParallelSimTest, OpenLoopBitIdenticalAcrossThreadCounts) {
  const auto t1 = RunOpen(42, 8, 1);
  const auto t2 = RunOpen(42, 8, 2);
  const auto t8 = RunOpen(42, 8, 8);
  ASSERT_EQ(t1.ops, 24u * 50u);
  ASSERT_GT(t1.epochs, 1u);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  EXPECT_NE(Flatten(t1), Flatten(RunOpen(43, 8, 8)));
}

TEST(ParallelSimTest, SinglePartitionReproducesReferenceLoopExactly) {
  // partitions == 1 is the global virtual-time schedule run through the
  // epoch machinery (epoch barriers, post-pass queue-depth gauge): the
  // contract says that machinery is invisible, bit for bit — full stack
  // enabled.
  const auto ref_closed = RunClosed(42, 1, 1, ReferenceClosedLoop);
  ASSERT_EQ(ref_closed.ops, 24u * 50u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunClosed(42, 1, threads);
    EXPECT_GT(epoch.epochs, 1u);
    EXPECT_EQ(Flatten(ref_closed), Flatten(epoch)) << threads;
    EXPECT_EQ(ref_closed.trace, epoch.trace) << threads;
  }

  const auto ref_open = RunOpen(42, 1, 1, ReferenceOpenLoop);
  ASSERT_EQ(ref_open.ops, 24u * 50u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunOpen(42, 1, threads);
    EXPECT_GT(epoch.epochs, 1u);
    EXPECT_EQ(Flatten(ref_open), Flatten(epoch)) << threads;
    EXPECT_EQ(ref_open.trace, epoch.trace) << threads;
  }
}

TEST(ParallelSimTest, PartitionCountIsDeterministicButPartOfTheFunction) {
  // Different partition counts are different (equally deterministic)
  // schedules: each reproduces itself exactly; ops issued never changes.
  for (uint32_t partitions : {2u, 4u, 8u}) {
    const auto a = RunClosed(42, partitions, 8);
    const auto b = RunClosed(42, partitions, 2);
    EXPECT_EQ(Flatten(a), Flatten(b)) << partitions;
    EXPECT_EQ(a.trace, b.trace) << partitions;
    EXPECT_EQ(a.ops, 24u * 50u) << partitions;
    EXPECT_EQ(a.latency.count(), 24u * 50u) << partitions;
  }
}

TEST(ParallelSimTest, EqualTimestampsOrderByClientThenOpSeq) {
  // Engineer a collision: every client starts at t=0 with a fixed-cost op,
  // so every epoch boundary has several clients tied at the same virtual
  // instant. The pinned tie-break is (client id, then per-client op seq):
  // the one-partition order must be round-robin by client id, and the
  // canonical trace must be identical at any partition/thread count.
  constexpr uint64_t kCost = 500;
  constexpr uint64_t kClients = 6;
  constexpr uint64_t kOps = 8;
  auto fixed = [](uint64_t, uint64_t, NetContext* ctx, Random*) {
    ctx->Charge(kCost);
    return Status::OK();
  };

  sim::LoadOptions opts;
  opts.clients = kClients;
  opts.ops_per_client = kOps;
  opts.parallel.record_trace = true;
  const auto ref = ReferenceClosedLoop(opts, fixed);
  ASSERT_EQ(ref.trace.size(), kClients * kOps);
  for (uint64_t i = 0; i < ref.trace.size(); i++) {
    // Round k of the round-robin: client i%6 issuing its (i/6)-th op at
    // virtual time k*kCost. Any other order fails here.
    EXPECT_EQ(ref.trace[i].arrival_ns, (i / kClients) * kCost) << i;
    EXPECT_EQ(ref.trace[i].client, i % kClients) << i;
    EXPECT_EQ(ref.trace[i].op_index, i / kClients) << i;
  }

  for (uint32_t partitions : {1u, 2u, 4u}) {
    for (uint32_t threads : {1u, 4u}) {
      opts.parallel.partitions = partitions;
      opts.parallel.threads = threads;
      const auto par = sim::RunClosedLoop(opts, fixed);
      EXPECT_EQ(ref.trace, par.trace) << partitions << "x" << threads;
    }
  }
}

TEST(ParallelSimTest, ContendedPartitionsConserveAuthoritativeAccounting) {
  // The epoch exchange must conserve work: after a P=2 run over a shared
  // congested node, the authoritative resource accounting (ops serviced,
  // bytes, busy time) equals the one-partition run's exactly — the
  // interleaving differs, the physics doesn't.
  auto run = [](uint32_t partitions) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1200, 0.1};
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = 10;
    opts.ops_per_client = 40;
    opts.parallel.partitions = partitions;
    opts.parallel.threads = 4;
    sim::RunClosedLoop(opts, [&](uint64_t, uint64_t, NetContext* ctx,
                                 Random* rng) {
      char buf[1024];
      GlobalAddr addr{node, region->id(), rng->Uniform(64) * 1024};
      return fabric.Read(ctx, addr, buf, size_t{8} << rng->Uniform(7));
    });
    return fabric.congestion()->NodeStats(node);
  };

  const auto single = run(1);
  const auto sharded = run(2);
  EXPECT_EQ(single.ops, sharded.ops);
  EXPECT_EQ(single.bytes, sharded.bytes);
  EXPECT_EQ(single.busy_ns, sharded.busy_ns);
}

TEST(ParallelSimTest, RecordTraceToggleDoesNotChangeCounters) {
  auto run = [](bool record) {
    FullStackRig rig;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 30;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.threads = 4;
    opts.parallel.record_trace = record;
    return sim::RunClosedLoop(opts, rig.Op());
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(Flatten(with), Flatten(without));
  EXPECT_EQ(with.trace.size(), 12u * 30u);
  EXPECT_TRUE(without.trace.empty());
}

TEST(ParallelSimTest, BatchedWorkloadStaysBitIdenticalAcrossThreadCounts) {
  // Op batching (Fabric::ExecuteBatch) under the parallel driver: the
  // coalesced descriptor goes through the same congestion/fault stack, so
  // the thread-invariance contract must hold for batched workloads too.
  auto run = [](uint32_t threads) {
    FullStackRig rig;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 30;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.threads = threads;
    opts.parallel.record_trace = true;
    return sim::RunClosedLoop(
        opts, [&rig](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
          ctx->tenant = static_cast<uint32_t>(client % 3);
          char buf[4][256];
          const uint64_t pick = rng->Uniform(3);
          std::vector<Fabric::BatchOp> batch(4);
          for (int i = 0; i < 4; i++) {
            batch[i].verb = FabricVerb::kRead;
            batch[i].addr = RemoteAddr{rig.regions[pick]->id(),
                                       rng->Uniform(64) * 2048};
            batch[i].dst = buf[i];
            batch[i].n = size_t{16} << rng->Uniform(5);
          }
          return rig.fabric.ExecuteBatch(ctx, rig.nodes[pick], &batch);
        });
  };
  const auto t1 = run(1);
  const auto t2 = run(2);
  const auto t8 = run(8);
  ASSERT_EQ(t1.ops, 12u * 30u);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
}

// Offloaded concurrency under the epoch-parallel driver: every op crosses
// the fabric into the memory-node executor (one `exec.lock.acquire` RPC,
// one `exec.idx.get` RPC) on a congested pool node. Per-client lock keys
// are disjoint, so lock-table mutations commute and the thread-invariance
// contract must hold over the offloaded lock path bit for bit: threads
// {1, 2, 8} at P=4, and partitions=1 reproducing the reference loop.
struct OffloadLockRig {
  Fabric fabric;
  MemoryNode pool{&fabric, "pool", 1 << 22};
  MemNodeExecutor exec{&fabric, &pool};
  OffloadedLockClient locks{&fabric, pool.node()};
  uint32_t tree = 0;

  OffloadLockRig() {
    NetContext setup;
    auto ref = RemoteBTree::Create(&setup, &fabric, &pool);
    EXPECT_TRUE(ref.ok());
    tree = exec.RegisterTree(*ref);
    for (uint64_t k = 1; k <= 256; k++) {
      EXPECT_TRUE(
          OffloadIndexPut(&fabric, &setup, pool.node(), tree, k * 3, k).ok());
    }
    CongestionConfig cfg;
    cfg.node_caps[pool.node()] = ResourceCapacity{900, 0.05};
    fabric.EnableCongestion(cfg);
  }

  sim::ClientOpFn Op() {
    return [this](uint64_t client, uint64_t op, NetContext* ctx, Random* rng) {
      // One txn per 4-op window, holding up to 4 disjoint keys; the window's
      // last op releases them all, so a clean run ends with an empty table.
      const TxnId txn = client * 1'000'000 + op / 4 + 1;
      const uint64_t key = client * 64 + op % 4;
      const Status st = locks.AcquireLock(ctx, txn, key, LockMode::kExclusive);
      if (!st.ok()) return st;
      // A seeded scan window: the reply size depends on the drawn limit, so
      // the report is a function of the seed (pinned below), not just of
      // the op count.
      const auto got =
          OffloadIndexScan(&fabric, ctx, pool.node(), tree,
                           (1 + rng->Uniform(240)) * 3, 1 + rng->Uniform(8));
      if (op % 4 == 3) locks.ReleaseAllLocks(ctx, txn);
      return got.status();
    };
  }
};

sim::LoadReport RunOffloadLocks(uint64_t seed, uint32_t partitions,
                                uint32_t threads,
                                MemNodeExecutor::Stats* stats = nullptr,
                                size_t* leftover = nullptr,
                                ClosedRunner runner = sim::RunClosedLoop) {
  OffloadLockRig rig;
  sim::LoadOptions opts;
  opts.clients = 12;
  opts.ops_per_client = 40;
  opts.seed = seed;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  auto report = runner(opts, rig.Op());
  if (stats != nullptr) *stats = rig.exec.stats();
  if (leftover != nullptr) {
    *leftover = rig.exec.active_locks() + rig.locks.pending_releases();
  }
  return report;
}

TEST(ParallelSimTest, OffloadedLockPathBitIdenticalAcrossThreadCounts) {
  MemNodeExecutor::Stats s1;
  size_t leftover = 1;
  const auto t1 = RunOffloadLocks(42, 4, 1, &s1, &leftover);
  ASSERT_EQ(t1.ops, 12u * 40u);
  ASSERT_EQ(t1.errors, 0u);
  EXPECT_GT(s1.grants, 0u);       // the lock RPCs really ran
  EXPECT_GT(s1.scans, 0u);        // ...and so did the traversal RPCs
  EXPECT_EQ(s1.conflicts, 0u);    // disjoint keys: contention-free by design
  EXPECT_EQ(leftover, 0u);        // every txn released; nothing piggybacked

  const auto t2 = RunOffloadLocks(42, 4, 2);
  const auto t8 = RunOffloadLocks(42, 4, 8);
  EXPECT_EQ(Flatten(t1), Flatten(t2));
  EXPECT_EQ(Flatten(t1), Flatten(t8));
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);

  // partitions == 1 reproduces the reference loop bit for bit, lock and
  // traversal RPCs included.
  const auto ref =
      RunOffloadLocks(42, 1, 1, nullptr, nullptr, ReferenceClosedLoop);
  for (uint32_t threads : {1u, 2u, 8u}) {
    const auto epoch = RunOffloadLocks(42, 1, threads);
    EXPECT_EQ(Flatten(ref), Flatten(epoch)) << threads;
    EXPECT_EQ(ref.trace, epoch.trace) << threads;
  }

  EXPECT_NE(Flatten(t1), Flatten(RunOffloadLocks(43, 4, 8)));
}

TEST(ParallelSimTest, EpochWidthIsPartOfTheFunctionAndReproducible) {
  // epoch_ns is config, not tuning: each width reproduces itself exactly
  // at any thread count, and ops issued is invariant across widths.
  for (uint64_t epoch_ns : {20'000ull, 100'000ull, 1'000'000ull}) {
    FullStackRig rig_a;
    FullStackRig rig_b;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 25;
    opts.seed = 42;
    opts.parallel.partitions = 4;
    opts.parallel.epoch_ns = epoch_ns;
    opts.parallel.record_trace = true;
    opts.parallel.threads = 1;
    const auto a = sim::RunClosedLoop(opts, rig_a.Op());
    opts.parallel.threads = 8;
    const auto b = sim::RunClosedLoop(opts, rig_b.Op());
    EXPECT_EQ(Flatten(a), Flatten(b)) << epoch_ns;
    EXPECT_EQ(a.trace, b.trace) << epoch_ns;
    EXPECT_EQ(a.ops, 12u * 25u) << epoch_ns;
  }
}

// ---- Per-epoch gauge and the epoch calendar ------------------------------

/// Canonical trace order: (arrival, client, op index).
bool CanonicalLess(const sim::LoadReport::OpTrace& a,
                   const sim::LoadReport::OpTrace& b) {
  return std::tie(a.arrival_ns, a.client, a.op_index) <
         std::tie(b.arrival_ns, b.client, b.op_index);
}

/// The open-loop in-flight gauge as a post-pass over a canonical trace: ops
/// whose completion precedes an arrival have left; the depth sampled at an
/// arrival includes the arriving op.
struct TraceGauge {
  Histogram depth;
  uint64_t max_in_flight = 0;

  explicit TraceGauge(const std::vector<sim::LoadReport::OpTrace>& trace) {
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
        completions;
    for (const auto& t : trace) {
      while (!completions.empty() && completions.top() <= t.arrival_ns) {
        completions.pop();
      }
      completions.push(t.done_ns);
      depth.Record(completions.size());
      max_in_flight = std::max<uint64_t>(max_in_flight, completions.size());
    }
  }
};

sim::OpenLoopOptions WideOpenLoop(uint32_t partitions, uint32_t threads,
                                  bool record_trace) {
  sim::OpenLoopOptions opts;
  opts.clients = 128;  // enough for 64 non-empty partitions
  opts.ops_per_client = 20;
  opts.ops_per_sec = 8'000;  // aggregate ~1M ops/s
  opts.seed = 42;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.epoch_ns = 20'000;
  opts.parallel.record_trace = record_trace;
  return opts;
}

TEST(ParallelSimTest, OpenLoopGaugeEqualsTracePostPass) {
  // The gauge is fed epoch by epoch at the barriers; it must equal the
  // post-pass over the whole canonical trace, at any partition count.
  for (uint32_t partitions : {1u, 4u, 64u}) {
    FullStackRig rig;
    const auto r =
        sim::RunOpenLoop(WideOpenLoop(partitions, 4, true), rig.Op());
    ASSERT_EQ(r.trace.size(), 128u * 20u) << partitions;
    ASSERT_GT(r.epochs, 1u) << partitions;
    EXPECT_TRUE(std::is_sorted(r.trace.begin(), r.trace.end(), CanonicalLess))
        << partitions;
    const TraceGauge post(r.trace);
    EXPECT_GT(post.max_in_flight, 1u) << partitions;  // ops overlapped
    EXPECT_EQ(r.queue_depth.count(), post.depth.count()) << partitions;
    EXPECT_EQ(r.queue_depth.min(), post.depth.min()) << partitions;
    EXPECT_EQ(r.queue_depth.max(), post.depth.max()) << partitions;
    EXPECT_EQ(r.queue_depth.Mean(), post.depth.Mean()) << partitions;
    EXPECT_EQ(r.max_in_flight, post.max_in_flight) << partitions;
  }
}

TEST(ParallelSimTest, OpenLoopRecordTraceToggleDoesNotChangeCounters) {
  for (uint32_t threads : {1u, 4u}) {
    FullStackRig with_rig;
    FullStackRig without_rig;
    const auto with =
        sim::RunOpenLoop(WideOpenLoop(64, threads, true), with_rig.Op());
    const auto without =
        sim::RunOpenLoop(WideOpenLoop(64, threads, false), without_rig.Op());
    EXPECT_EQ(Flatten(with), Flatten(without)) << threads;
    EXPECT_EQ(with.epochs, without.epochs) << threads;
    EXPECT_EQ(with.trace.size(), 128u * 20u) << threads;
    EXPECT_TRUE(without.trace.empty()) << threads;
  }
}

/// Runs an open-loop shape on the full stack: at one partition it must
/// reproduce the reference loop, and at four it must be bit-identical
/// across threads 1/2/8. Returns the one-partition report.
sim::LoadReport ExpectOpenLoopContract(sim::OpenLoopOptions opts,
                                       const std::string& what) {
  opts.parallel.record_trace = true;
  opts.parallel.partitions = 1;
  FullStackRig ref_rig;
  const auto ref = ReferenceOpenLoop(opts, ref_rig.Op());
  sim::LoadReport single;
  for (uint32_t threads : {1u, 2u, 8u}) {
    FullStackRig rig;
    opts.parallel.threads = threads;
    single = sim::RunOpenLoop(opts, rig.Op());
    EXPECT_EQ(Flatten(ref), Flatten(single)) << what << " t" << threads;
    EXPECT_EQ(ref.trace, single.trace) << what << " t" << threads;
  }
  opts.parallel.partitions = 4;
  opts.parallel.threads = 1;
  FullStackRig rig1;
  const auto p1 = sim::RunOpenLoop(opts, rig1.Op());
  EXPECT_TRUE(std::is_sorted(p1.trace.begin(), p1.trace.end(), CanonicalLess))
      << what;
  for (uint32_t threads : {2u, 8u}) {
    FullStackRig rig;
    opts.parallel.threads = threads;
    const auto pt = sim::RunOpenLoop(opts, rig.Op());
    EXPECT_EQ(Flatten(p1), Flatten(pt)) << what << " P4 t" << threads;
    EXPECT_EQ(p1.trace, pt.trace) << what << " P4 t" << threads;
    EXPECT_EQ(p1.epochs, pt.epochs) << what << " P4 t" << threads;
  }
  EXPECT_EQ(single.ops, opts.clients * opts.ops_per_client) << what;
  return single;
}

TEST(ParallelSimTest, CalendarHandlesGapsAroundAndFarBeyondItsWindow) {
  // Deterministic periods of whole epochs land every re-arrival exactly
  // that many epochs ahead: periods straddling power-of-two ring sizes hit
  // the window edge on every push, and 10^4 epochs is far beyond any ring.
  constexpr uint64_t kEpochNs = 10'000;
  for (uint64_t period_epochs :
       {1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 65ull, 127ull, 128ull,
        129ull, 10'000ull}) {
    sim::OpenLoopOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 6;
    opts.process = sim::ArrivalProcess::kDeterministic;
    opts.ops_per_sec = 1e9 / static_cast<double>(period_epochs * kEpochNs);
    opts.parallel.epoch_ns = kEpochNs;
    const auto r = ExpectOpenLoopContract(
        opts, "period " + std::to_string(period_epochs));
    // One barrier per distinct arrival epoch: empty epochs are skipped.
    EXPECT_LE(r.epochs, 8u * 6u) << period_epochs;
  }
  // Poisson gaps whose mean sits at a ring's width spread re-arrivals on
  // both sides of the window edge.
  for (uint64_t mean_epochs : {16ull, 64ull, 256ull}) {
    sim::OpenLoopOptions opts;
    opts.clients = 24;
    opts.ops_per_client = 12;
    opts.ops_per_sec = 1e9 / static_cast<double>(mean_epochs * kEpochNs);
    opts.parallel.epoch_ns = kEpochNs;
    ExpectOpenLoopContract(opts, "mean gap " + std::to_string(mean_epochs));
  }
}

TEST(ParallelSimTest, CalendarSkipsMostlyEmptyEpochs) {
  // Sparse arrivals: nearly every epoch between two ops is empty, and the
  // run must jump straight to the next pending one.
  sim::OpenLoopOptions opts;
  opts.clients = 6;
  opts.ops_per_client = 10;
  opts.ops_per_sec = 20;  // mean gap 50 ms = 500 epochs of 100 us
  const auto r = ExpectOpenLoopContract(opts, "sparse");
  const uint64_t spanned = r.makespan_ns / sim::kDefaultEpochNs;
  EXPECT_GT(spanned, 20 * r.epochs);  // >95% of epochs were skipped
  EXPECT_LE(r.epochs, 6u * 10u);
}

TEST(ParallelSimTest, CalendarOrdersEqualTimestampsByClientThenOpSeq) {
  // Deterministic streams with a 4 ns period over 12 clients: the stagger
  // puts three clients on every arrival instant, and 3 ns epochs split the
  // ties across barriers. A 1 GHz Poisson stream draws zero gaps most of
  // the time, so one client's successive ops tie as well.
  sim::OpenLoopOptions det;
  det.clients = 12;
  det.ops_per_client = 10;
  det.process = sim::ArrivalProcess::kDeterministic;
  det.ops_per_sec = 2.5e8;
  det.parallel.epoch_ns = 3;
  const auto r = ExpectOpenLoopContract(det, "deterministic ties");
  ASSERT_EQ(r.trace.size(), 120u);
  EXPECT_EQ(r.trace[0].arrival_ns, r.trace[2].arrival_ns);  // a 3-way tie
  EXPECT_EQ(r.trace[2].client, 2u);

  sim::OpenLoopOptions poisson;
  poisson.clients = 8;
  poisson.ops_per_client = 16;
  poisson.ops_per_sec = 1e9;
  poisson.parallel.epoch_ns = 2;
  const auto p = ExpectOpenLoopContract(poisson, "zero gaps");
  size_t self_ties = 0;
  for (size_t i = 1; i < p.trace.size(); i++) {
    self_ties += p.trace[i].arrival_ns == p.trace[i - 1].arrival_ns &&
                 p.trace[i].client == p.trace[i - 1].client;
  }
  EXPECT_GT(self_ties, 0u);
}

}  // namespace
}  // namespace disagg
