#include "sim/load_driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "memnode/executor.h"
#include "net/congestion.h"
#include "net/fabric.h"
#include "net/partition.h"

namespace disagg {
namespace {

// Property tests pinning the sim-layer load drivers: same seed -> bit
// identical reports for both loop disciplines, the closed loop reproduces a
// hand-rolled client exactly, arrival processes hit their configured rates,
// makespan really is the slowest client's clock, and the open loop exposes
// the past-capacity regime (throughput plateau, unbounded queue growth)
// that closed-loop clients cannot reach.

/// Everything a LoadReport exposes, flattened for tuple comparison
/// (Histogram has no operator==; its count/extrema/percentiles pin it).
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

/// A congested single-node fabric plus a read workload parameterized only
/// by the client RNG stream — the shared fixture for determinism tests.
struct ReadRig {
  Fabric fabric;
  NodeId node = 0;
  MemoryRegion* region = nullptr;

  explicit ReadRig(uint64_t service_ns = 1500, double ns_per_byte = 0.1) {
    node = fabric.AddNode("mem0", NodeKind::kMemory,
                          InterconnectModel::Rdma());
    region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{service_ns, ns_per_byte};
    fabric.EnableCongestion(cfg);
  }

  sim::ClientOpFn Op() {
    return [this](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
      char buf[2048];
      const size_t n = size_t{8} << rng->Uniform(8);  // 8..1024 bytes
      GlobalAddr addr{node, region->id(), rng->Uniform(64) * 2048};
      return fabric.Read(ctx, addr, buf, n);
    };
  }
};

TEST(LoadDriverTest, ClosedLoopSameSeedIsBitIdentical) {
  auto run = [&](uint64_t seed) {
    ReadRig rig;
    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 60;
    opts.seed = seed;
    return Flatten(sim::RunClosedLoop(opts, rig.Op()));
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(LoadDriverTest, OpenLoopSameSeedIsBitIdentical) {
  auto run = [&](uint64_t seed, sim::ArrivalProcess process) {
    ReadRig rig;
    sim::OpenLoopOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 60;
    opts.ops_per_sec = 50'000;  // per client, comfortably below capacity
    opts.process = process;
    opts.seed = seed;
    return Flatten(sim::RunOpenLoop(opts, rig.Op()));
  };
  EXPECT_EQ(run(42, sim::ArrivalProcess::kPoisson),
            run(42, sim::ArrivalProcess::kPoisson));
  EXPECT_NE(run(42, sim::ArrivalProcess::kPoisson),
            run(43, sim::ArrivalProcess::kPoisson));
  EXPECT_EQ(run(7, sim::ArrivalProcess::kDeterministic),
            run(7, sim::ArrivalProcess::kDeterministic));
}

TEST(LoadDriverTest, WorkloadStreamIsIndependentOfArrivalProcess) {
  // The op closure draws sizes/addresses from the client RNG; switching the
  // arrival process (a separately salted stream) must not perturb those
  // draws: both runs move exactly the same bytes.
  auto bytes = [&](sim::ArrivalProcess process) {
    ReadRig rig;
    sim::OpenLoopOptions opts;
    opts.clients = 6;
    opts.ops_per_client = 80;
    opts.ops_per_sec = 50'000;
    opts.process = process;
    opts.seed = 42;
    return sim::RunOpenLoop(opts, rig.Op()).total.bytes_in;
  };
  EXPECT_EQ(bytes(sim::ArrivalProcess::kPoisson),
            bytes(sim::ArrivalProcess::kDeterministic));
}

TEST(LoadDriverTest, ClosedLoopOneClientReproducesManualLoopExactly) {
  // A zero-think single-client closed loop is definitionally a plain loop
  // over the op with the client's RNG: same counters, bit for bit. This
  // pins the seed derivation (client 0's stream IS `opts.seed`).
  constexpr uint64_t kSeed = 7;
  constexpr uint64_t kOps = 200;

  ReadRig manual_rig;
  NetContext manual;
  Random rng(kSeed);
  auto op = manual_rig.Op();
  for (uint64_t i = 0; i < kOps; i++) {
    ASSERT_TRUE(op(0, i, &manual, &rng).ok());
  }

  ReadRig driver_rig;
  sim::LoadOptions opts;
  opts.clients = 1;
  opts.ops_per_client = kOps;
  opts.seed = kSeed;
  const auto report = sim::RunClosedLoop(opts, driver_rig.Op());

  EXPECT_EQ(report.ops, kOps);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.makespan_ns, manual.sim_ns);
  EXPECT_EQ(report.total.sim_ns, manual.sim_ns);
  EXPECT_EQ(report.total.queue_ns, manual.queue_ns);
  EXPECT_EQ(report.total.bytes_out, manual.bytes_out);
  EXPECT_EQ(report.total.bytes_in, manual.bytes_in);
  EXPECT_EQ(report.total.round_trips, manual.round_trips);
}

TEST(LoadDriverTest, OffloadedLockWorkloadIsBitIdenticalAndCountsRpcs) {
  // The load driver over the memory-node executor's lock table: same seed
  // -> bit-identical report, and the op stream's RPC arithmetic is exact —
  // each op is one `exec.lock.acquire` Call plus one `exec.lock.release`
  // per 4-op window, with no one-sided verbs at all on the offloaded path.
  constexpr uint64_t kClients = 8;
  constexpr uint64_t kOps = 40;
  auto run = [&](uint64_t seed) {
    Fabric fabric;
    MemoryNode pool(&fabric, "pool", 1 << 20);
    MemNodeExecutor exec(&fabric, &pool);
    OffloadedLockClient locks(&fabric, pool.node());
    CongestionConfig cfg;
    cfg.node_caps[pool.node()] = ResourceCapacity{900, 0.05};
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = kClients;
    opts.ops_per_client = kOps;
    opts.seed = seed;
    auto report = sim::RunClosedLoop(
        opts, [&](uint64_t client, uint64_t op, NetContext* ctx, Random* rng) {
          const TxnId txn = client * 1'000'000 + op / 4 + 1;
          const uint64_t key = client * 64 + op % 4 + rng->Uniform(1);
          const Status st =
              locks.AcquireLock(ctx, txn, key, LockMode::kExclusive);
          if (!st.ok()) return st;
          if (op % 4 == 3) locks.ReleaseAllLocks(ctx, txn);
          return Status::OK();
        });
    EXPECT_EQ(exec.active_locks(), 0u);
    return report;
  };
  const auto a = run(42);
  ASSERT_EQ(a.ops, kClients * kOps);
  ASSERT_EQ(a.errors, 0u);
  EXPECT_EQ(a.total.rpcs, a.ops + a.ops / 4);
  EXPECT_EQ(a.total.round_trips, a.total.rpcs);  // Calls only, nothing 1-sided
  EXPECT_EQ(Flatten(a), Flatten(run(42)));
}

TEST(LoadDriverTest, MakespanIsTheSlowestClientClock) {
  ReadRig rig;
  sim::LoadOptions opts;
  opts.clients = 9;
  opts.ops_per_client = 40;
  const auto closed = sim::RunClosedLoop(opts, rig.Op());
  ASSERT_EQ(closed.per_client_sim_ns.size(), opts.clients);
  uint64_t max_clock = 0;
  for (uint64_t ns : closed.per_client_sim_ns) {
    max_clock = std::max(max_clock, ns);
  }
  EXPECT_EQ(closed.makespan_ns, max_clock);
  EXPECT_EQ(closed.total.sim_ns, max_clock);  // MergeParallel semantics

  ReadRig rig2;
  sim::OpenLoopOptions open_opts;
  open_opts.clients = 9;
  open_opts.ops_per_client = 40;
  open_opts.ops_per_sec = 50'000;
  const auto open = sim::RunOpenLoop(open_opts, rig2.Op());
  ASSERT_EQ(open.per_client_sim_ns.size(), open_opts.clients);
  max_clock = 0;
  for (uint64_t ns : open.per_client_sim_ns) {
    max_clock = std::max(max_clock, ns);
  }
  EXPECT_EQ(open.makespan_ns, max_clock);
  EXPECT_EQ(open.total.sim_ns, max_clock);
}

TEST(LoadDriverTest, DeterministicArrivalsAreExactlySpaced) {
  // 4 phase-staggered deterministic streams at 100k ops/s each: client c's
  // k-th arrival is at period*c/4 + k*period, so the slowest stream's last
  // op lands at 7500 + 1999*10000 ns and the makespan is that plus the
  // (uncontended) read cost — exactly.
  Fabric fabric;
  NodeId node =
      fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
  MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);

  sim::OpenLoopOptions opts;
  opts.clients = 4;
  opts.ops_per_client = 2000;
  opts.ops_per_sec = 100'000;  // period: 10 us
  opts.process = sim::ArrivalProcess::kDeterministic;
  const auto report = sim::RunOpenLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
        char buf[8];
        GlobalAddr addr{node, region->id(), 0};
        return fabric.Read(ctx, addr, buf, 8);
      });

  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  EXPECT_EQ(report.ops, 8000u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.makespan_ns, 7'500 + 1999 * 10'000 + read_cost);
  EXPECT_DOUBLE_EQ(report.offered_ops_per_sec, 400'000.0);
  // Uncontended ops: each stream has at most one op in flight, and the
  // 2508 ns read overlaps the next stream's arrival (2500 ns stagger) by
  // 8 ns — so the depth gauge reads exactly 2 at every post-warmup arrival.
  EXPECT_EQ(report.max_in_flight, 2u);
}

TEST(LoadDriverTest, PoissonArrivalsHitTheConfiguredRate) {
  // Law of large numbers: 4 streams x 2000 exponential gaps of mean 10 us
  // put the slowest stream's span within a few percent of 20 ms, so the
  // achieved rate of an uncontended run lands within 10% of offered.
  Fabric fabric;
  NodeId node =
      fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
  MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);

  sim::OpenLoopOptions opts;
  opts.clients = 4;
  opts.ops_per_client = 2000;
  opts.ops_per_sec = 100'000;
  opts.process = sim::ArrivalProcess::kPoisson;
  const auto report = sim::RunOpenLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
        char buf[8];
        GlobalAddr addr{node, region->id(), 0};
        return fabric.Read(ctx, addr, buf, 8);
      });

  EXPECT_EQ(report.errors, 0u);
  EXPECT_NEAR(report.ThroughputOpsPerSec(), report.offered_ops_per_sec,
              0.10 * report.offered_ops_per_sec);
}

TEST(LoadDriverTest, OpenLoopPastCapacityPlateausWhileQueueGrows) {
  // The defining open-loop property: offered load does not self-throttle.
  // At 1.4x capacity the achieved rate pins at capacity while the in-flight
  // count and the response-time tail blow up; at 0.5x both stay tame.
  constexpr uint64_t kServiceNs = 1000;  // capacity: 1M ops/s
  auto run = [&](double offered_frac) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{kServiceNs, 0.0};
    fabric.EnableCongestion(cfg);

    sim::OpenLoopOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 1000;
    opts.ops_per_sec = offered_frac * 1e9 / kServiceNs / 8.0;
    const auto report = sim::RunOpenLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[8];
          GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
          return fabric.Read(ctx, addr, buf, 8);
        });
    EXPECT_EQ(report.errors, 0u);
    return report;
  };

  const auto below = run(0.5);
  const auto above = run(1.4);
  const double capacity = 1e9 / static_cast<double>(kServiceNs);

  // Below the knee: achieved tracks offered, bounded queue.
  EXPECT_NEAR(below.ThroughputOpsPerSec(), below.offered_ops_per_sec,
              0.10 * below.offered_ops_per_sec);
  // Past the knee: plateau at capacity...
  EXPECT_GE(above.ThroughputOpsPerSec(), 0.9 * capacity);
  EXPECT_LE(above.ThroughputOpsPerSec(), 1.001 * capacity);
  // ...while offered kept rising and the queue exploded.
  EXPECT_GE(above.offered_ops_per_sec, 1.3 * capacity);
  EXPECT_GE(above.max_in_flight, 10 * below.max_in_flight);
  EXPECT_GE(above.latency.Percentile(99), 10.0 * below.latency.Percentile(99));
  EXPECT_GT(above.queue_depth.Mean(), 10.0 * below.queue_depth.Mean());
}

TEST(LoadDriverTest, OpenLoopQueueDepthGaugePropertiesAtHighRate) {
  // Past-capacity structural properties of the in-flight gauge: one sample
  // per arrival, the reported max is the gauge's max, achieved throughput
  // never exceeds the service capacity, and pushing the offered rate up
  // strictly deepens the queue.
  constexpr uint64_t kServiceNs = 1000;  // capacity: 1M ops/s
  auto run = [&](double per_client_rate) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{kServiceNs, 0.0};
    fabric.EnableCongestion(cfg);

    sim::OpenLoopOptions opts;
    opts.clients = 16;
    opts.ops_per_client = 500;
    opts.ops_per_sec = per_client_rate;
    const auto report = sim::RunOpenLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[8];
          GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
          return fabric.Read(ctx, addr, buf, 8);
        });
    EXPECT_EQ(report.queue_depth.count(), report.ops);
    EXPECT_EQ(report.max_in_flight,
              static_cast<uint64_t>(report.queue_depth.max()));
    EXPECT_LE(report.ThroughputOpsPerSec(), 1.001 * 1e9 / kServiceNs);
    return report;
  };

  const auto at_1p5x = run(1.5 * 1e9 / kServiceNs / 16.0);
  const auto at_3x = run(3.0 * 1e9 / kServiceNs / 16.0);
  // Double the overload, deeper queue: the open loop keeps offering.
  EXPECT_GT(at_3x.queue_depth.Mean(), 1.5 * at_1p5x.queue_depth.Mean());
  EXPECT_GT(at_3x.max_in_flight, at_1p5x.max_in_flight);
  EXPECT_GT(at_3x.offered_ops_per_sec, at_3x.ThroughputOpsPerSec());
}

TEST(LoadDriverTest, BatchingOnCoalescesRoundTripsAndCostsLess) {
  // The same four reads ride one descriptor: one round trip, one per-op
  // overhead, strictly cheaper than four plain reads — while moving exactly
  // the same bytes.
  Fabric fabric;
  NodeId node =
      fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
  fabric.node(node)->AddRegion("heap", 1 << 20);
  char dst[4][256];
  std::vector<Fabric::BatchOp> ops(4);
  for (int i = 0; i < 4; i++) {
    ops[i].verb = FabricVerb::kRead;
    ops[i].addr = RemoteAddr{0, static_cast<uint64_t>(i) * 4096};
    ops[i].dst = dst[i];
    ops[i].n = sizeof(dst[i]);
  }
  NetContext batched;
  EXPECT_TRUE(fabric.ExecuteBatch(&batched, node, &ops).ok());

  NetContext plain;
  for (int i = 0; i < 4; i++) {
    const GlobalAddr addr{node, 0, static_cast<uint64_t>(i) * 4096};
    EXPECT_TRUE(fabric.Read(&plain, addr, dst[i], sizeof(dst[i])).ok());
  }

  EXPECT_EQ(plain.round_trips, 4u);
  EXPECT_EQ(batched.round_trips, 1u);
  EXPECT_EQ(plain.bytes_in, batched.bytes_in);  // same data moved
  EXPECT_LT(batched.sim_ns, plain.sim_ns);      // coalescing saved overhead
  EXPECT_EQ(batched.per_verb[static_cast<size_t>(FabricVerb::kBatch)].ops, 1u);
}

TEST(LoadDriverTest, RefusedBatchFailsEveryMemberAndMovesNothing) {
  // All-or-nothing: one out-of-bounds member poisons the whole descriptor.
  Fabric fabric;
  NodeId node =
      fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
  fabric.node(node)->AddRegion("heap", 4096);

  char dst[2][64];
  std::vector<Fabric::BatchOp> ops(2);
  ops[0].verb = FabricVerb::kRead;
  ops[0].addr = RemoteAddr{0, 0};
  ops[0].dst = dst[0];
  ops[0].n = 64;
  ops[1].verb = FabricVerb::kRead;
  ops[1].addr = RemoteAddr{0, 1 << 20};  // out of the 4 KiB region
  ops[1].dst = dst[1];
  ops[1].n = 64;

  NetContext ctx;
  EXPECT_FALSE(fabric.ExecuteBatch(&ctx, node, &ops).ok());
  EXPECT_FALSE(ops[0].status.ok());  // the valid member fails with the batch
  EXPECT_FALSE(ops[1].status.ok());
  EXPECT_EQ(ctx.bytes_in, 0u);  // nothing moved
}

TEST(LoadDriverTest, ErrorsAndBusyAreCountedWithoutStoppingClients) {
  // A failing op counts as an error (Busy tracked separately) and the
  // client keeps issuing; every op still records a latency sample.
  sim::LoadOptions opts;
  opts.clients = 2;
  opts.ops_per_client = 30;
  const auto report = sim::RunClosedLoop(
      opts, [&](uint64_t, uint64_t i, NetContext* ctx, Random*) -> Status {
        ctx->Charge(100);
        if (i % 3 == 1) return Status::Busy("backlog");
        if (i % 3 == 2) return Status::Unavailable("down");
        return Status::OK();
      });
  EXPECT_EQ(report.ops, 60u);
  EXPECT_EQ(report.errors, 40u);
  EXPECT_EQ(report.busy, 20u);
  EXPECT_EQ(report.latency.count(), 60u);
  EXPECT_EQ(report.makespan_ns, 30u * 100u);
}

TEST(LoadDriverTest, OnlyMultiPartitionRunsInstallPartitionEffects) {
  // One partition has nothing to exchange, so its ops act on the
  // authoritative shared state; with two, every op runs against its
  // partition's effects container.
  for (uint32_t partitions : {1u, 2u}) {
    uint64_t with_effects = 0;
    sim::LoadOptions opts;
    opts.clients = 4;
    opts.ops_per_client = 5;
    opts.parallel.partitions = partitions;
    const auto report = sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
          ctx->Charge(100);
          if (CurrentPartitionEffects() != nullptr) with_effects++;
          return Status::OK();
        });
    EXPECT_EQ(report.ops, 20u);
    EXPECT_EQ(with_effects, partitions == 1 ? 0u : 20u) << partitions;
  }
  EXPECT_EQ(CurrentPartitionEffects(), nullptr);  // restored after the run
}

TEST(LoadDriverTest, ZeroPartitionsRunsAsOne) {
  auto closed = [](uint32_t partitions) {
    ReadRig rig;
    sim::LoadOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 40;
    opts.seed = 42;
    opts.parallel.partitions = partitions;
    opts.parallel.record_trace = true;
    return sim::RunClosedLoop(opts, rig.Op());
  };
  const auto c0 = closed(0);
  const auto c1 = closed(1);
  EXPECT_EQ(Flatten(c0), Flatten(c1));
  EXPECT_EQ(c0.trace, c1.trace);
  EXPECT_EQ(c0.epochs, c1.epochs);
  EXPECT_EQ(c0.trace.size(), 8u * 40u);

  auto open = [](uint32_t partitions) {
    ReadRig rig;
    sim::OpenLoopOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 40;
    opts.ops_per_sec = 100'000;
    opts.seed = 42;
    opts.parallel.partitions = partitions;
    opts.parallel.record_trace = true;
    return sim::RunOpenLoop(opts, rig.Op());
  };
  const auto o0 = open(0);
  const auto o1 = open(1);
  EXPECT_EQ(Flatten(o0), Flatten(o1));
  EXPECT_EQ(o0.trace, o1.trace);
  EXPECT_EQ(o0.epochs, o1.epochs);
  EXPECT_EQ(o0.trace.size(), 8u * 40u);
}

TEST(LoadDriverTest, DegenerateOptionsReturnEmptyReports) {
  const auto nop = [](uint64_t, uint64_t, NetContext*, Random*) {
    return Status::OK();
  };
  sim::LoadOptions closed;
  closed.clients = 0;
  EXPECT_EQ(sim::RunClosedLoop(closed, nop).ops, 0u);

  sim::OpenLoopOptions open;
  open.ops_per_client = 0;
  EXPECT_EQ(sim::RunOpenLoop(open, nop).ops, 0u);
  open.ops_per_client = 10;
  open.ops_per_sec = 0.0;
  EXPECT_EQ(sim::RunOpenLoop(open, nop).ops, 0u);

  // Non-finite rates, and rates so low that a stream's gaps cannot fit the
  // 64-bit virtual clock, get the same empty report under either process.
  for (auto process :
       {sim::ArrivalProcess::kPoisson, sim::ArrivalProcess::kDeterministic}) {
    open.process = process;
    for (double rate : {std::nan(""), std::numeric_limits<double>::infinity(),
                        -1.0, 1e-12, 1e-300}) {
      open.ops_per_sec = rate;
      const auto r = sim::RunOpenLoop(open, nop);
      EXPECT_EQ(r.ops, 0u) << rate;
      EXPECT_EQ(r.epochs, 0u) << rate;
      EXPECT_EQ(r.offered_ops_per_sec, 0.0) << rate;
    }
    // A slow rate whose stream still fits runs normally.
    open.ops_per_sec = 1e-3;
    EXPECT_EQ(sim::RunOpenLoop(open, nop).ops, 10u);
  }
}

}  // namespace
}  // namespace disagg
