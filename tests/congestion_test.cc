#include "net/congestion.h"

#include <gtest/gtest.h>

#include <memory>
#include <ranges>
#include <vector>

#include "common/histogram.h"
#include "core/engines.h"
#include "net/fabric.h"
#include "net/interceptors.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

const RpcMethod kEcho("echo");

// Exercises the shared-resource congestion layer: exact FIFO virtual-time
// queueing, zero-contention parity with the uncontended cost model,
// conservation at a saturated resource, the saturation knee under the
// closed-loop LoadDriver, and regression tests for the latency-accounting
// bugfixes that rode along (histogram percentile clamp, retry zero-backoff
// spin, parallel-merge semantics).

class CongestionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("mem0", NodeKind::kMemory,
                            InterconnectModel::Rdma());
    region_ = fabric_.node(node_)->AddRegion("heap", 1 << 20);
    fabric_.node(node_)->RegisterHandler(
        kEcho, [](Slice req, std::string* resp, RpcServerContext* sctx) {
          resp->assign(req.data(), req.size());
          sctx->ChargeCompute(500);
          return Status::OK();
        });
  }

  GlobalAddr At(uint64_t offset) const {
    return GlobalAddr{node_, region_->id(), offset};
  }

  /// One op of every verb (mirrors fabric_pipeline_test's workload).
  void RunMixedWorkload(NetContext* ctx) {
    const std::string payload = "0123456789abcdef";
    ASSERT_TRUE(fabric_.Write(ctx, At(0), payload.data(), payload.size()).ok());
    char buf[64] = {0};
    ASSERT_TRUE(fabric_.Read(ctx, At(0), buf, payload.size()).ok());
    ASSERT_TRUE(fabric_.CompareAndSwap(ctx, At(64), 0, 7).ok());
    ASSERT_TRUE(fabric_.FetchAdd(ctx, At(64), 3).ok());
    ASSERT_TRUE(fabric_.ReadAtomic64(ctx, At(64)).ok());
    std::string resp;
    ASSERT_TRUE(fabric_.Call(ctx, node_, kEcho, "ping", &resp).ok());
  }

  Fabric fabric_;
  NodeId node_ = 0;
  MemoryRegion* region_ = nullptr;
};

TEST_F(CongestionTest, DisabledByDefaultAndChargesNothing) {
  EXPECT_EQ(fabric_.congestion(), nullptr);
  NetContext ctx;
  RunMixedWorkload(&ctx);
  EXPECT_EQ(ctx.queue_ns, 0u);
}

TEST_F(CongestionTest, ZeroContentionParityIsBitIdentical) {
  NetContext bare;
  RunMixedWorkload(&bare);

  // Capacity comfortably above a single sequential client's offered load:
  // every service time is below the op's own charged cost, so the resource
  // is always idle again before the client's next arrival.
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{50, 0.25};
  fabric_.EnableCongestion(cfg);

  NetContext contended;
  RunMixedWorkload(&contended);

  EXPECT_EQ(contended.queue_ns, 0u);
  EXPECT_EQ(contended.sim_ns, bare.sim_ns);
  EXPECT_EQ(contended.bytes_out, bare.bytes_out);
  EXPECT_EQ(contended.bytes_in, bare.bytes_in);
  EXPECT_EQ(contended.round_trips, bare.round_trips);
  for (size_t v = 0; v < kNumFabricVerbs; v++) {
    EXPECT_EQ(contended.per_verb[v].sim_ns, bare.per_verb[v].sim_ns);
    EXPECT_EQ(contended.per_verb[v].ops, bare.per_verb[v].ops);
  }

  // The resources saw the traffic even though they never queued anyone.
  auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.ops, 6u);
  EXPECT_EQ(stats.queue_ns, 0u);

  fabric_.DisableCongestion();
  EXPECT_EQ(fabric_.congestion(), nullptr);
}

TEST_F(CongestionTest, FifoVirtualTimeQueueChargesExactWaits) {
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};  // 1 op / us
  fabric_.EnableCongestion(cfg);

  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  char buf[8];

  // Three clients all arrive at virtual time 0: the first is served
  // immediately, the second waits one service time, the third two.
  NetContext a, b, c;
  ASSERT_TRUE(fabric_.Read(&a, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&b, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&c, At(0), buf, 8).ok());

  EXPECT_EQ(a.queue_ns, 0u);
  EXPECT_EQ(b.queue_ns, 1000u);
  EXPECT_EQ(c.queue_ns, 2000u);
  EXPECT_EQ(a.sim_ns, read_cost);
  EXPECT_EQ(b.sim_ns, read_cost + 1000);
  EXPECT_EQ(c.sim_ns, read_cost + 2000);

  auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.ops, 3u);
  EXPECT_EQ(stats.busy_ns, 3000u);
  EXPECT_EQ(stats.queue_ns, 3000u);
  EXPECT_EQ(stats.free_ns, 3000u);
  EXPECT_EQ(stats.bytes, 24u);
  EXPECT_EQ(fabric_.congestion()->total_queue_ns(), 3000u);

  // A late arrival (after the backlog drained) pays nothing.
  NetContext d;
  d.Charge(10'000);
  ASSERT_TRUE(fabric_.Read(&d, At(0), buf, 8).ok());
  EXPECT_EQ(d.queue_ns, 0u);
}

TEST_F(CongestionTest, RejectedOpsOccupyNothing) {
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  fabric_.EnableCongestion(cfg);

  char buf[8];
  NetContext ctx;
  // Out-of-bounds read: rejected before touching the wire.
  EXPECT_TRUE(
      fabric_.Read(&ctx, At((1 << 20) - 4), buf, 8).IsInvalidArgument());
  EXPECT_EQ(ctx.queue_ns, 0u);
  EXPECT_EQ(fabric_.congestion()->NodeStats(node_).ops, 0u);

  // An op to a node the fabric does not have, with admission bounds in
  // force: refused by the fabric, and no link is made for it.
  cfg.default_node.max_backlog_ns = 500;
  fabric_.EnableCongestion(cfg);
  const NodeId missing = 0xFFFFFFF0u;
  EXPECT_TRUE(fabric_.Read(&ctx, GlobalAddr{missing, 0, 0}, buf, 8)
                  .IsInvalidArgument());
  EXPECT_EQ(ctx.queue_ns, 0u);
  EXPECT_EQ(ctx.admission_rejects, 0u);
  EXPECT_EQ(fabric_.congestion()->NodeStats(missing).ops, 0u);
}

TEST_F(CongestionTest, ForkedBranchesArriveAtParentVirtualTime) {
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  fabric_.EnableCongestion(cfg);

  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  char buf[8];

  // Parent already deep into its timeline; two forked branches fan out in
  // parallel. Arrivals are the parent's time, not zero — so the branches
  // queue only against each other (one service time), not against a stale
  // t=0 backlog.
  NetContext parent;
  parent.Charge(50'000);
  std::vector<uint64_t> queued;
  ASSERT_TRUE(FanOut(&parent, std::views::iota(0, 2), [&](int, NetContext* b) {
                Status st = fabric_.Read(b, At(0), buf, 8);
                queued.push_back(b->queue_ns);
                return st;
              }).ok());
  EXPECT_EQ(queued, (std::vector<uint64_t>{0, 1000}));

  // The parent lands at the slower branch's absolute finish time.
  EXPECT_EQ(parent.sim_ns, 50'000 + read_cost + 1000);
  EXPECT_EQ(parent.queue_ns, 1000u);
  EXPECT_EQ(parent.round_trips, 2u);
}

// ---- LoadDriver ----------------------------------------------------------

TEST_F(CongestionTest, LoadDriverIsDeterministicSameSeedSameTrace) {
  auto run = [&](uint64_t seed) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1500, 0.1};
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = 12;
    opts.ops_per_client = 60;
    opts.seed = seed;
    auto report = sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[2048];
          const size_t n = size_t{8} << rng->Uniform(8);  // 8..1024 bytes
          GlobalAddr addr{node, region->id(), rng->Uniform(64) * 2048};
          return fabric.Read(ctx, addr, buf, n);
        });
    auto stats = fabric.congestion()->NodeStats(node);
    return std::make_tuple(report.makespan_ns, report.total.sim_ns,
                           report.total.queue_ns, report.total.bytes_in,
                           report.latency.Percentile(50),
                           report.latency.Percentile(99), stats.busy_ns,
                           stats.queue_ns, stats.free_ns);
  };

  EXPECT_EQ(run(42), run(42));   // same seed -> bit-identical trace
  EXPECT_NE(run(42), run(43));   // different seed -> different schedule
}

TEST_F(CongestionTest, ConservationAtASaturatedResource) {
  CongestionConfig cfg;
  const ResourceCapacity cap{500, 0.05};
  cfg.node_caps[node_] = cap;
  fabric_.EnableCongestion(cfg);

  sim::LoadOptions opts;
  opts.clients = 16;
  opts.ops_per_client = 50;
  auto report = sim::RunClosedLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
        char buf[4096];
        GlobalAddr addr{node_, region_->id(), rng->Uniform(64) * 4096};
        return fabric_.Read(ctx, addr, buf, 4096);
      });
  ASSERT_EQ(report.errors, 0u);
  ASSERT_EQ(report.ops, 16u * 50u);

  // Conservation: the resource can do at most one service unit per unit of
  // virtual time, so total service fits inside the makespan, exactly
  // ops * service for fixed-size ops, and it never idles into the future
  // beyond the last client's clock.
  auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.ops, report.ops);
  EXPECT_EQ(stats.busy_ns, report.ops * cap.ServiceNs(4096));
  EXPECT_LE(stats.busy_ns, report.makespan_ns);
  EXPECT_LE(stats.free_ns, report.makespan_ns);

  // Client-side and resource-side queue accounting agree.
  EXPECT_EQ(report.total.queue_ns, stats.queue_ns);
  // MergeParallel semantics: the folded context's clock is the makespan.
  EXPECT_EQ(report.total.sim_ns, report.makespan_ns);
}

TEST_F(CongestionTest, SaturationKneeThroughputPlateausAndTailExplodes) {
  const uint64_t service_ns = 1000;  // capacity: 1M ops/s
  auto run = [&](uint64_t clients) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{service_ns, 0.0};
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = clients;
    opts.ops_per_client = 400;
    auto report = sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[8];
          GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
          return fabric.Read(ctx, addr, buf, 8);
        });
    EXPECT_EQ(report.errors, 0u);
    return report;
  };

  const auto r1 = run(1);
  const auto r4 = run(4);
  const auto r64 = run(64);

  const double uncontended_cost =
      static_cast<double>(InterconnectModel::Rdma().ReadCost(8));
  const double capacity_ops_per_sec = 1e9 / static_cast<double>(service_ns);

  // Below the knee (~2.5 clients here): near-linear scaling, no queueing.
  EXPECT_EQ(r1.total.queue_ns, 0u);
  EXPECT_NEAR(r1.ThroughputOpsPerSec(), 1e9 / uncontended_cost,
              0.01 * 1e9 / uncontended_cost);

  // Past the knee: throughput pinned at capacity (within 10%).
  EXPECT_GT(r4.ThroughputOpsPerSec(), 0.9 * capacity_ops_per_sec);
  EXPECT_LE(r4.ThroughputOpsPerSec(), 1.001 * capacity_ops_per_sec);
  EXPECT_GT(r64.ThroughputOpsPerSec(), 0.9 * capacity_ops_per_sec);
  EXPECT_LE(r64.ThroughputOpsPerSec(), 1.001 * capacity_ops_per_sec);

  // Deep in saturation the tail is queueing-dominated: p99 is at least 10x
  // the uncontended p99 (it is ~64 service times here).
  EXPECT_GE(r64.latency.Percentile(99), 10.0 * r1.latency.Percentile(99));
  EXPECT_GT(r64.total.queue_ns, 0u);
}

TEST_F(CongestionTest, LoadDriverThinkTimeShapesOfferedLoad) {
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  fabric_.EnableCongestion(cfg);

  // 8 clients, each thinking 99 us between 2.5 us ops: offered load ~79k
  // ops/s, far under the 1M ops/s capacity. The only queueing is the
  // simultaneous-start transient (everyone arrives at t=0, client i waits
  // i service times); after that the clients are spread out and never
  // collide again.
  sim::LoadOptions opts;
  opts.clients = 8;
  opts.ops_per_client = 100;
  opts.think_ns = 99'000;
  auto report = sim::RunClosedLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
        char buf[8];
        return fabric_.Read(ctx, At(0), buf, 8);
      });
  const uint64_t startup_transient = 1000 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_EQ(report.total.queue_ns, startup_transient);

  // Latency samples exclude think time: the fastest op is the bare read and
  // the slowest is the last client's first (fully queued) op.
  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  EXPECT_EQ(report.latency.min(), read_cost);
  EXPECT_EQ(report.latency.max(), read_cost + 7 * 1000);
}

// ---- Weighted fair queueing ----------------------------------------------

TEST_F(CongestionTest, WfqSingleTenantIsBitIdenticalToFifo) {
  // Configuring weights flips the queue to start-time fair queueing, but
  // with every op billed to one tenant the lane arithmetic degenerates to
  // exactly the FIFO virtual-time queue: same waits, same stats, bit for
  // bit. This is the parity contract that keeps single-tenant workloads
  // unchanged when a config enables WFQ "just in case".
  auto run = [](bool wfq) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1000, 0.0};
    if (wfq) cfg.tenant_weights[5] = 3.0;  // any weight map enables WFQ
    fabric.EnableCongestion(cfg);

    char buf[8];
    std::vector<uint64_t> waits;
    std::vector<NetContext> ctxs(4);
    for (NetContext& ctx : ctxs) {
      GlobalAddr addr{node, region->id(), 0};
      EXPECT_TRUE(fabric.Read(&ctx, addr, buf, 8).ok());
      waits.push_back(ctx.queue_ns);
    }
    const auto stats = fabric.congestion()->NodeStats(node);
    return std::make_tuple(waits, stats.busy_ns, stats.queue_ns,
                           stats.free_ns, stats.ops);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(CongestionTest, WfqLaneArithmeticIsExact) {
  // Two equal-weight tenants at one resource, all arrivals at t=0, service
  // 1000 ns each. Lane math (stretch = service * active_weight / weight):
  //  - a (tenant 1): other lane idle, stretch 1000, starts at 0, no wait;
  //  - b (tenant 2): lane 1 draining, stretch 2000, virtual start 1000;
  //  - c (tenant 1): lane 2 draining, stretch 2000 on top of lane 1's
  //    backlog -> virtual start 2000.
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  cfg.tenant_weights[1] = 1.0;
  cfg.tenant_weights[2] = 1.0;
  fabric_.EnableCongestion(cfg);

  char buf[8];
  NetContext a, b, c;
  a.tenant = 1;
  b.tenant = 2;
  c.tenant = 1;
  ASSERT_TRUE(fabric_.Read(&a, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&b, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&c, At(0), buf, 8).ok());
  EXPECT_EQ(a.queue_ns, 0u);
  EXPECT_EQ(b.queue_ns, 1000u);
  EXPECT_EQ(c.queue_ns, 2000u);

  const auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.ops, 3u);
  EXPECT_EQ(stats.busy_ns, 3000u);  // true service, not stretched service
  const auto per_tenant = fabric_.congestion()->NodeTenantOps(node_);
  EXPECT_EQ(per_tenant.at(1), 2u);
  EXPECT_EQ(per_tenant.at(2), 1u);
}

TEST_F(CongestionTest, WfqEqualWeightsMatchFifoSharesAtSaturation) {
  // Equal weights must reproduce FIFO's aggregate behaviour at a saturated
  // resource: same total work, makespan within a small tolerance (the two
  // disciplines order ops differently, so only aggregates are comparable).
  auto run = [](bool wfq) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1000, 0.0};
    if (wfq) {
      cfg.tenant_weights[1] = 2.5;
      cfg.tenant_weights[2] = 2.5;
    }
    fabric.EnableCongestion(cfg);

    sim::LoadOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 100;
    auto report = sim::RunClosedLoop(
        opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
          ctx->tenant = client < 4 ? 1 : 2;
          char buf[8];
          GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
          return fabric.Read(ctx, addr, buf, 8);
        });
    EXPECT_EQ(report.errors, 0u);
    return std::make_pair(report.makespan_ns,
                          fabric.congestion()->NodeStats(node).busy_ns);
  };

  const auto fifo = run(false);
  const auto wfq = run(true);
  EXPECT_EQ(fifo.second, wfq.second);  // identical total service
  EXPECT_NEAR(static_cast<double>(wfq.first), static_cast<double>(fifo.first),
              0.05 * static_cast<double>(fifo.first));
}

TEST_F(CongestionTest, WfqSharesConvergeToWeightsAndConserveWork) {
  // Weights 2:1, both tenants saturating one resource with equal work (400
  // fixed-size ops each at service 1000 ns). While both lanes are
  // backlogged tenant 1 drains at 2/3 capacity and tenant 2 at 1/3, so
  // tenant 1 finishes its work at ~600 us; tenant 2 then owns the full
  // resource for its remaining ~200 ops: done at ~800 us. Work is
  // conserved throughout — the resource never idles while backlogged, so
  // the makespan is (within the startup transient) total service.
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  cfg.tenant_weights[1] = 2.0;
  cfg.tenant_weights[2] = 1.0;
  fabric_.EnableCongestion(cfg);

  sim::LoadOptions opts;
  opts.clients = 8;  // 0..3 tenant 1, 4..7 tenant 2
  opts.ops_per_client = 100;
  auto report = sim::RunClosedLoop(
      opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
        ctx->tenant = client < 4 ? 1 : 2;
        char buf[8];
        GlobalAddr addr{node_, region_->id(), rng->Uniform(1024) * 8};
        return fabric_.Read(ctx, addr, buf, 8);
      });
  ASSERT_EQ(report.errors, 0u);

  uint64_t heavy_done = 0, light_done = 0;
  for (uint64_t c = 0; c < 8; c++) {
    auto& done = c < 4 ? heavy_done : light_done;
    done = std::max(done, report.per_client_sim_ns[c]);
  }
  // 2:1 weights: the heavy tenant completes its equal share of the work in
  // ~3/4 of the light tenant's time (600 us vs 800 us).
  EXPECT_NEAR(static_cast<double>(heavy_done) / static_cast<double>(light_done),
              0.75, 0.06);

  // Work conservation: total service is exact, and the resource was busy
  // essentially the whole makespan (startup transient aside).
  const auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.busy_ns, 800u * 1000u);
  EXPECT_LE(stats.busy_ns, report.makespan_ns);
  EXPECT_GE(static_cast<double>(stats.busy_ns),
            0.95 * static_cast<double>(report.makespan_ns));
}

// ---- Admission control ---------------------------------------------------

TEST_F(CongestionTest, RejectionChargesExactlyTheRejectionCost) {
  CongestionConfig cfg;
  auto& cap = cfg.node_caps[node_];
  cap = ResourceCapacity{1000, 0.0};
  cap.max_backlog_ns = 5000;
  fabric_.EnableCongestion(cfg);

  // Six simultaneous arrivals build a 6000 ns backlog (the bound admits the
  // op that lands exactly at 5000).
  char buf[8];
  std::vector<NetContext> filler(6);
  for (NetContext& ctx : filler) {
    ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  }

  NetContext rejected;
  const Status st = fabric_.Read(&rejected, At(0), buf, 8);
  EXPECT_TRUE(st.IsBusy());
  // Learns "no", pays only that.
  EXPECT_EQ(rejected.sim_ns, CongestionConfig::kRejectionCostNs);
  EXPECT_EQ(rejected.queue_ns, 0u);
  EXPECT_EQ(rejected.bytes_in, 0u);
  EXPECT_EQ(rejected.admission_rejects, 1u);

  const auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.rejections, 1u);
  EXPECT_EQ(stats.ops, 6u);  // the rejected op occupied nothing
  EXPECT_EQ(fabric_.congestion()->total_rejections(), 1u);
}

TEST_F(CongestionTest, BoundedBacklogEveryOpCompletesOrFailsBusy) {
  // The admission-control contract under sustained overload: every op
  // either completes (having waited at most the bound) or fails fast with
  // Busy, and both sides of the ledger agree on the reject count.
  CongestionConfig cfg;
  auto& cap = cfg.node_caps[node_];
  cap = ResourceCapacity{1000, 0.0};
  cap.max_backlog_ns = 5000;
  fabric_.EnableCongestion(cfg);

  sim::LoadOptions opts;
  opts.clients = 16;
  opts.ops_per_client = 50;
  auto report = sim::RunClosedLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
        char buf[8];
        GlobalAddr addr{node_, region_->id(), rng->Uniform(1024) * 8};
        return fabric_.Read(ctx, addr, buf, 8);
      });

  EXPECT_EQ(report.ops, 800u);
  EXPECT_GT(report.busy, 0u);              // the bound actually bound
  EXPECT_EQ(report.errors, report.busy);   // Busy is the only failure mode
  EXPECT_EQ(report.total.admission_rejects, report.busy);
  EXPECT_EQ(fabric_.congestion()->NodeStats(node_).rejections, report.busy);

  // Admitted ops waited at most the bound; rejected ops paid only the
  // rejection cost. Either way no latency sample exceeds bound + read.
  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  EXPECT_LE(report.latency.max(), 5000 + read_cost);

  // Conservation still holds for the admitted subset.
  const auto stats = fabric_.congestion()->NodeStats(node_);
  EXPECT_EQ(stats.ops, report.ops - report.busy);
  EXPECT_EQ(stats.busy_ns, (report.ops - report.busy) * 1000u);
}

TEST_F(CongestionTest, BusyFlowsIntoRetryInterceptorAndSucceeds) {
  // Admission rejections are retryable contention when the policy says so:
  // the op backs off (charged, deterministic), re-arrives after the backlog
  // drained below the bound, and completes with exact accounting.
  CongestionConfig cfg;
  auto& cap = cfg.node_caps[node_];
  cap = ResourceCapacity{1000, 0.0};
  cap.max_backlog_ns = 5000;
  fabric_.EnableCongestion(cfg);

  RetryPolicy rp;
  rp.initial_backoff_ns = 1000;
  rp.retry_busy = true;
  fabric_.AddInterceptor(std::make_shared<RetryInterceptor>(rp));

  char buf[8];
  std::vector<NetContext> filler(6);  // backlog: 6000 ns > bound
  for (NetContext& ctx : filler) {
    ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  }

  // Attempt 1 at t=0: backlog 6000 > 5000 -> Busy, charge 100 (rejection)
  // + 1000 (backoff). Attempt 2 at t=1100: backlog 4900 <= 5000 -> admitted
  // behind the whole backlog, waits 4900, then the read itself.
  NetContext ctx;
  ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  EXPECT_EQ(ctx.retries, 1u);
  EXPECT_EQ(ctx.backoff_ns, 1000u);
  EXPECT_EQ(ctx.admission_rejects, 1u);
  EXPECT_EQ(ctx.queue_ns, 4900u);
  EXPECT_EQ(ctx.sim_ns, 100 + 1000 + 4900 + read_cost);
  EXPECT_EQ(fabric_.congestion()->NodeStats(node_).rejections, 1u);
}

TEST_F(CongestionTest, WfqAdmissionIsPerLaneNotPerResource) {
  // Under WFQ the backlog bound applies to the arriving tenant's own lane:
  // a heavy tenant that has filled its lane gets rejected while a light
  // tenant is still admitted (its empty lane only pays the fair-queueing
  // stretch from sharing the resource).
  CongestionConfig cfg;
  auto& cap = cfg.node_caps[node_];
  cap = ResourceCapacity{1000, 0.0};
  cap.max_backlog_ns = 4000;
  cfg.tenant_weights[1] = 1.0;
  cfg.tenant_weights[2] = 1.0;
  fabric_.EnableCongestion(cfg);

  char buf[8];
  std::vector<NetContext> heavy(5);
  for (NetContext& ctx : heavy) {
    ctx.tenant = 2;
    ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());  // lane 2: 5000 ns
  }

  NetContext more_heavy;
  more_heavy.tenant = 2;
  EXPECT_TRUE(fabric_.Read(&more_heavy, At(0), buf, 8).IsBusy());

  NetContext light;
  light.tenant = 1;
  ASSERT_TRUE(fabric_.Read(&light, At(0), buf, 8).ok());
  // Lane 1 was empty: virtual start = stretched-finish - service =
  // (0 + 1000 * 2/1) - 1000 = 1000.
  EXPECT_EQ(light.queue_ns, 1000u);
  EXPECT_EQ(light.admission_rejects, 0u);
  EXPECT_EQ(more_heavy.admission_rejects, 1u);
}

// ---- Satellite bugfix regressions (each fails on main) -------------------

TEST_F(CongestionTest, RegressionHistogramLowPercentileClampsToMin) {
  Histogram h;
  h.Record(8);     // lands in the [8, 9] bucket; upper bound 9 > min 8
  h.Record(1000);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 8.0);
  EXPECT_DOUBLE_EQ(h.Percentile(10), 8.0);
}

TEST_F(CongestionTest, RegressionRetryZeroBackoffStillChargesSimTime) {
  RetryPolicy rp;
  rp.max_attempts = 4;
  rp.initial_backoff_ns = 0;  // used to multiply to 0 forever: free retries
  fabric_.AddInterceptor(std::make_shared<RetryInterceptor>(rp));
  fabric_.node(node_)->Fail();

  NetContext ctx;
  char buf[8];
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).IsUnavailable());
  EXPECT_EQ(ctx.retries, 3u);
  EXPECT_GT(ctx.backoff_ns, 0u);  // floored at 1 ns per retry
  EXPECT_GE(ctx.sim_ns, ctx.backoff_ns);
  fabric_.node(node_)->Revive();
}

TEST_F(CongestionTest, RegressionParallelMergeTakesMaxAndCarriesQueueNs) {
  NetContext a, b;
  a.Charge(100);
  a.queue_ns = 40;
  a.bytes_in = 8;
  b.Charge(300);
  b.queue_ns = 10;
  b.bytes_in = 16;

  // Concurrent clients: elapsed time is the max, traffic and queue delay
  // are summed (a sequential fold would claim 400 ns of wall-clock).
  NetContext parallel;
  const NetContext branches[2] = {a, b};
  MergeParallel(&parallel, branches, 2);
  EXPECT_EQ(parallel.sim_ns, 300u);
  EXPECT_EQ(parallel.queue_ns, 50u);
  EXPECT_EQ(parallel.bytes_in, 24u);

  NetContext sequential;
  for (const NetContext& phase : branches) {
    AccumulateTraffic(&sequential, phase);
    sequential.sim_ns += phase.sim_ns;
  }
  EXPECT_EQ(sequential.sim_ns, 400u);
  EXPECT_EQ(sequential.queue_ns, 50u);

  // FanOut: branches forked mid-timeline join at the latest absolute
  // finish, charging the same elapsed time as zero-based MergeParallel.
  NetContext parent;
  parent.Charge(1000);
  const uint64_t legs[2] = {100, 300};
  ASSERT_TRUE(FanOut(&parent, legs, [](uint64_t ns, NetContext* b) {
                b->Charge(ns);
                return Status::OK();
              }).ok());
  EXPECT_EQ(parent.sim_ns, 1300u);
}

// ---- FanOut --------------------------------------------------------------

TEST_F(CongestionTest, FanOutJoinsAtTheLatestBranchAndSumsTraffic) {
  struct Leg {
    size_t bytes;
    uint64_t extra_ns;
  };
  // Uneven legs: the biggest read is not the slowest branch.
  const Leg legs[3] = {{8, 30'000}, {4096, 0}, {512, 9'000}};
  char buf[4096];
  NetContext solo[3];
  uint64_t slowest = 0;
  for (size_t i = 0; i < 3; i++) {
    ASSERT_TRUE(fabric_.Read(&solo[i], At(0), buf, legs[i].bytes).ok());
    solo[i].Charge(legs[i].extra_ns);
    slowest = std::max(slowest, solo[i].sim_ns);
  }
  ASSERT_EQ(slowest, solo[0].sim_ns);

  NetContext parent;
  parent.Charge(50'000);
  parent.tenant = 3;
  parent.deadline_ns = 1'000'000;
  parent.op_tag = 77;
  parent.fault_draws = 5;
  std::vector<uint64_t> starts;
  ASSERT_TRUE(FanOut(&parent, legs, [&](const Leg& leg, NetContext* b) {
                // Each branch is a Fork() at the fan-out's start.
                starts.push_back(b->sim_ns);
                EXPECT_EQ(b->tenant, 3u);
                EXPECT_EQ(b->deadline_ns, 1'000'000u);
                EXPECT_EQ(b->op_tag, 77u);
                EXPECT_EQ(b->fault_draws, 0u);
                EXPECT_EQ(b->round_trips, 0u);
                Status st = fabric_.Read(b, At(0), buf, leg.bytes);
                b->Charge(leg.extra_ns);
                return st;
              }).ok());
  EXPECT_EQ(starts, (std::vector<uint64_t>{50'000, 50'000, 50'000}));
  // Clock: the latest branch finish. Traffic: the sum over branches.
  EXPECT_EQ(parent.sim_ns, 50'000 + slowest);
  EXPECT_EQ(parent.bytes_in,
            solo[0].bytes_in + solo[1].bytes_in + solo[2].bytes_in);
  EXPECT_EQ(parent.bytes_out,
            solo[0].bytes_out + solo[1].bytes_out + solo[2].bytes_out);
  EXPECT_EQ(parent.round_trips, 3u);
  EXPECT_EQ(parent.verb(FabricVerb::kRead).ops, 3u);
  EXPECT_EQ(parent.fault_draws, 5u);  // the fold leaves bookkeeping alone
}

TEST_F(CongestionTest, FanOutStopsAtAFailedBranchAndChargesThoseThatRan) {
  char buf[8];
  NetContext solo;
  ASSERT_TRUE(fabric_.Read(&solo, At(0), buf, 8).ok());

  NetContext parent;
  parent.Charge(50'000);
  int ran = 0;
  const Status st = FanOut(&parent, std::views::iota(0, 3),
                           [&](int i, NetContext* b) {
                             ran++;
                             if (i == 1) return Status::Unavailable("down");
                             return fabric_.Read(b, At(0), buf, 8);
                           });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(ran, 2);  // the third branch never starts
  EXPECT_EQ(parent.sim_ns, 50'000 + solo.sim_ns);
  EXPECT_EQ(parent.bytes_in, solo.bytes_in);
  EXPECT_EQ(parent.round_trips, 1u);
}

// Socrates disseminates XLOG redo to three page servers, the second of
// which has failed: the fan-out stops there, and the parent is still
// charged the first server's completed page.apply_log. A one-server
// deployment runs exactly that first branch, so both cost the same.
TEST(FanOutEarlyExitTest, PropagateLogsChargesTheApplyLogThatCompleted) {
  auto propagate = [](int page_servers, bool fail_second) {
    Fabric fabric;
    SocratesDb db(&fabric, page_servers);
    NetContext setup;
    EXPECT_TRUE(db.Put(&setup, 1, "row").ok());
    if (fail_second) fabric.node(db.page_server_node(1))->Fail();
    NetContext ctx;
    ctx.Charge(10'000);
    EXPECT_EQ(db.PropagateLogs(&ctx).ok(), !fail_second);
    return ctx;
  };
  const NetContext one = propagate(1, false);
  const NetContext early = propagate(3, true);
  // XLOG read + page.apply_log on the one server.
  ASSERT_EQ(one.verb(FabricVerb::kRpc).ops, 2u);
  EXPECT_EQ(early.verb(FabricVerb::kRpc).ops, 2u);
  EXPECT_EQ(early.bytes_out, one.bytes_out);
  EXPECT_EQ(early.round_trips, one.round_trips);
  EXPECT_EQ(early.sim_ns, one.sim_ns);
}

TEST_F(CongestionTest, UpdateTenantControlsSwapsWeightsAndBoundsLive) {
  // The SLO controller's actuation path: a mid-run UpdateTenantControls must
  // change both the SFQ lane arithmetic and the admission verdicts of
  // subsequent ops, with exact before/after values.
  CongestionConfig cfg;
  cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
  cfg.tenant_weights[1] = 1.0;
  cfg.tenant_weights[2] = 1.0;
  fabric_.EnableCongestion(cfg);

  char buf[8];
  NetContext a, b;
  a.tenant = 1;
  b.tenant = 2;
  ASSERT_TRUE(fabric_.Read(&a, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&b, At(0), buf, 8).ok());
  EXPECT_EQ(a.queue_ns, 0u);     // equal weights: the WFQ baseline
  EXPECT_EQ(b.queue_ns, 1000u);  // stretch 2000, virtual start 1000

  // The controller publishes: tenant 1 gets weight 3 and a 2000 ns
  // admission bound; tenant 2 keeps weight 1 (bound 0 = inherit).
  fabric_.congestion()->UpdateTenantControls(
      {{1, TenantControl{3.0, 2'000}}, {2, TenantControl{1.0, 0}}});
  const TenantControl c1 = fabric_.congestion()->ControlFor(1);
  EXPECT_DOUBLE_EQ(c1.weight, 3.0);
  EXPECT_EQ(c1.max_backlog_ns, 2'000u);
  EXPECT_DOUBLE_EQ(fabric_.congestion()->ControlFor(2).weight, 1.0);

  // At t=10000 both lanes are idle again; the new weights give exact new
  // lane arithmetic: tenant 2's op stretches 4x (active 4 / weight 1),
  // tenant 1's only 4/3.
  NetContext c, d, e;
  c.tenant = 1;
  d.tenant = 2;
  e.tenant = 1;
  c.Charge(10'000);
  d.Charge(10'000);
  e.Charge(10'000);
  ASSERT_TRUE(fabric_.Read(&c, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&d, At(0), buf, 8).ok());
  ASSERT_TRUE(fabric_.Read(&e, At(0), buf, 8).ok());
  EXPECT_EQ(c.queue_ns, 0u);
  EXPECT_EQ(d.queue_ns, 3'000u);  // stretch 1000 * 4/1, start 13000
  EXPECT_EQ(e.queue_ns, 1'333u);  // stretch 1000 * 4/3 on a 1000-deep lane

  // Tenant 1's lane is now 2333 ns deep (12333 - 10000): past its new
  // 2000 ns bound, so its next op is refused — while tenant 2, with no
  // override, inherits the resource's unbounded default and is admitted.
  NetContext f, g;
  f.tenant = 1;
  g.tenant = 2;
  f.Charge(10'000);
  g.Charge(10'000);
  EXPECT_TRUE(fabric_.Read(&f, At(0), buf, 8).IsBusy());
  EXPECT_EQ(f.admission_rejects, 1u);
  ASSERT_TRUE(fabric_.Read(&g, At(0), buf, 8).ok());
  EXPECT_EQ(g.queue_ns, 7'000u);  // lane 4000 deep + stretch 4000 - service
}

}  // namespace
}  // namespace disagg
