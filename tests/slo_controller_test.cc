#include "net/slo_controller.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/congestion.h"
#include "net/fabric.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

// The SLO control plane suite: the feedback law's fixed point (the deadband),
// the weight -> admission escalation order, the infeasibility
// freeze (flagged SLO sets never oscillate), the EDF discipline's exact
// queue-jump arithmetic and its non-starvation slack for deadline-less ops,
// and the determinism contract:
// controller decisions are a pure function of (seed, workload, partitions,
// epoch_ns) — never of the thread count.

/// `n` identical-latency OK samples for `tenant`. Constant samples pin the
/// histogram's p99 to exactly `latency_ns` (the min/max clamp), so the
/// control-law arithmetic below is exact, not bucket-approximate.
void FeedOk(SloController* ctrl, uint32_t tenant, uint64_t n,
            uint64_t latency_ns) {
  SloController::EpochObservations obs;
  for (uint64_t i = 0; i < n; i++) obs[tenant].Add(latency_ns, Status::OK());
  ctrl->Ingest(obs);
}

class SloControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("mem0", NodeKind::kMemory,
                            InterconnectModel::Rdma());
    region_ = fabric_.node(node_)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node_] = ResourceCapacity{1000, 0.0};
    cfg.tenant_weights[1] = 1.0;
    cfg.tenant_weights[2] = 1.0;
    cfg.tenant_weights[3] = 2.5;  // operator-tuned tenant with no SLO
    fabric_.EnableCongestion(cfg);
  }

  /// Runs `epochs` control epochs, each fed `n` constant `latency_ns`
  /// samples for tenant 1.
  void Drive(SloController* ctrl, int epochs, uint64_t n, uint64_t latency_ns) {
    for (int e = 0; e < epochs; e++) {
      FeedOk(ctrl, 1, n, latency_ns);
      ctrl->EndEpoch(static_cast<uint64_t>(e + 1) * 100'000);
    }
  }

  Fabric fabric_;
  NodeId node_ = 0;
  MemoryRegion* region_ = nullptr;
};

TEST_F(SloControllerTest, DeadbandIsTheFixedPoint) {
  // observed/target = 0.9 sits inside [deadband_lo, 1.0]: the controller
  // must hold every actuator, count stable epochs, and report convergence.
  fabric_.DeclareSlo(1, SloSpec{10'000});
  SloController ctrl(&fabric_, {});
  Drive(&ctrl, 5, 32, 9'000);

  const auto ts = ctrl.StateFor(1);
  EXPECT_TRUE(ts.meeting);
  EXPECT_DOUBLE_EQ(ts.weight, 1.0);
  EXPECT_EQ(ts.backlog_bound_ns, 10'000u);  // seeded at target, never moved
  EXPECT_DOUBLE_EQ(ts.observed_p99_ns, 9'000.0);
  EXPECT_EQ(ts.stable_epochs, 5u);
  EXPECT_TRUE(ctrl.AllConverged());
  EXPECT_FALSE(ctrl.AnyInfeasible());

  // The first-epoch publish pushed the seeded controls to the live table.
  const TenantControl c = fabric_.congestion()->ControlFor(1);
  EXPECT_DOUBLE_EQ(c.weight, 1.0);
  EXPECT_EQ(c.max_backlog_ns, 10'000u);
}

TEST_F(SloControllerTest, MissSaturatesActuatorsThenFlagsInfeasibleAndFreezes) {
  // A 2x miss every epoch: the weight
  // climbs by 1.4x per epoch to the 64.0 clamp, the admission bound tightens
  // by 0.8x per epoch to the 0.25*target floor, and once both are pinned the
  // tenant accrues saturated epochs and is flagged infeasible — FROZEN, not
  // oscillated.
  fabric_.DeclareSlo(1, SloSpec{10'000});
  SloController ctrl(&fabric_, {});
  Drive(&ctrl, 25, 32, 20'000);

  const auto ts = ctrl.StateFor(1);
  EXPECT_TRUE(ts.infeasible);
  EXPECT_TRUE(ctrl.AnyInfeasible());
  EXPECT_DOUBLE_EQ(ts.weight, 64.0);      // max_weight clamp
  EXPECT_EQ(ts.backlog_bound_ns, 2'500u);  // 0.25 * target floor
  EXPECT_FALSE(ts.meeting);

  // Five more missing epochs: the frozen state must not move by a bit.
  for (int e = 0; e < 5; e++) {
    FeedOk(&ctrl, 1, 32, 20'000);
    ctrl.EndEpoch(2'600'000 + static_cast<uint64_t>(e) * 100'000);
    const auto frozen = ctrl.StateFor(1);
    EXPECT_DOUBLE_EQ(frozen.weight, 64.0);
    EXPECT_EQ(frozen.backlog_bound_ns, 2'500u);
    EXPECT_TRUE(frozen.infeasible);
    const TenantControl c = fabric_.congestion()->ControlFor(1);
    EXPECT_DOUBLE_EQ(c.weight, 64.0);
    EXPECT_EQ(c.max_backlog_ns, 2'500u);
  }
}

TEST_F(SloControllerTest, ThinEvidenceHoldsEveryActuator) {
  // Five samples per epoch (< min_samples = 16): however terrible their
  // latency, the controller refuses to steer on thin evidence.
  fabric_.DeclareSlo(1, SloSpec{10'000});
  SloController ctrl(&fabric_, {});
  Drive(&ctrl, 4, 5, 500'000);

  const auto ts = ctrl.StateFor(1);
  EXPECT_DOUBLE_EQ(ts.weight, 1.0);
  EXPECT_EQ(ts.backlog_bound_ns, 10'000u);
  EXPECT_DOUBLE_EQ(ts.observed_p99_ns, 0.0);  // never enough to estimate
  EXPECT_EQ(ts.stable_epochs, 4u);
  EXPECT_TRUE(ctrl.AllConverged());
}

TEST_F(SloControllerTest, PublishedControlsPreserveOperatorWeights) {
  // One missing epoch moves tenant 1's controls; tenant 3 (operator weight
  // 2.5, no SLO) must keep its static share in the published table, and
  // tenant 2 stays at its config weight with no bound.
  fabric_.DeclareSlo(1, SloSpec{10'000});
  SloController ctrl(&fabric_, {});
  FeedOk(&ctrl, 1, 32, 20'000);
  ctrl.EndEpoch(100'000);

  const TenantControl c1 = fabric_.congestion()->ControlFor(1);
  EXPECT_DOUBLE_EQ(c1.weight, 1.4);         // 1.0 * (1 + 0.4 * (2.0 - 1.0))
  EXPECT_EQ(c1.max_backlog_ns, 8'000u);     // 10000 * 0.8
  const TenantControl c3 = fabric_.congestion()->ControlFor(3);
  EXPECT_DOUBLE_EQ(c3.weight, 2.5);
  EXPECT_EQ(c3.max_backlog_ns, 0u);
  const TenantControl c2 = fabric_.congestion()->ControlFor(2);
  EXPECT_DOUBLE_EQ(c2.weight, 1.0);
  EXPECT_EQ(c2.max_backlog_ns, 0u);
}

// ---- EDF discipline -------------------------------------------------------

TEST(EdfDisciplineTest, NoDeadlinesIsBitIdenticalToFifo) {
  // With no op carrying a deadline, every effective deadline is
  // arrival + slack; arrivals are non-decreasing, so EDF order IS arrival
  // order and the fluid arithmetic must reproduce FIFO bit for bit — the
  // parity that keeps deadline-free workloads unchanged when a config flips
  // the discipline "just in case".
  auto run = [](QueueDiscipline d) {
    CongestionConfig cfg;
    cfg.node_caps[7] = ResourceCapacity{1000, 0.5};
    cfg.discipline = d;
    CongestionState cs(cfg);
    const uint64_t arrivals[] = {0, 0, 0, 500, 1500, 4000, 4000, 9000};
    const uint64_t bytes[] = {16, 512, 64, 128, 8, 1024, 32, 256};
    std::vector<uint64_t> waits;
    for (size_t i = 0; i < 8; i++) {
      waits.push_back(cs.Admit(7, 0, arrivals[i], bytes[i], 0));
    }
    const auto st = cs.NodeStats(7);
    return std::make_tuple(waits, st.ops, st.bytes, st.busy_ns, st.queue_ns,
                           st.free_ns);
  };
  EXPECT_EQ(run(QueueDiscipline::kTenantFair), run(QueueDiscipline::kEdf));
}

TEST(EdfDisciplineTest, RanksByAbsoluteDeadlineExactArithmetic) {
  CongestionConfig cfg;
  cfg.node_caps[7] = ResourceCapacity{1000, 0.0};
  cfg.discipline = QueueDiscipline::kEdf;
  CongestionState cs(cfg);

  // Four same-instant arrivals: waits are the pending work with deadlines at
  // or before the op's own, regardless of admission order.
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 10'000), 0u);
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 2'000), 0u);   // jumps the 10k op entirely
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 5'000), 1'000u);  // behind the 2k op only
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 0), 3'000u);   // deadline-less: behind all

  // By t=2000 the fluid server has drained the 2k and 5k buckets
  // (deadline-ordered drain), so a tight op arrives into a clear lane.
  EXPECT_EQ(cs.Admit(7, 0, 2'000, 8, 3'000), 0u);

  const auto st = cs.NodeStats(7);
  EXPECT_EQ(st.queue_ns, 4'000u);
  EXPECT_EQ(st.busy_ns, 5'000u);
  EXPECT_EQ(st.ops, 5u);
}

TEST(EdfDisciplineTest, DefaultSlackBoundsDeadlinelessWaitNonStarvation) {
  // The non-starvation contract: a deadline-less op is ranked at
  // arrival + slack, so work arriving with deadlines BEYOND that horizon
  // queues behind it — an arbitrarily deep stream of loose-deadline traffic
  // cannot push a deadline-less op back.
  const uint64_t slack = CongestionConfig::kEdfDefaultSlackNs;
  CongestionConfig cfg;
  cfg.node_caps[7] = ResourceCapacity{1000, 0.0};
  cfg.discipline = QueueDiscipline::kEdf;
  CongestionState cs(cfg);

  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 0), 0u);  // X: effective deadline = slack

  // Ten loose-deadline ops (slack + 1000 .. slack + 10000): each waits
  // behind X plus the earlier members of its own stream — none of them
  // displaces X.
  for (uint64_t k = 0; k < 10; k++) {
    EXPECT_EQ(cs.Admit(7, 0, 0, 8, slack + 1'000 + 1'000 * k),
              1'000 + 1'000 * k);
  }

  // A genuinely tight op still jumps everything.
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 2'000), 0u);

  // A second deadline-less op waits behind X and the tight op ONLY — not
  // behind the ten loose-deadline ops already queued.
  EXPECT_EQ(cs.Admit(7, 0, 0, 8, 0), 2'000u);
}

// ---- Closed-loop control against the real congestion model ----------------

/// One saturated RDMA node shared by two four-client tenants (clients 0..3
/// are tenant 1, 4..7 tenant 2).
struct Rig {
  Fabric fabric;
  NodeId node = 0;
  MemoryRegion* region = nullptr;
  Rig() {
    node = fabric.AddNode("mem0", NodeKind::kMemory,
                          InterconnectModel::Rdma());
    region = fabric.node(node)->AddRegion("heap", 1 << 20);
    CongestionConfig cfg;
    cfg.node_caps[node] = ResourceCapacity{1000, 0.0};
    cfg.tenant_weights[1] = 1.0;
    cfg.tenant_weights[2] = 1.0;
    fabric.EnableCongestion(cfg);
  }
};

sim::LoadReport RunMixed(Rig* rig, SloController* ctrl, uint32_t partitions,
                         uint32_t threads) {
  sim::LoadOptions opts;
  opts.clients = 8;
  opts.ops_per_client = 2'000;
  opts.seed = 42;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.record_trace = true;
  opts.parallel.controller = ctrl;
  Fabric* fabric = &rig->fabric;
  const NodeId node = rig->node;
  MemoryRegion* region = rig->region;
  return sim::RunClosedLoop(
      opts, [fabric, node, region](uint64_t client, uint64_t, NetContext* ctx,
                                   Random* rng) {
        ctx->tenant = client < 4 ? 1 : 2;
        char buf[8];
        GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
        return fabric->Read(ctx, addr, buf, 8);
      });
}

/// p99 of the OK ops belonging to tenant 1 (clients 0..3) or tenant 2,
/// over ops arriving at or after `from_ns` (0 = the whole run).
double TenantP99(const std::vector<sim::LoadReport::OpTrace>& trace,
                 bool tenant1, uint64_t from_ns = 0) {
  Histogram h;
  for (const auto& t : trace) {
    if ((t.client < 4) == tenant1 && t.code == Status::Code::kOk &&
        t.arrival_ns >= from_ns) {
      h.Record(t.done_ns - t.arrival_ns);
    }
  }
  return h.Percentile(99);
}

TEST(SloControlLoopTest, ControllerMeetsTargetWhereStaticWfqMisses) {
  const uint64_t target = 6'500;

  // Static equal weights: tenant 1's p99 blows the target.
  Rig fixed;
  const auto static_report = RunMixed(&fixed, nullptr, 1, 1);
  ASSERT_GT(static_report.ops, 0u);
  const double static_p99 = TenantP99(static_report.trace, true);
  EXPECT_GT(static_p99, static_cast<double>(target));

  // Controlled: the controller shifts weight (and tightens admission) until
  // tenant 1's p99 lands at or under the target — and holds there.
  Rig steered;
  steered.fabric.DeclareSlo(1, SloSpec{target});
  SloController ctrl(&steered.fabric, {});
  const auto ctrl_report = RunMixed(&steered, &ctrl, 1, 1);
  ASSERT_EQ(ctrl_report.ops, static_report.ops);

  const auto ts = ctrl.StateFor(1);
  EXPECT_TRUE(ts.meeting) << ctrl.ToString();
  EXPECT_LE(ts.observed_p99_ns, static_cast<double>(target))
      << ctrl.ToString();
  EXPECT_GT(ts.weight, 1.0);
  EXPECT_FALSE(ctrl.AnyInfeasible());
  EXPECT_GT(ctrl.epochs(), 10u);
  EXPECT_GT(ctrl_report.epochs, 10u);

  // The trace tells the same story as the controller's own last-epoch
  // estimate: past the convergence transient (the second half of the run),
  // the steered run's tenant-1 tail sits below the static run's — which
  // held at its saturated level the whole way.
  const double ctrl_p99 =
      TenantP99(ctrl_report.trace, true, ctrl_report.makespan_ns / 2);
  const double static_late_p99 =
      TenantP99(static_report.trace, true, static_report.makespan_ns / 2);
  EXPECT_LT(ctrl_p99, static_late_p99);
  EXPECT_GT(static_late_p99, static_cast<double>(target));
}

TEST(SloControlLoopTest, InfeasibleTargetIsFlaggedNotOscillated) {
  // 1.5 us p99 at a saturated 1-op/us resource with 8 closed-loop clients
  // is impossible at any weight: the controller must flag it and freeze.
  Rig rig;
  rig.fabric.DeclareSlo(1, SloSpec{1'500});
  SloController ctrl(&rig.fabric, {});
  RunMixed(&rig, &ctrl, 1, 1);

  EXPECT_TRUE(ctrl.AnyInfeasible()) << ctrl.ToString();
  const auto ts = ctrl.StateFor(1);
  EXPECT_TRUE(ts.infeasible);
  // Frozen at the clamps — the published table matches the frozen state.
  const TenantControl c = rig.fabric.congestion()->ControlFor(1);
  EXPECT_DOUBLE_EQ(c.weight, ts.weight);
  EXPECT_EQ(c.max_backlog_ns, ts.backlog_bound_ns);
}

// ---- Determinism ----------------------------------------------------------

struct ControlRun {
  std::vector<sim::LoadReport::OpTrace> trace;
  uint64_t makespan = 0;
  uint64_t busy = 0;
  uint64_t epochs = 0;
  std::string controller_state;
  double weight = 0.0;
  uint64_t bound = 0;
};

ControlRun RunControlled(uint32_t partitions, uint32_t threads) {
  Rig rig;
  rig.fabric.DeclareSlo(1, SloSpec{6'500});
  SloController ctrl(&rig.fabric, {});
  const auto report = RunMixed(&rig, &ctrl, partitions, threads);
  const TenantControl c = rig.fabric.congestion()->ControlFor(1);
  return ControlRun{report.trace,    report.makespan_ns, report.busy,
                    report.epochs,   ctrl.ToString(),    c.weight,
                    c.max_backlog_ns};
}

TEST(SloControlLoopTest, ControllerDecisionsAreThreadCountInvariant) {
  // Same seed, same partitions: every controller decision — and therefore
  // every published weight, every admission verdict, every op trace bit —
  // must be identical at 1, 2, and 8 worker threads. This is the live-
  // reconfig regression: weights change mid-run through the atomic snapshot
  // while 8 workers read them lock-free.
  const ControlRun t1 = RunControlled(4, 1);
  const ControlRun t2 = RunControlled(4, 2);
  const ControlRun t8 = RunControlled(4, 8);

  EXPECT_GT(t1.trace.size(), 0u);
  EXPECT_NE(t1.weight, 1.0);  // the controller actually steered mid-run

  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  EXPECT_EQ(t1.makespan, t2.makespan);
  EXPECT_EQ(t1.makespan, t8.makespan);
  EXPECT_EQ(t1.busy, t2.busy);
  EXPECT_EQ(t1.busy, t8.busy);
  EXPECT_EQ(t1.epochs, t2.epochs);
  EXPECT_EQ(t1.epochs, t8.epochs);
  EXPECT_EQ(t1.controller_state, t2.controller_state);
  EXPECT_EQ(t1.controller_state, t8.controller_state);
  EXPECT_EQ(t1.weight, t2.weight);
  EXPECT_EQ(t1.weight, t8.weight);
  EXPECT_EQ(t1.bound, t2.bound);
  EXPECT_EQ(t1.bound, t8.bound);
}

TEST(SloControlLoopTest, SinglePartitionControllerIsThreadCountInvariant) {
  // The same contract at partitions=1: same EndEpoch instants, same
  // observations, same decisions, same trace at 1, 2, and 8 threads.
  const ControlRun t1 = RunControlled(1, 1);
  EXPECT_NE(t1.weight, 1.0);  // the controller actually steered mid-run
  for (uint32_t threads : {2u, 8u}) {
    const ControlRun tn = RunControlled(1, threads);
    EXPECT_EQ(t1.trace, tn.trace) << threads;
    EXPECT_EQ(t1.makespan, tn.makespan) << threads;
    EXPECT_EQ(t1.busy, tn.busy) << threads;
    EXPECT_EQ(t1.epochs, tn.epochs) << threads;
    EXPECT_EQ(t1.controller_state, tn.controller_state) << threads;
    EXPECT_EQ(t1.weight, tn.weight) << threads;
    EXPECT_EQ(t1.bound, tn.bound) << threads;
  }
}

TEST(SloControlLoopTest, OpenLoopSinglePartitionIsThreadCountInvariant) {
  // Same on the open-loop path (independent arrival streams, epoch seeding
  // from the earliest arrival).
  auto run = [](uint32_t threads) {
    Rig rig;
    rig.fabric.DeclareSlo(1, SloSpec{6'500});
    SloController ctrl(&rig.fabric, {});
    sim::OpenLoopOptions opts;
    opts.clients = 8;
    opts.ops_per_client = 600;
    opts.ops_per_sec = 150'000.0;  // aggregate 1.2M ops/s vs 1M capacity
    opts.seed = 7;
    opts.parallel.partitions = 1;
    opts.parallel.threads = threads;
    opts.parallel.record_trace = true;
    opts.parallel.controller = &ctrl;
    Fabric* fabric = &rig.fabric;
    const NodeId node = rig.node;
    MemoryRegion* region = rig.region;
    auto report = sim::RunOpenLoop(
        opts, [fabric, node, region](uint64_t client, uint64_t,
                                     NetContext* ctx, Random* rng) {
          ctx->tenant = client < 4 ? 1 : 2;
          char buf[8];
          GlobalAddr addr{node, region->id(), rng->Uniform(1024) * 8};
          return fabric->Read(ctx, addr, buf, 8);
        });
    return std::make_tuple(report.trace, report.makespan_ns, report.epochs,
                           ctrl.ToString());
  };
  const auto t1 = run(1);
  EXPECT_GT(std::get<2>(t1), 1u);  // the run crossed epoch barriers
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(8));
}

}  // namespace
}  // namespace disagg
