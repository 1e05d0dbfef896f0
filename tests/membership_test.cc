#include "net/membership.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/interceptors.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

const RpcMethod kEcho("echo");

// Fleet membership and lease service: heartbeat-driven failure detection
// (hard crashes AND gray failures), lease-fenced revocation, unattended
// recovery orchestration, and the determinism contract — detector decisions
// are a pure function of (seed, partitions, epoch_ns), never of threads.

using Event = MembershipService::Event;
using Kind = Event::Kind;
using Health = MembershipService::NodeHealth;

MembershipOptions SnappyOptions() {
  MembershipOptions mo;
  mo.heartbeat_period_ns = 10'000;
  mo.suspicion_threshold = 2.0;   // two hard misses
  mo.repair_delay_ns = 20'000;
  mo.rejoin_probes = 2;
  return mo;
}

std::vector<Kind> Kinds(const std::vector<Event>& events) {
  std::vector<Kind> kinds;
  for (const Event& e : events) kinds.push_back(e.kind);
  return kinds;
}

class MembershipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("svc0", NodeKind::kMemory,
                            InterconnectModel::Rdma());
  }

  /// Drives `n` consecutive barrier steps, one heartbeat period apart.
  void Step(MembershipService* member, int n) {
    for (int i = 0; i < n; i++) {
      now_ns_ += member->options().heartbeat_period_ns;
      member->EndEpoch(now_ns_);
    }
  }

  Fabric fabric_;
  NodeId node_ = 0;
  uint64_t now_ns_ = 0;
};

TEST_F(MembershipTest, HealthyNodeKeepsItsLeaseForever) {
  MembershipService member(&fabric_, SnappyOptions());
  member.Monitor(node_);
  Step(&member, 50);

  EXPECT_EQ(member.HealthFor(node_), Health::kUp);
  EXPECT_EQ(member.LeaseEpoch(node_), 1u);
  EXPECT_TRUE(member.LeaseValid(node_, 1));
  EXPECT_TRUE(member.events().empty());
  EXPECT_EQ(member.stats().heartbeats, 50u);
  EXPECT_EQ(member.stats().misses, 0u);
  // Heartbeats rode the pipeline and were charged: one RPC each.
  EXPECT_EQ(member.probe_context().rpcs, 50u);
  EXPECT_GT(member.probe_context().sim_ns, 0u);
}

TEST_F(MembershipTest, CrashIsDetectedRevokedRepairedAndRejoined) {
  MembershipService member(&fabric_, SnappyOptions());
  member.Monitor(node_);
  uint64_t repairs = 0;
  member.OnRepair(node_, [&] {
    fabric_.node(node_)->Revive();
    repairs++;
  });

  Step(&member, 5);  // establish an RTT baseline
  member.At(now_ns_ + 1, [&] { fabric_.node(node_)->Fail(); });
  const uint64_t kill_ns = now_ns_ + 1;
  Step(&member, 12);  // detect (2 misses), revoke, repair, probation, rejoin

  EXPECT_EQ(member.HealthFor(node_), Health::kUp);
  EXPECT_EQ(member.LeaseEpoch(node_), 2u);
  EXPECT_FALSE(member.LeaseValid(node_, 1));  // old lease fenced forever
  EXPECT_TRUE(member.LeaseValid(node_, 2));
  EXPECT_EQ(repairs, 1u);

  ASSERT_EQ(Kinds(member.events()),
            (std::vector<Kind>{Kind::kSuspect, Kind::kRevoke, Kind::kRepair,
                               Kind::kRejoin}));
  // Detection latency and MTTR are readable straight off the event log.
  const uint64_t detect_ns = member.events()[1].at_ns - kill_ns;
  const uint64_t mttr_ns = member.events()[3].at_ns - kill_ns;
  EXPECT_GT(detect_ns, 0u);
  EXPECT_GT(mttr_ns, detect_ns);
  EXPECT_EQ(member.stats().revocations, 1u);
  EXPECT_EQ(member.stats().rejoins, 1u);
}

// The status contract of net/verb.h, pinned for the detector: Busy means
// the node is ALIVE and shedding load. A node answering every probe with
// admission rejection must never accrue suspicion, never lose its lease.
TEST_F(MembershipTest, BusyIsAnAliveSignalNeverAFailure) {
  class BusyWall : public FabricInterceptor {
   public:
    const char* name() const override { return "busy-wall"; }
    Status Intercept(Fabric*, FabricOp*, NetContext* ctx,
                     const FabricOpInvoker&) override {
      ctx->Charge(100);
      return Status::Busy("admission queue full");
    }
  };
  fabric_.AddInterceptor(std::make_shared<BusyWall>());

  MembershipService member(&fabric_, SnappyOptions());
  member.Monitor(node_);
  Step(&member, 40);  // a pure-overload phase: every probe rejected

  EXPECT_EQ(member.stats().busy_acks, 40u);
  EXPECT_EQ(member.stats().misses, 0u);
  EXPECT_EQ(member.stats().revocations, 0u);
  EXPECT_DOUBLE_EQ(member.SuspicionFor(node_), 0.0);
  EXPECT_EQ(member.HealthFor(node_), Health::kUp);
  EXPECT_EQ(member.LeaseEpoch(node_), 1u);
  EXPECT_TRUE(member.events().empty());
}

// Gray failure: the node answers every probe, but far outside its own RTT
// baseline. Suspicion accrues via gray increments — zero hard misses — and
// the lease is revoked anyway.
TEST_F(MembershipTest, SlowButAliveNodeIsDetectedAsGrayAndRevoked) {
  MembershipService member(&fabric_, SnappyOptions());
  member.Monitor(node_);
  Step(&member, 8);  // baseline at healthy RTT

  FaultPolicy fp;
  FaultPolicy::Slowdown sd;
  sd.node = node_;
  sd.from_ns = now_ns_;
  sd.until_ns = now_ns_ + 1'000'000;
  sd.factor = 50.0;
  fp.slowdowns.push_back(sd);
  auto fault = std::make_shared<FaultInterceptor>(fp);
  fabric_.AddInterceptor(fault);

  Step(&member, 10);

  EXPECT_GT(member.stats().gray_acks, 0u);
  EXPECT_EQ(member.stats().misses, 0u);
  EXPECT_GT(fault->slowdown_hits(), 0u);
  EXPECT_EQ(member.stats().revocations, 1u);
  // Still slow: revoked, then parked in probation (a gray ack never counts
  // as an alive probe) — but never re-admitted while the slowdown lasts.
  EXPECT_NE(member.HealthFor(node_), Health::kUp);
  EXPECT_EQ(member.stats().rejoins, 0u);
  EXPECT_FALSE(member.LeaseValid(node_, 1));
}

// One-way partition: requests toward the node vanish while its own traffic
// (conceptually) still flows. Both loss directions look like probe misses
// to the detector, and the method filter scopes the cut to heartbeats.
TEST_F(MembershipTest, OneWayPartitionTriggersRevocation) {
  for (const auto dir : {FaultPolicy::OneWay::Direction::kRequestLost,
                         FaultPolicy::OneWay::Direction::kReplyLost}) {
    Fabric fabric;
    const NodeId n =
        fabric.AddNode("svc", NodeKind::kMemory, InterconnectModel::Rdma());
    MembershipService member(&fabric, SnappyOptions());
    member.Monitor(n);

    uint64_t now = 0;
    for (int i = 0; i < 8; i++) {
      now += member.options().heartbeat_period_ns;
      member.EndEpoch(now);
    }

    FaultPolicy fp;
    FaultPolicy::OneWay ow;
    ow.node = n;
    ow.from_ns = now;
    ow.until_ns = now + 1'000'000;
    ow.dir = dir;
    ow.method = membership::kPingMethod;
    fp.oneways.push_back(ow);
    auto fault = std::make_shared<FaultInterceptor>(fp);
    fabric.AddInterceptor(fault);

    for (int i = 0; i < 6; i++) {
      now += member.options().heartbeat_period_ns;
      member.EndEpoch(now);
    }

    EXPECT_GT(fault->oneway_drops(), 0u);
    EXPECT_EQ(member.stats().revocations, 1u);
    // The cut persists, so probation probes keep vanishing: the node stays
    // out of the fleet (revoked or parked in probation), lease fenced.
    EXPECT_NE(member.HealthFor(n), Health::kUp);
    EXPECT_EQ(member.stats().rejoins, 0u);
    EXPECT_FALSE(member.LeaseValid(n, 1));
  }
}

TEST_F(MembershipTest, RepairRunsOncePerLeaseEpochAcrossRepeatedIncidents) {
  MembershipService member(&fabric_, SnappyOptions());
  member.Monitor(node_);
  uint64_t repairs = 0;
  member.OnRepair(node_, [&] {
    fabric_.node(node_)->Revive();
    repairs++;
  });

  for (int incident = 0; incident < 3; incident++) {
    Step(&member, 5);
    member.At(now_ns_ + 1, [&] { fabric_.node(node_)->Fail(); });
    Step(&member, 12);
    EXPECT_EQ(member.HealthFor(node_), Health::kUp);
    EXPECT_EQ(repairs, static_cast<uint64_t>(incident) + 1);
    EXPECT_EQ(member.LeaseEpoch(node_), static_cast<uint64_t>(incident) + 2);
  }
  EXPECT_EQ(member.stats().revocations, 3u);
  EXPECT_EQ(member.stats().rejoins, 3u);
}

// ---- Determinism: the acceptance contract --------------------------------

struct FleetRun {
  std::vector<Event> events;
  std::vector<sim::LoadReport::OpTrace> trace;
  uint64_t errors = 0;
  uint64_t ops = 0;
};

/// One self-healing incident driven by the load drivers: a fleet node is
/// killed mid-run via the membership action scheduler, detected, revoked,
/// repaired and rejoined, while clients hammer it with echo RPCs.
FleetRun RunFleet(uint32_t threads, uint32_t partitions) {
  Fabric fabric;
  const NodeId n =
      fabric.AddNode("svc0", NodeKind::kMemory, InterconnectModel::Rdma());
  fabric.node(n)->RegisterHandler(
      kEcho, [](Slice req, std::string* resp, RpcServerContext* sctx) {
        resp->assign(req.data(), req.size());
        sctx->ChargeCompute(300);
        return Status::OK();
      });

  MembershipOptions mo;
  mo.heartbeat_period_ns = 20'000;
  mo.suspicion_threshold = 2.0;
  mo.repair_delay_ns = 40'000;
  MembershipService member(&fabric, mo);
  member.Monitor(n);
  member.At(200'000, [&fabric, n] { fabric.node(n)->Fail(); });
  member.OnRepair(n, [&fabric, n] { fabric.node(n)->Revive(); });

  sim::LoadOptions opts;
  opts.clients = 8;
  opts.ops_per_client = 300;
  opts.think_ns = 1'000;
  opts.seed = 42;
  opts.parallel.threads = threads;
  opts.parallel.partitions = partitions;
  opts.parallel.epoch_ns = 20'000;
  opts.parallel.record_trace = true;
  opts.parallel.membership = &member;

  FleetRun run;
  sim::LoadReport report = sim::RunClosedLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
        std::string resp;
        return fabric.Call(ctx, n, kEcho, "ping", &resp);
      });
  run.events = member.events();
  run.trace = report.trace;
  run.errors = report.errors;
  run.ops = report.ops;
  return run;
}

TEST(MembershipDeterminismTest, DecisionsAreBitIdenticalAcrossThreadCounts) {
  const FleetRun t1 = RunFleet(1, 4);
  const FleetRun t2 = RunFleet(2, 4);
  const FleetRun t8 = RunFleet(8, 4);

  // The incident actually happened and healed.
  ASSERT_GE(t1.events.size(), 3u);
  EXPECT_GT(t1.errors, 0u);

  EXPECT_EQ(t1.events, t2.events);
  EXPECT_EQ(t1.events, t8.events);
  EXPECT_EQ(t1.trace, t2.trace);
  EXPECT_EQ(t1.trace, t8.trace);
  EXPECT_EQ(t1.errors, t2.errors);
  EXPECT_EQ(t1.errors, t8.errors);
}

TEST(MembershipDeterminismTest, SinglePartitionRunsAreThreadCountInvariant) {
  const FleetRun t1 = RunFleet(1, 1);

  ASSERT_GE(t1.events.size(), 3u);
  EXPECT_GT(t1.errors, 0u);
  for (uint32_t threads : {2u, 8u}) {
    const FleetRun tn = RunFleet(threads, 1);
    EXPECT_EQ(t1.events, tn.events) << threads;
    EXPECT_EQ(t1.trace, tn.trace) << threads;
    EXPECT_EQ(t1.errors, tn.errors) << threads;
    EXPECT_EQ(t1.ops, tn.ops) << threads;
  }
}

// With a membership service attached but monitoring nothing, every workload
// counter must be bit-identical to a run with no membership at all — the
// unconfigured seam costs nothing.
TEST(MembershipDeterminismTest, UnconfiguredServiceIsInvisibleToTheWorkload) {
  auto run = [](bool attach) {
    Fabric fabric;
    const NodeId n =
        fabric.AddNode("svc0", NodeKind::kMemory, InterconnectModel::Rdma());
    fabric.node(n)->RegisterHandler(
        kEcho, [](Slice req, std::string* resp, RpcServerContext* sctx) {
          resp->assign(req.data(), req.size());
          sctx->ChargeCompute(300);
          return Status::OK();
        });
    MembershipService member(&fabric, MembershipOptions{});
    sim::LoadOptions opts;
    opts.clients = 4;
    opts.ops_per_client = 100;
    opts.seed = 7;
    opts.parallel.record_trace = true;
    if (attach) opts.parallel.membership = &member;
    return sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random*) {
          std::string resp;
          return fabric.Call(ctx, n, kEcho, "ping", &resp);
        });
  };
  const sim::LoadReport without = run(false);
  const sim::LoadReport with = run(true);
  EXPECT_EQ(without.trace, with.trace);
  EXPECT_EQ(without.errors, with.errors);
  EXPECT_EQ(without.total.sim_ns, with.total.sim_ns);
  EXPECT_EQ(without.total.rpcs, with.total.rpcs);
  EXPECT_EQ(without.epochs, with.epochs);
}

}  // namespace
}  // namespace disagg
