// Experiment E29 (DESIGN.md): self-healing fleet under kill, gray failure,
// one-way partition, and pure overload.
//
// A four-node memory fleet serves a closed-loop read workload while the
// membership service (src/net/membership.h) heartbeats every node through
// the same fabric op pipeline the workload uses. The failure schedule:
//  - node 0 is KILLED mid-run (hard crash: every verb Unavailable);
//  - node 1 turns GRAY (slowdown window: correct answers at 8x the cost —
//    no hard failure signal at all);
//  - node 2 loses exactly its heartbeat path (one-way partition scoped to
//    member.ping: data traffic flows, probes vanish);
//  - node 3 answers probes with Busy for a window (pure overload: an ALIVE
//    signal that must never be read as death).
// Three recovery arms run the identical schedule:
//  - self-heal: the detector revokes the failed node's lease and the
//    orchestrator repairs it (revive + rejoin probation) unattended;
//  - scripted: detection and fencing run, but recovery is a hand-scripted
//    revive at a fixed delay (the pre-E29 chaos style);
//  - none: the node stays dead (availability floor).
// Reported per arm: detection latency, MTTR (revoke -> rejoin), and
// availability (completed / issued ops). The detector's event log is the
// decision trace; it must be bit-identical across worker thread counts, at
// four partitions and at one.
//
// Every run self-checks:
// the self-heal arm completes >= 99% of ops and every failed node is
// revoked, repaired, and rejoined (MTTR measured); the overloaded node is
// NEVER revoked (Busy is an alive signal); the no-recovery arm's
// availability sits strictly below self-heal's; and the self-heal run —
// detector decisions included — replays bit for bit at 1/2/8 threads, at
// partitions 4 and 1.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "net/interceptors.h"
#include "net/membership.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

// Virtual-time failure schedule (all instants are epoch-barrier aligned).
constexpr uint64_t kEpochNs = 20'000;
constexpr uint64_t kKillAtNs = 100'000;
constexpr uint64_t kGrayFromNs = 400'000;
constexpr uint64_t kGrayUntilNs = 520'000;
constexpr uint64_t kCutFromNs = 700'000;
constexpr uint64_t kCutUntilNs = 820'000;
constexpr uint64_t kBusyFromNs = 1'000'000;
constexpr uint64_t kBusyUntilNs = 1'200'000;
constexpr uint64_t kScriptedReviveNs = kKillAtNs + 200'000;

enum class Arm { kSelfHeal, kScripted, kNone };

// Returns Busy for member.ping toward one node inside a virtual-time
// window: admission-control pressure on the probe path, nothing else.
class BusyWallInterceptor : public FabricInterceptor {
 public:
  BusyWallInterceptor(NodeId node, uint64_t from_ns, uint64_t until_ns)
      : node_(node), from_ns_(from_ns), until_ns_(until_ns) {}
  const char* name() const override { return "busywall"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    if (op->node == node_ && op->verb == FabricVerb::kRpc &&
        op->method != nullptr && *op->method == membership::kPingMethod &&
        ctx->sim_ns >= from_ns_ && ctx->sim_ns < until_ns_) {
      return Status::Busy("probe admission rejected (overload window)");
    }
    return next(op, ctx);
  }

 private:
  const NodeId node_;
  const uint64_t from_ns_;
  const uint64_t until_ns_;
};

struct ArmResult {
  std::vector<MembershipService::Event> events;
  std::vector<sim::LoadReport::OpTrace> trace;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t makespan_ns = 0;
  MembershipService::Stats member_stats;
  std::vector<NodeId> nodes;
  std::vector<MembershipService::NodeHealth> final_health;
  uint64_t detect_ns = 0;  ///< kill -> revoke, killed node
  uint64_t mttr_ns = 0;    ///< revoke -> rejoin, killed node
  double Availability() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(ops - errors) /
                          static_cast<double>(ops);
  }
};

ArmResult RunArm(Arm arm, uint32_t partitions, uint32_t threads) {
  Fabric fabric;
  std::vector<NodeId> nodes;
  std::vector<MemoryRegion*> regions;
  for (int i = 0; i < 4; i++) {
    nodes.push_back(fabric.AddNode("mem" + std::to_string(i),
                                   NodeKind::kMemory,
                                   InterconnectModel::Rdma()));
    regions.push_back(fabric.node(nodes.back())->AddRegion("heap", 1 << 20));
  }

  // Retries wrap everything: ops ride out outages on backoff instead of
  // failing at first contact. Probes carry a one-period deadline, so the
  // retry loop can never stall a heartbeat past its barrier budget. The
  // backoff cap matters for more than realism: a client stuck in a
  // multi-millisecond exponential-backoff storm against the dead node
  // would leap its virtual clock clean over the gray/partition windows,
  // and with every client catapulted forward the driver (correctly)
  // skips the empty epochs — the detector would sleep through the very
  // faults it exists to catch. Bounded backoff keeps the fleet's clocks
  // dense, so every 20 us barrier actually fires.
  RetryPolicy rp;
  rp.max_attempts = 6;
  rp.initial_backoff_ns = 2'000;
  rp.backoff_multiplier = 2.0;
  rp.max_backoff_ns = 8'000;
  fabric.AddInterceptor(std::make_shared<RetryInterceptor>(rp));
  fabric.AddInterceptor(std::make_shared<BusyWallInterceptor>(
      nodes[3], kBusyFromNs, kBusyUntilNs));
  FaultPolicy fp;
  FaultPolicy::Slowdown sd;
  sd.node = nodes[1];
  sd.from_ns = kGrayFromNs;
  sd.until_ns = kGrayUntilNs;
  sd.factor = 8.0;
  fp.slowdowns.push_back(sd);
  FaultPolicy::OneWay ow;
  ow.node = nodes[2];
  ow.from_ns = kCutFromNs;
  ow.until_ns = kCutUntilNs;
  ow.method = membership::kPingMethod;
  fp.oneways.push_back(ow);
  fabric.AddInterceptor(std::make_shared<FaultInterceptor>(fp));

  MembershipOptions mo;
  mo.heartbeat_period_ns = kEpochNs;
  mo.suspicion_threshold = 2.0;
  mo.repair_delay_ns = 60'000;
  mo.rejoin_probes = 2;
  mo.auto_recover = arm == Arm::kSelfHeal;
  MembershipService member(&fabric, mo);
  for (NodeId n : nodes) member.Monitor(n);

  // The kill and the arm's recovery action, all barrier-scheduled.
  member.At(kKillAtNs, [&fabric, &nodes] { fabric.node(nodes[0])->Fail(); });
  if (arm == Arm::kSelfHeal) {
    member.OnRepair(nodes[0],
                    [&fabric, &nodes] { fabric.node(nodes[0])->Revive(); });
  } else if (arm == Arm::kScripted) {
    member.At(kScriptedReviveNs,
              [&fabric, &nodes] { fabric.node(nodes[0])->Revive(); });
  }

  sim::LoadOptions opts;
  opts.clients = 8;
  opts.ops_per_client = 2'000;
  opts.think_ns = 1'000;
  opts.seed = 42;
  opts.parallel.partitions = partitions;
  opts.parallel.threads = threads;
  opts.parallel.epoch_ns = kEpochNs;
  opts.parallel.record_trace = true;
  opts.parallel.membership = &member;
  auto report = sim::RunClosedLoop(
      opts, [&fabric, &nodes, &regions](uint64_t, uint64_t, NetContext* ctx,
                                        Random* rng) {
        char buf[64];
        const uint64_t pick = rng->Uniform(nodes.size());
        GlobalAddr addr{nodes[pick], regions[pick]->id(),
                        rng->Uniform(1024) * 64};
        return fabric.Read(ctx, addr, buf, 64);
      });

  ArmResult r;
  r.events = member.events();
  r.trace = std::move(report.trace);
  r.ops = report.ops;
  r.errors = report.errors;
  r.makespan_ns = report.makespan_ns;
  r.member_stats = member.stats();
  r.nodes = nodes;
  for (NodeId n : nodes) r.final_health.push_back(member.HealthFor(n));
  uint64_t revoked_at = 0;
  for (const auto& e : r.events) {
    if (e.node != nodes[0]) continue;
    using Kind = MembershipService::Event::Kind;
    if (e.kind == Kind::kRevoke && revoked_at == 0) {
      revoked_at = e.at_ns;
      r.detect_ns = e.at_ns - kKillAtNs;
    } else if (e.kind == Kind::kRejoin && revoked_at != 0 &&
               r.mttr_ns == 0) {
      r.mttr_ns = e.at_ns - revoked_at;
    }
  }
  return r;
}

bool NodeWasRevoked(const ArmResult& r, size_t node_idx) {
  for (const auto& e : r.events) {
    if (e.kind == MembershipService::Event::Kind::kRevoke &&
        e.node == r.nodes[node_idx]) {
      return true;
    }
  }
  return false;
}

void BM_E29_SelfHealing(benchmark::State& state) {
  ArmResult r;
  for (auto _ : state) {
    r = RunArm(Arm::kSelfHeal, 1, 1);
  }
  state.counters["availability"] = r.Availability();
  state.counters["detect_us"] = static_cast<double>(r.detect_ns) / 1e3;
  state.counters["mttr_us"] = static_cast<double>(r.mttr_ns) / 1e3;
  state.counters["revocations"] =
      static_cast<double>(r.member_stats.revocations);
  state.counters["repairs"] = static_cast<double>(r.member_stats.repairs);
  state.counters["rejoins"] = static_cast<double>(r.member_stats.rejoins);
  state.counters["gray_acks"] = static_cast<double>(r.member_stats.gray_acks);
  state.counters["busy_acks"] = static_cast<double>(r.member_stats.busy_acks);

  // >= 99% of ops complete across the kill + gray + partition schedule.
  DISAGG_CHECK(r.Availability() >= 0.99);
  // The kill was detected and healed unattended: revoke -> repair ->
  // rejoin all present, MTTR measured, node back up at the end.
  DISAGG_CHECK(r.detect_ns > 0);
  DISAGG_CHECK(r.mttr_ns > 0);
  DISAGG_CHECK(r.member_stats.repairs >= 1);
  // Every node that lost its lease was re-admitted: nothing ends the run
  // revoked or stuck in probation.
  for (auto h : r.final_health) {
    DISAGG_CHECK(h == MembershipService::NodeHealth::kUp);
  }
  DISAGG_CHECK(r.member_stats.rejoins == r.member_stats.revocations);
  // The gray node and the partitioned node were each caught without a
  // single hard failure signal from the node itself.
  DISAGG_CHECK(r.member_stats.gray_acks > 0);
  DISAGG_CHECK(NodeWasRevoked(r, 1));
  DISAGG_CHECK(NodeWasRevoked(r, 2));
  // Pure overload is an alive signal: the Busy-walled node keeps its
  // lease through the whole window.
  DISAGG_CHECK(r.member_stats.busy_acks > 0);
  DISAGG_CHECK(!NodeWasRevoked(r, 3));
}

void BM_E29_RecoveryComparison(benchmark::State& state) {
  ArmResult heal, scripted, none;
  for (auto _ : state) {
    heal = RunArm(Arm::kSelfHeal, 1, 1);
    scripted = RunArm(Arm::kScripted, 1, 1);
    none = RunArm(Arm::kNone, 1, 1);
  }
  state.counters["selfheal_avail"] = heal.Availability();
  state.counters["scripted_avail"] = scripted.Availability();
  state.counters["none_avail"] = none.Availability();
  state.counters["selfheal_mttr_us"] = static_cast<double>(heal.mttr_ns) / 1e3;
  state.counters["scripted_mttr_us"] =
      static_cast<double>(scripted.mttr_ns) / 1e3;

  // Detection + fencing fire in every arm (the lease is the fence); only
  // the repair differs. Leaving the node dead costs real availability.
  DISAGG_CHECK(none.detect_ns > 0);
  DISAGG_CHECK(scripted.detect_ns > 0);
  DISAGG_CHECK(none.Availability() < heal.Availability());
  DISAGG_CHECK(heal.Availability() >= 0.99);
  // The scripted revive also re-admits through probation — same rejoin
  // machinery, hand-timed repair.
  DISAGG_CHECK(scripted.mttr_ns > 0);
}

void BM_E29_DecisionDeterminism(benchmark::State& state) {
  // The acceptance contract: detector decisions (the event log), the op
  // trace, and the error count are a pure function of (seed, partitions,
  // epoch_ns) — identical at 1/2/8 worker threads, at four partitions and
  // at one.
  bool ok = true;
  for (auto _ : state) {
    const ArmResult t1 = RunArm(Arm::kSelfHeal, 4, 1);
    const ArmResult t2 = RunArm(Arm::kSelfHeal, 4, 2);
    const ArmResult t8 = RunArm(Arm::kSelfHeal, 4, 8);
    const ArmResult p1 = RunArm(Arm::kSelfHeal, 1, 1);
    const ArmResult p1_t2 = RunArm(Arm::kSelfHeal, 1, 2);
    const ArmResult p1_t8 = RunArm(Arm::kSelfHeal, 1, 8);
    ok = t1.events == t2.events && t1.events == t8.events &&
         t1.trace == t2.trace && t1.trace == t8.trace &&
         t1.errors == t2.errors && t1.errors == t8.errors &&
         t1.makespan_ns == t2.makespan_ns &&
         t1.makespan_ns == t8.makespan_ns &&
         p1.events == p1_t2.events && p1.events == p1_t8.events &&
         p1.trace == p1_t2.trace && p1.trace == p1_t8.trace &&
         p1.errors == p1_t2.errors && p1.errors == p1_t8.errors &&
         p1.makespan_ns == p1_t2.makespan_ns &&
         p1.makespan_ns == p1_t8.makespan_ns &&
         !t1.events.empty() && !p1.events.empty();
    DISAGG_CHECK(ok);
  }
  state.counters["bit_identical"] = ok ? 1.0 : 0.0;
}

BENCHMARK(BM_E29_SelfHealing)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E29_RecoveryComparison)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E29_DecisionDeterminism)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
