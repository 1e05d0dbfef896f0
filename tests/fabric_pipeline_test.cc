#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/interceptors.h"

namespace disagg {
namespace {

const RpcMethod kEcho("echo");
const RpcMethod kConflict("conflict");
const RpcMethod kOther("other");

// Exercises the unified FabricOp pipeline: interceptor ordering, cost-model
// parity with the pre-pipeline verbs, per-verb NetContext breakdowns, seeded
// fault-schedule determinism, and retry/backoff accounting.

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_node_ = fabric_.AddNode("mem0", NodeKind::kMemory,
                                InterconnectModel::Rdma());
    region_ = fabric_.node(mem_node_)->AddRegion("heap", 1 << 20);
    fabric_.node(mem_node_)->RegisterHandler(
        kEcho, [](Slice req, std::string* resp, RpcServerContext* sctx) {
          resp->assign(req.data(), req.size());
          sctx->ChargeCompute(500);
          return Status::OK();
        });
  }

  GlobalAddr At(uint64_t offset) const {
    return GlobalAddr{mem_node_, region_->id(), offset};
  }

  /// One op of every verb; returns the number of issued ops.
  uint64_t RunMixedWorkload(NetContext* ctx) {
    const std::string payload = "0123456789abcdef";  // 16 bytes
    EXPECT_TRUE(
        fabric_.Write(ctx, At(0), payload.data(), payload.size()).ok());
    char buf[64] = {0};
    EXPECT_TRUE(fabric_.Read(ctx, At(0), buf, payload.size()).ok());
    EXPECT_TRUE(fabric_.CompareAndSwap(ctx, At(64), 0, 7).ok());
    EXPECT_TRUE(fabric_.FetchAdd(ctx, At(64), 3).ok());
    EXPECT_TRUE(fabric_.ReadAtomic64(ctx, At(64)).ok());
    std::vector<Fabric::WriteOp> batch = {
        {{region_->id(), 128}, payload.data(), 8},
        {{region_->id(), 136}, payload.data(), 8},
    };
    EXPECT_TRUE(fabric_.WriteBatch(ctx, mem_node_, batch).ok());
    std::string resp;
    EXPECT_TRUE(fabric_.Call(ctx, mem_node_, kEcho, "ping", &resp).ok());
    return 7;
  }

  Fabric fabric_;
  NodeId mem_node_ = 0;
  MemoryRegion* region_ = nullptr;
};

// An interceptor that logs entry/exit so chain order is observable.
class TapInterceptor : public FabricInterceptor {
 public:
  TapInterceptor(std::string tag, std::vector<std::string>* log)
      : tag_(std::move(tag)), log_(log) {}
  const char* name() const override { return tag_.c_str(); }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    log_->push_back("enter:" + tag_);
    Status st = next(op, ctx);
    log_->push_back("exit:" + tag_);
    return st;
  }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
};

TEST_F(PipelineTest, InterceptorChainIsAnOnionFirstInstalledOutermost) {
  std::vector<std::string> log;
  fabric_.AddInterceptor(std::make_shared<TapInterceptor>("outer", &log));
  fabric_.AddInterceptor(std::make_shared<TapInterceptor>("inner", &log));
  EXPECT_EQ(fabric_.num_interceptors(), 2u);

  NetContext ctx;
  uint64_t v = 1;
  ASSERT_TRUE(fabric_.Write(&ctx, At(0), &v, 8).ok());
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "enter:outer");
  EXPECT_EQ(log[1], "enter:inner");
  EXPECT_EQ(log[2], "exit:inner");
  EXPECT_EQ(log[3], "exit:outer");

  fabric_.ClearInterceptors();
  EXPECT_EQ(fabric_.num_interceptors(), 0u);
}

TEST_F(PipelineTest, BareExecuteMatchesCostModelExactly) {
  // With no interceptors the pipeline must charge exactly what the
  // pre-pipeline hand-rolled verbs charged (no cost-model drift).
  const InterconnectModel m = InterconnectModel::Rdma();
  NetContext ctx;
  RunMixedWorkload(&ctx);

  const uint64_t expected_ns =
      m.WriteCost(16) + m.ReadCost(16) + m.AtomicCost() + m.AtomicCost() +
      m.ReadCost(8) + m.WriteCost(16) + (m.RpcCost(4, 4) + 500);
  EXPECT_EQ(ctx.sim_ns, expected_ns);
  EXPECT_EQ(ctx.round_trips, 7u);
  EXPECT_EQ(ctx.rpcs, 1u);
  EXPECT_EQ(ctx.bytes_out, 16u + 16u + 16u + 16u + 4u);  // wr, cas, faa, batch, rpc
  EXPECT_EQ(ctx.bytes_in, 16u + 8u + 8u + 8u + 4u);  // rd, cas, faa, atomic, rpc
  EXPECT_EQ(ctx.retries, 0u);
  EXPECT_EQ(ctx.backoff_ns, 0u);
  EXPECT_EQ(ctx.faults_injected, 0u);
}

TEST_F(PipelineTest, PerVerbBreakdownSumsToAggregates) {
  NetContext ctx;
  RunMixedWorkload(&ctx);

  EXPECT_EQ(ctx.verb(FabricVerb::kRead).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kWrite).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kCas).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kFetchAdd).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kReadAtomic).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kWriteBatch).ops, 1u);
  EXPECT_EQ(ctx.verb(FabricVerb::kRpc).ops, 1u);

  uint64_t ops = 0, ns = 0, out = 0, in = 0;
  for (size_t v = 0; v < kNumFabricVerbs; v++) {
    ops += ctx.per_verb[v].ops;
    ns += ctx.per_verb[v].sim_ns;
    out += ctx.per_verb[v].bytes_out;
    in += ctx.per_verb[v].bytes_in;
  }
  EXPECT_EQ(ops, ctx.round_trips);
  EXPECT_EQ(ns, ctx.sim_ns);
  EXPECT_EQ(out, ctx.bytes_out);
  EXPECT_EQ(in, ctx.bytes_in);
}

TEST_F(PipelineTest, SeededFaultScheduleIsDeterministic) {
  auto run = [&](uint64_t seed) {
    Fabric fabric;
    NodeId node =
        fabric.AddNode("mem0", NodeKind::kMemory, InterconnectModel::Rdma());
    MemoryRegion* region = fabric.node(node)->AddRegion("heap", 1 << 20);
    RetryPolicy rp;
    rp.max_attempts = 8;
    auto retry = std::make_shared<RetryInterceptor>(rp);
    FaultPolicy fp;
    fp.seed = seed;
    fp.drop_prob = 0.2;
    auto fault = std::make_shared<FaultInterceptor>(fp);
    fabric.AddInterceptor(retry);  // outermost: retries wrap injected faults
    fabric.AddInterceptor(fault);

    NetContext ctx;
    uint64_t v = 42;
    for (uint64_t i = 0; i < 200; i++) {
      GlobalAddr addr{node, region->id(), (i % 128) * 8};
      EXPECT_TRUE(fabric.Write(&ctx, addr, &v, 8).ok());
    }
    return ctx;
  };

  NetContext a = run(1234);
  NetContext b = run(1234);
  NetContext c = run(99);

  // Same seed → bit-identical accounting, including injected faults.
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.round_trips, b.round_trips);

  // The schedule is non-trivial: faults fired, retries recovered them, and
  // the backoff they cost is visible in the context.
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.backoff_ns, 0u);
  EXPECT_LT(a.backoff_ns, a.sim_ns);
  EXPECT_EQ(a.round_trips, 200u);  // every op eventually landed

  // A different seed produces a different (still deterministic) schedule.
  EXPECT_NE(a.sim_ns, c.sim_ns);
}

TEST_F(PipelineTest, FlapWindowWithRetryAccountsBackoffExactly) {
  RetryPolicy rp;
  rp.max_attempts = 5;
  rp.initial_backoff_ns = 1000;
  rp.backoff_multiplier = 2.0;
  auto retry = std::make_shared<RetryInterceptor>(rp);
  FaultPolicy fp;
  fp.flaps.push_back({mem_node_, /*from_seq=*/0, /*until_seq=*/2});
  auto fault = std::make_shared<FaultInterceptor>(fp);
  fabric_.AddInterceptor(retry);
  fabric_.AddInterceptor(fault);

  // Attempts at fault-seq 0 and 1 hit the flap window; the third lands.
  NetContext ctx;
  char buf[8];
  FabricOp op;
  op.verb = FabricVerb::kRead;
  op.node = mem_node_;
  op.addr = At(0);
  op.dst = buf;
  op.n = 8;
  ASSERT_TRUE(fabric_.Execute(&op, &ctx).ok());

  EXPECT_EQ(op.attempts, 3u);
  EXPECT_EQ(ctx.retries, 2u);
  EXPECT_EQ(ctx.faults_injected, 2u);
  EXPECT_EQ(ctx.backoff_ns, 1000u + 2000u);
  EXPECT_EQ(fault->flap_rejections(), 2u);
  EXPECT_EQ(retry->retries(), 2u);
  // sim_ns = two flap penalties + backoffs + the successful read.
  EXPECT_EQ(ctx.sim_ns, 2 * FaultPolicy::kDropPenaltyNs + 3000u +
                            InterconnectModel::Rdma().ReadCost(8));
  // Only the landed op shows up in the per-verb breakdown.
  EXPECT_EQ(ctx.verb(FabricVerb::kRead).ops, 1u);
  EXPECT_EQ(ctx.round_trips, 1u);
}

TEST_F(PipelineTest, RetryGivesUpOnPermanentFailure) {
  RetryPolicy rp;
  rp.max_attempts = 3;
  rp.initial_backoff_ns = 100;
  auto retry = std::make_shared<RetryInterceptor>(rp);
  fabric_.AddInterceptor(retry);

  fabric_.node(mem_node_)->Fail();
  NetContext ctx;
  char buf[8];
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).IsUnavailable());
  EXPECT_EQ(ctx.retries, 2u);  // max_attempts - 1
  EXPECT_EQ(retry->gave_up(), 1u);
  fabric_.node(mem_node_)->Revive();

  // Non-retryable statuses pass straight through.
  ctx.Reset();
  GlobalAddr oob{mem_node_, region_->id(), (1 << 20) - 4};
  EXPECT_TRUE(fabric_.Read(&ctx, oob, buf, 8).IsInvalidArgument());
  EXPECT_EQ(ctx.retries, 0u);
}

TEST_F(PipelineTest, ZeroBackoffRetryStillAdvancesSimTime) {
  // Regression: with initial_backoff_ns == 0, every exponential step stayed
  // at 0 and retries were free — a spin in simulated time. Backoff is now
  // floored at 1 ns per retry.
  RetryPolicy rp;
  rp.max_attempts = 4;
  rp.initial_backoff_ns = 0;
  fabric_.AddInterceptor(std::make_shared<RetryInterceptor>(rp));

  fabric_.node(mem_node_)->Fail();
  NetContext ctx;
  char buf[8];
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).IsUnavailable());
  EXPECT_EQ(ctx.retries, 3u);
  EXPECT_GT(ctx.backoff_ns, 0u);
  EXPECT_GE(ctx.sim_ns, ctx.backoff_ns);
  fabric_.node(mem_node_)->Revive();

  // A multiplier below 1.0 must not decay the backoff back to zero either.
  fabric_.ClearInterceptors();
  RetryPolicy shrink;
  shrink.max_attempts = 6;
  shrink.initial_backoff_ns = 2;
  shrink.backoff_multiplier = 0.1;
  fabric_.AddInterceptor(std::make_shared<RetryInterceptor>(shrink));
  fabric_.node(mem_node_)->Fail();
  NetContext ctx2;
  EXPECT_TRUE(fabric_.Read(&ctx2, At(0), buf, 8).IsUnavailable());
  EXPECT_EQ(ctx2.retries, 5u);
  EXPECT_GE(ctx2.backoff_ns, 5u);  // >= 1 ns per retry even after decay
  fabric_.node(mem_node_)->Revive();
}

TEST_F(PipelineTest, AdmissionBusyRetriesCappedTighterThanContentionBusy) {
  // Regression (satellite bugfix): admission-control Busy used to be retried
  // exactly like contention Busy, amplifying load into a queue that just
  // reported "full". Rejected ops now cap at max_admission_attempts issues
  // when no deadline governs them.
  RetryPolicy rp;
  rp.max_attempts = 6;
  rp.retry_busy = true;
  rp.initial_backoff_ns = 1000;
  auto retry = std::make_shared<RetryInterceptor>(rp);
  fabric_.AddInterceptor(retry);

  CongestionConfig cfg;
  cfg.node_caps[mem_node_].ns_per_op = 100'000;
  cfg.node_caps[mem_node_].max_backlog_ns = 1000;
  fabric_.EnableCongestion(cfg);

  NetContext ctx;
  char buf[8];
  ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());  // fills the link
  FabricOp op;
  op.verb = FabricVerb::kRead;
  op.node = mem_node_;
  op.addr = At(8);
  op.dst = buf;
  op.n = 8;
  EXPECT_TRUE(fabric_.Execute(&op, &ctx).IsBusy());
  EXPECT_EQ(op.attempts, 2u);  // on main: 6 (every attempt re-hit the queue)
  EXPECT_TRUE(op.admission_rejected);
  EXPECT_EQ(ctx.admission_rejects, 2u);

  // Contention Busy (an app-level conflict from a handler) keeps the full
  // retry budget.
  fabric_.DisableCongestion();
  fabric_.node(mem_node_)->RegisterHandler(
      kConflict, [](Slice, std::string*, RpcServerContext*) {
        return Status::Busy("lock conflict");
      });
  NetContext ctx2;
  std::string resp;
  FabricOp rpc;
  rpc.verb = FabricVerb::kRpc;
  rpc.node = mem_node_;
  rpc.set_method(kConflict);
  rpc.request = Slice("x", 1);
  rpc.response = &resp;
  EXPECT_TRUE(fabric_.Execute(&rpc, &ctx2).IsBusy());
  EXPECT_EQ(rpc.attempts, 6u);
  EXPECT_FALSE(rpc.admission_rejected);
}

TEST_F(PipelineTest, DeadlineBudgetRefusesExhaustedOpsAndCountsMisses) {
  NetContext ctx;
  char buf[8];

  // A completed op that overran its budget counts one miss.
  ctx.deadline_ns = ctx.sim_ns + 1;
  ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  EXPECT_EQ(ctx.deadline_misses, 1u);

  // An op issued at/after the deadline is refused before touching the wire:
  // TimedOut, nothing charged, one more miss.
  const uint64_t before_ns = ctx.sim_ns;
  const uint64_t before_trips = ctx.round_trips;
  ctx.deadline_ns = ctx.sim_ns;  // budget already spent
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).IsTimedOut());
  EXPECT_EQ(ctx.sim_ns, before_ns);
  EXPECT_EQ(ctx.round_trips, before_trips);
  EXPECT_EQ(ctx.deadline_misses, 2u);

  // No deadline (0) keeps everything as before.
  NetContext free_ctx;
  ASSERT_TRUE(fabric_.Read(&free_ctx, At(0), buf, 8).ok());
  EXPECT_EQ(free_ctx.deadline_misses, 0u);

  // Fork inherits the budget.
  ctx.deadline_ns = 12345;
  EXPECT_EQ(ctx.Fork().deadline_ns, 12345u);
}

TEST_F(PipelineTest, RetryNeverBacksOffPastTheDeadline) {
  RetryPolicy rp;
  rp.max_attempts = 10;
  rp.initial_backoff_ns = 1000;
  rp.backoff_multiplier = 2.0;
  auto retry = std::make_shared<RetryInterceptor>(rp);
  fabric_.AddInterceptor(retry);

  fabric_.node(mem_node_)->Fail();
  NetContext ctx;
  ctx.deadline_ns = ctx.sim_ns + 2500;
  char buf[8];
  // Attempt 1 fails free (failed target), backoff 1000 fits the budget;
  // attempt 2 fails at t=1000; the next backoff (2000) would cross the
  // 2500 ns deadline, so the retry loop gives up instead of charging it.
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).IsUnavailable());
  EXPECT_EQ(ctx.retries, 1u);
  EXPECT_EQ(ctx.backoff_ns, 1000u);
  EXPECT_LT(ctx.sim_ns, ctx.deadline_ns);
  EXPECT_EQ(ctx.deadline_misses, 0u);  // gave up within budget
  fabric_.node(mem_node_)->Revive();
}

TEST_F(PipelineTest, OneWayPartitionLosesExactlyOneDirection) {
  // kRequestLost refuses BEFORE any side effect; kReplyLost executes the op
  // and loses only the acknowledgement — the caller sees Unavailable while
  // the effect landed. The asymmetry is the signature failure mode lease
  // fencing exists for, so the injector must model both halves exactly.
  FaultPolicy fp;
  FaultPolicy::OneWay ow;
  ow.node = mem_node_;
  ow.from_ns = 0;
  ow.until_ns = ~0ull;
  ow.dir = FaultPolicy::OneWay::Direction::kRequestLost;
  fp.oneways.push_back(ow);
  auto fault = std::make_shared<FaultInterceptor>(fp);
  fabric_.AddInterceptor(fault);

  // Request lost: nothing written, nothing charged but the penalty.
  NetContext ctx;
  const char payload[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  EXPECT_TRUE(fabric_.Write(&ctx, At(0), payload, 8).IsUnavailable());
  EXPECT_EQ(ctx.sim_ns, FaultPolicy::kDropPenaltyNs);
  EXPECT_EQ(ctx.round_trips, 0u);
  EXPECT_EQ(ctx.faults_injected, 1u);
  EXPECT_EQ(fault->oneway_drops(), 1u);
  EXPECT_NE(std::memcmp(region_->data(), payload, 8), 0);

  // Reply lost: the write EXECUTES (bytes land, wire cost charged) and then
  // the ack vanishes — Unavailable plus the penalty on top.
  fabric_.ClearInterceptors();
  FaultPolicy fp2;
  ow.dir = FaultPolicy::OneWay::Direction::kReplyLost;
  fp2.oneways.push_back(ow);
  auto fault2 = std::make_shared<FaultInterceptor>(fp2);
  fabric_.AddInterceptor(fault2);

  NetContext ctx2;
  EXPECT_TRUE(fabric_.Write(&ctx2, At(0), payload, 8).IsUnavailable());
  EXPECT_EQ(std::memcmp(region_->data(), payload, 8), 0);  // effect landed
  EXPECT_EQ(ctx2.sim_ns, InterconnectModel::Rdma().WriteCost(8) +
                          FaultPolicy::kDropPenaltyNs);
  EXPECT_EQ(ctx2.faults_injected, 1u);
  EXPECT_EQ(fault2->oneway_drops(), 1u);
}

TEST_F(PipelineTest, OneWayMethodFilterScopesTheCutToOneVerb) {
  // A method-scoped window cuts exactly that RPC: heartbeats can die while
  // every data verb — and every other RPC — flows untouched.
  FaultPolicy fp;
  FaultPolicy::OneWay ow;
  ow.node = mem_node_;
  ow.from_ns = 0;
  ow.until_ns = ~0ull;
  ow.method = "echo";
  fp.oneways.push_back(ow);
  auto fault = std::make_shared<FaultInterceptor>(fp);
  fabric_.AddInterceptor(fault);
  fabric_.node(mem_node_)->RegisterHandler(
      kOther, [](Slice, std::string* resp, RpcServerContext*) {
        resp->assign("ok");
        return Status::OK();
      });

  NetContext ctx;
  char buf[8];
  EXPECT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  std::string resp;
  EXPECT_TRUE(fabric_.Call(&ctx, mem_node_, kOther, "x", &resp).ok());
  EXPECT_TRUE(
      fabric_.Call(&ctx, mem_node_, kEcho, "ping", &resp).IsUnavailable());
  EXPECT_EQ(fault->oneway_drops(), 1u);
  EXPECT_EQ(ctx.faults_injected, 1u);
}

TEST_F(PipelineTest, SlowdownChargesExactMultiplierAndStaysInWindow) {
  // Gray failure: ops succeed but cost `factor` times their normal charge —
  // the extra (factor - 1) x cost rides sim_ns and counts as an injected
  // fault. Outside the virtual-time window the node is bit-identical to
  // healthy.
  FaultPolicy fp;
  FaultPolicy::Slowdown sd;
  sd.node = mem_node_;
  sd.from_ns = 0;
  sd.until_ns = 100'000;
  sd.factor = 3.0;
  fp.slowdowns.push_back(sd);
  auto fault = std::make_shared<FaultInterceptor>(fp);
  fabric_.AddInterceptor(fault);

  const uint64_t read_cost = InterconnectModel::Rdma().ReadCost(8);
  NetContext ctx;
  char buf[8];
  ASSERT_TRUE(fabric_.Read(&ctx, At(0), buf, 8).ok());
  EXPECT_EQ(ctx.sim_ns, 3 * read_cost);  // cost + (3.0 - 1.0) x cost
  EXPECT_EQ(ctx.faults_injected, 1u);
  EXPECT_EQ(fault->slowdown_hits(), 1u);
  EXPECT_EQ(ctx.round_trips, 1u);  // the op SUCCEEDED — slow, not lost

  // An op issued past the window's end is charged exactly its model cost.
  NetContext late;
  late.Charge(100'000);
  ASSERT_TRUE(fabric_.Read(&late, At(0), buf, 8).ok());
  EXPECT_EQ(late.sim_ns, 100'000u + read_cost);
  EXPECT_EQ(late.faults_injected, 0u);
  EXPECT_EQ(fault->slowdown_hits(), 1u);
}

TEST_F(PipelineTest, SequentialFoldAndMergeParallelCarryNewCounters) {
  NetContext a;
  RunMixedWorkload(&a);
  a.retries = 2;
  a.backoff_ns = 3000;
  a.faults_injected = 1;
  a.queue_ns = 700;
  a.admission_rejects = 3;
  a.deadline_misses = 5;
  a.degraded_ops = 6;
  a.staleness_lsn = 90;

  // One timeline: traffic plus the summed clock.
  NetContext total;
  for (int i = 0; i < 2; i++) {
    AccumulateTraffic(&total, a);
    total.sim_ns += a.sim_ns;
  }
  EXPECT_EQ(total.sim_ns, 2 * a.sim_ns);
  EXPECT_EQ(total.retries, 4u);
  EXPECT_EQ(total.backoff_ns, 6000u);
  EXPECT_EQ(total.faults_injected, 2u);
  EXPECT_EQ(total.queue_ns, 1400u);
  EXPECT_EQ(total.admission_rejects, 6u);
  EXPECT_EQ(total.deadline_misses, 10u);
  EXPECT_EQ(total.degraded_ops, 12u);
  EXPECT_EQ(total.staleness_lsn, 180u);
  EXPECT_EQ(total.verb(FabricVerb::kRpc).ops, 2u);
  EXPECT_EQ(total.verb(FabricVerb::kRead).sim_ns,
            2 * a.verb(FabricVerb::kRead).sim_ns);

  NetContext branches[2] = {a, a};
  NetContext parent;
  MergeParallel(&parent, branches, 2);
  EXPECT_EQ(parent.sim_ns, a.sim_ns);  // max, not sum
  EXPECT_EQ(parent.retries, 4u);
  EXPECT_EQ(parent.queue_ns, 1400u);  // attribution: summed
  EXPECT_EQ(parent.verb(FabricVerb::kWrite).ops, 2u);  // attribution: summed
  EXPECT_EQ(parent.deadline_misses, 10u);
  EXPECT_EQ(parent.degraded_ops, 12u);
  EXPECT_EQ(parent.staleness_lsn, 180u);

  a.Reset();
  EXPECT_EQ(a.verb(FabricVerb::kRead).ops, 0u);
  EXPECT_EQ(a.backoff_ns, 0u);
}

}  // namespace
}  // namespace disagg
