#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/congestion.h"
#include "net/fabric.h"
#include "net/interceptors.h"
#include "net/membership.h"
#include "sim/chaos.h"
#include "sim/load_driver.h"

namespace disagg {
namespace sim {
namespace {

// The deterministic chaos harness end to end. Every failing assertion
// prints the report summary, which includes the exact replay command
// (`scripts/chaos_replay.sh <seed>`) that reproduces the run bit for bit.

#ifdef DISAGG_CHAOS_MUTATION
// The mutation build deliberately weakens the quorum-ack path; only the
// self-check tests below are meaningful there.
#define SKIP_UNDER_MUTATION() \
  GTEST_SKIP() << "mutation build: only the self-check filter applies"
#else
#define SKIP_UNDER_MUTATION() (void)0
#endif

TEST(ChaosScheduleTest, PureFunctionOfSeed) {
  for (uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const ChaosSchedule a = ChaosSchedule::FromSeed(seed);
    const ChaosSchedule b = ChaosSchedule::FromSeed(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.crash_points, b.crash_points);
    ASSERT_GE(a.crash_points.size(), 1u);
    EXPECT_LT(a.crash_points.back(), a.num_ops);
    EXPECT_GT(a.drop_prob, 0.0);
  }
  EXPECT_NE(ChaosSchedule::FromSeed(1).Describe(),
            ChaosSchedule::FromSeed(2).Describe());
}

TEST(ChaosScheduleTest, ModelMembershipSemantics) {
  KvModel m;
  m.Commit(1, "a");
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "a"), "");
  EXPECT_NE(m.CheckRead(1, Status::OK(), "zzz"), "");
  m.MaybeCommit(1, "b");
  // Uncertain: both the old committed value and the maybe outcome pass.
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "a"), "");
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "b"), "");
  EXPECT_NE(m.CheckRead(1, Status::OK(), "c"), "");
  EXPECT_TRUE(m.AnyUncertain());
  m.PromoteAllUncertain();
  EXPECT_FALSE(m.AnyUncertain());
  EXPECT_NE(m.CheckRead(1, Status::OK(), "a"), "");  // resolved to "b"
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "b"), "");
  EXPECT_NE(m.CheckRead(2, Status::OK(), "ghost"), "");
  EXPECT_EQ(m.CheckRead(2, Status::NotFound(""), ""), "");
}

TEST(ChaosScheduleTest, CrashStopsPromotingEarlierUncertainOutcomes) {
  KvModel m;
  m.Commit(1, "a");
  m.MaybeCommit(1, "b");  // its batch sits in the WAL buffer ...
  m.Crash();              // ... which the crash loses
  // A later flush cannot land "b": it stays possible but is not promoted.
  m.PromoteAllUncertain();
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "a"), "");
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "b"), "");
  // An outcome recorded after the crash is promoted as before.
  m.MaybeCommit(1, "c");
  m.PromoteAllUncertain();
  EXPECT_FALSE(m.AnyUncertain());
  EXPECT_NE(m.CheckRead(1, Status::OK(), "a"), "");
  EXPECT_NE(m.CheckRead(1, Status::OK(), "b"), "");
  EXPECT_EQ(m.CheckRead(1, Status::OK(), "c"), "");
}

// Acceptance gate: >= 20 seeded schedules across >= 6 engines with zero
// invariant violations. Every ChaosEngineNames() entry x 3 seeds, each a
// full schedule (drops, spikes, flaps where supported, and mid-run
// crash+recovery).
TEST(ChaosSuiteTest, EveryEngineSurvivesSeededSchedules) {
  SKIP_UNDER_MUTATION();
  int runs = 0;
  for (const std::string& engine : ChaosEngineNames()) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      const ChaosReport r = RunEngineChaos(engine, seed);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
      EXPECT_GT(r.commits, 0u) << r.Summary();
      EXPECT_GT(r.crashes, 0u) << r.Summary();
      runs++;
    }
  }
  EXPECT_GE(runs, 20);
}

// Acceptance gate: the identical seed produces the identical op trace.
TEST(ChaosSuiteTest, SameSeedSameTrace) {
  SKIP_UNDER_MUTATION();
  for (const std::string& engine :
       {std::string("aurora"), std::string("serverless"),
        std::string("ford")}) {
    const ChaosReport a = RunEngineChaos(engine, 77);
    const ChaosReport b = RunEngineChaos(engine, 77);
    EXPECT_EQ(TraceToString(a.trace), TraceToString(b.trace))
        << engine << ": seed 77 did not replay deterministically";
    EXPECT_FALSE(a.trace.empty());
    EXPECT_NE(TraceToString(a.trace),
              TraceToString(RunEngineChaos(engine, 78).trace))
        << engine << ": distinct seeds produced identical traces";
  }
}

// Conformance: under a pure drop schedule (no spikes, no flaps, no
// crashes) wrapped in retries, every engine loses no committed write and
// the interceptor counters obey their identities: every drop is either
// retried or given up on, and the client-observed fault count equals the
// injected fault count.
TEST(ChaosConformanceTest, RetryWrappedDropSchedules) {
  SKIP_UNDER_MUTATION();
  for (const std::string& engine : ChaosEngineNames()) {
    for (uint64_t seed : {101ull, 202ull}) {
      ChaosSchedule s;
      s.seed = seed;
      s.drop_prob = 0.15;
      s.spike_prob = 0.0;
      s.num_ops = 150;
      s.retry_attempts = 12;
      const ChaosReport r = RunEngineChaos(engine, s);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
      EXPECT_EQ(r.drops, r.retries + r.gave_up) << r.Summary();
      EXPECT_EQ(r.faults_injected,
                r.drops + r.spikes + r.flap_rejections)
          << r.Summary();
      EXPECT_EQ(r.spikes, 0u) << r.Summary();
      EXPECT_EQ(r.flap_rejections, 0u) << r.Summary();
    }
  }
}

// Harsh schedules: drop rates high enough that the retry budget is
// routinely exhausted, forcing clean aborts, uncertain commits, sticky
// ARIES recovery and faulted reads. The membership model must still
// explain every observation.
TEST(ChaosConformanceTest, HarshDropSchedulesExerciseUncertainty) {
  SKIP_UNDER_MUTATION();
  uint64_t total_maybe = 0;
  uint64_t total_clean = 0;
  for (const std::string& engine : ChaosEngineNames()) {
    for (uint64_t seed : {301ull, 302ull, 303ull}) {
      ChaosSchedule s;
      s.seed = seed;
      s.drop_prob = 0.45;
      s.spike_prob = 0.0;
      s.num_ops = 120;
      s.retry_attempts = 3;
      s.crash_points = {40, 80};
      const ChaosReport r = RunEngineChaos(engine, s);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
      total_maybe += r.maybe_commits;
      total_clean += r.busy + r.aborts;
    }
  }
  // The whole point of the harsh tier: uncertainty actually happens.
  EXPECT_GT(total_maybe, 0u);
  EXPECT_GT(total_clean, 0u);
}

// Regression corpus: seeds that once exposed interesting interleavings
// stay pinned here so they are re-run on every commit.
TEST(ChaosSuiteTest, RegressionSeedCorpus) {
  SKIP_UNDER_MUTATION();
  const std::vector<uint64_t> corpus = {42, 1337, 20230642, 9999999999ull};
  for (const std::string& engine : ChaosEngineNames()) {
    for (uint64_t seed : corpus) {
      const ChaosReport r = RunEngineChaos(engine, seed);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
    }
  }
}

// Index chaos: remote index structures under the same fault pipeline,
// checked against an exact model with ghost detection.
TEST(ChaosIndexTest, IndexStructuresKeepKeySetConsistent) {
  SKIP_UNDER_MUTATION();
  for (const std::string& kind : ChaosIndexKinds()) {
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
      const ChaosReport r = RunIndexChaos(kind, seed);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
      EXPECT_FALSE(r.trace.empty());
      if (kind == "offload" || kind == "offload-detector") {
        // The executor crash+recovery interludes actually ran, and the
        // exact-model audit above still bound: near-data traversal keeps
        // the key set through memory-node executor restarts.
        EXPECT_GT(r.crashes, 0u) << r.Summary();
      }
    }
  }
}

TEST(ChaosIndexTest, SameSeedSameTrace) {
  SKIP_UNDER_MUTATION();
  for (const std::string& kind :
       {std::string("sherman"), std::string("offload"),
        std::string("offload-detector")}) {
    const ChaosReport a = RunIndexChaos(kind, 21);
    const ChaosReport b = RunIndexChaos(kind, 21);
    EXPECT_EQ(TraceToString(a.trace), TraceToString(b.trace))
        << kind << ": seed 21 did not replay deterministically";
    EXPECT_FALSE(a.trace.empty());
  }
}

// Detector-driven recovery: the "offload-detector" kind runs the SAME
// seeded schedule as "offload", but its crash interludes only KILL the
// executor — no scripted Recover(). The membership service must detect the
// outage from missed heartbeats in virtual time, revoke the lease, run the
// orchestrated repair, and re-admit the node — all while the schedule's
// clients keep retrying — and the exact-model audit must still bind. The
// 'M' records in the trace are the detector's decision log: revocations
// and repairs actually fired, and the whole run (decisions included)
// replays bit for bit. The audit binds only if it ran: heartbeats that give
// up while the executor is dead are not workload ops and must not skip it.
TEST(ChaosIndexTest, DetectorDrivenRecoveryReplacesScriptedInterludes) {
  SKIP_UNDER_MUTATION();
  for (uint64_t seed : {11ull, 12ull, 13ull}) {
    const ChaosReport r = RunIndexChaos("offload-detector", seed);
    EXPECT_TRUE(r.violations.empty()) << r.Summary();
    for (const std::string& note : r.notes) {
      EXPECT_EQ(note.find("key-set check skipped"), std::string::npos)
          << r.Summary();
    }
    EXPECT_GT(r.crashes, 0u) << r.Summary();
    uint64_t revokes = 0, repairs = 0, rejoins = 0;
    for (const OpRecord& rec : r.trace) {
      if (rec.kind != 'M') continue;
      using Kind = MembershipService::Event::Kind;
      switch (static_cast<Kind>(rec.a)) {
        case Kind::kRevoke: revokes++; break;
        case Kind::kRepair: repairs++; break;
        case Kind::kRejoin: rejoins++; break;
        default: break;
      }
    }
    // Every kill was noticed, repaired, and the node re-admitted — no
    // scripted revive anywhere in the detector schedule.
    EXPECT_GE(revokes, r.crashes) << r.Summary();
    EXPECT_GE(repairs, r.crashes) << r.Summary();
    EXPECT_GE(rejoins, r.crashes) << r.Summary();

    const ChaosReport again = RunIndexChaos("offload-detector", seed);
    EXPECT_EQ(TraceToString(r.trace), TraceToString(again.trace))
        << "offload-detector: seed " << seed
        << " detector decisions did not replay deterministically";
  }
}

// Lock chaos: multi-client WOUND_WAIT contention against the memory-node
// lock table, with the executor crashing mid-lock-handoff at the schedule's
// crash points. The runner's built-in oracle checks liveness (no wedge),
// wound observability, and that recovery fences dead clients' grants: after
// the final release sweep a fresh txn can acquire every key and the
// executor's table is empty.
TEST(ChaosLockTest, LockTableSurvivesCrashMidHandoff) {
  SKIP_UNDER_MUTATION();
  for (uint64_t seed : {11ull, 12ull, 13ull, 77ull}) {
    const ChaosReport r = RunLockChaos(seed);
    EXPECT_TRUE(r.violations.empty()) << r.Summary();
    EXPECT_GT(r.commits, 0u) << r.Summary();
    EXPECT_GT(r.crashes, 0u) << r.Summary();
    // Contention actually happened: conflicts surfaced as Busy and/or
    // wound-wait aborts, never as a wedge (the oracle would have flagged
    // any key no fresh transaction could take).
    EXPECT_GT(r.busy + r.aborts, 0u) << r.Summary();
  }
}

TEST(ChaosLockTest, SameSeedSameTrace) {
  SKIP_UNDER_MUTATION();
  const ChaosReport a = RunLockChaos(31);
  const ChaosReport b = RunLockChaos(31);
  EXPECT_EQ(TraceToString(a.trace), TraceToString(b.trace))
      << "lock chaos: seed 31 did not replay deterministically";
  EXPECT_FALSE(a.trace.empty());
  EXPECT_NE(TraceToString(a.trace),
            TraceToString(RunLockChaos(32).trace))
      << "lock chaos: distinct seeds produced identical traces";
}

// Registry-selectable "+offload" engine variants ride the full engine
// chaos pipeline: the compute-local lock table is swapped for the
// memory-node executor's lock service, and the membership / conservation /
// committed-replay audits must stay clean while every row lock crosses the
// fabric (drops on acquire surface as clean aborts; failed releases ride
// the piggyback queue and may not wedge any key).
TEST(ChaosSuiteTest, OffloadEngineVariantsSurviveChaos) {
  SKIP_UNDER_MUTATION();
  for (const std::string& engine :
       {std::string("monolithic+offload"), std::string("taurus+offload")}) {
    for (uint64_t seed : {5ull, 9ull}) {
      const ChaosReport r = RunEngineChaos(engine, seed);
      EXPECT_TRUE(r.violations.empty()) << r.Summary();
      EXPECT_GT(r.commits, 0u) << r.Summary();
      EXPECT_GT(r.crashes, 0u) << r.Summary();
    }
  }
  const ChaosReport a = RunEngineChaos("monolithic+offload", 5);
  const ChaosReport b = RunEngineChaos("monolithic+offload", 5);
  EXPECT_EQ(TraceToString(a.trace), TraceToString(b.trace))
      << "monolithic+offload: seed 5 did not replay deterministically";
}

// Status-contract test: retryable contention surfaces as Busy (or
// Unavailable from injected faults), never as TimedOut. TimedOut is
// reserved for genuine deadline expiry — an engine that maps queueing or
// admission-control pressure to TimedOut would send clients down the wrong
// recovery path (RetryPolicy treats the two differently by default). The
// chaos fault corpus drives every engine, index structure, and the
// memory-node lock table through drops, spikes, flaps, and crashes; no
// P/R/C/L/U record may carry TimedOut. ('T' records store a TxnOutcome,
// not a Status code, so they are skipped.)
TEST(ChaosSuiteTest, NoEngineSurfacesTimedOutForRetryableContention) {
  SKIP_UNDER_MUTATION();
  const auto check = [](const ChaosReport& r) {
    for (const OpRecord& rec : r.trace) {
      if (rec.kind != 'P' && rec.kind != 'R' && rec.kind != 'C' &&
          rec.kind != 'L' && rec.kind != 'U') {
        continue;
      }
      EXPECT_NE(rec.status, static_cast<uint8_t>(Status::Code::kTimedOut))
          << r.engine << " seed " << r.seed << ": op #" << rec.index
          << " (kind " << rec.kind << ") surfaced TimedOut";
    }
  };
  for (const std::string& engine : ChaosEngineNames()) {
    for (uint64_t seed : {42ull, 1337ull, 777ull}) {
      check(RunEngineChaos(engine, seed));
    }
  }
  for (const std::string& kind : ChaosIndexKinds()) {
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
      check(RunIndexChaos(kind, seed));
    }
  }
  for (uint64_t seed : {11ull, 12ull, 13ull}) {
    check(RunLockChaos(seed));
  }
}

// Overload chaos: flap windows AND per-node admission control active at
// once, with the engine degrade ladder installed, on the architectures with
// a remote page or log tier.
ChaosSchedule OverloadSchedule(uint64_t seed) {
  ChaosSchedule s;
  s.seed = seed;
  s.drop_prob = 0.08;
  s.spike_prob = 0.0;
  s.num_ops = 140;
  s.retry_attempts = 4;
  s.crash_points = {70};
  s.flap_windows = {{100, 2500}, {600, 3200}};
  // A serial client is charged every queueing delay it causes, so backlog
  // can only build between back-to-back ops at one node (e.g. the quorum
  // Append -> ApplyLog pair, ~90us apart). Service 120us leaves ~30us of
  // backlog there — over the 20us bound, so the second op of each pair is
  // rejected once and admitted on the backed-off retry: admission control
  // demonstrably engages while write quorums still land.
  s.max_backlog_ns = 20'000;
  s.overload_ns_per_op = 120'000;
  s.degrade = {/*enabled=*/true, /*max_staleness_lsn=*/1'000'000};
  return s;
}

const std::vector<std::string>& OverloadEngines() {
  static const std::vector<std::string> kEngines = {"aurora", "polar",
                                                    "socrates", "taurus"};
  return kEngines;
}

// Every read must complete, fail clean (Busy from admission / Unavailable
// from faults), or be served degraded within the staleness bound; the
// membership, balance-conservation and committed-replay audits must stay
// clean (degraded reads never mask committed data); and the identical
// schedule must replay bit-identically.
TEST(ChaosOverloadTest, FlapsPlusAdmissionControlCompleteBusyOrDegrade) {
  SKIP_UNDER_MUTATION();
  const ChaosSchedule s = OverloadSchedule(515);
  uint64_t total_rejects = 0;
  for (const std::string& engine : OverloadEngines()) {
    const ChaosReport a = RunEngineChaos(engine, s);
    EXPECT_TRUE(a.violations.empty()) << a.Summary();
    EXPECT_GT(a.commits, 0u) << a.Summary();
    for (const OpRecord& rec : a.trace) {
      if (rec.kind != 'R') continue;
      const auto code = static_cast<Status::Code>(rec.status);
      EXPECT_TRUE(code == Status::Code::kOk ||
                  code == Status::Code::kNotFound ||
                  code == Status::Code::kBusy ||
                  code == Status::Code::kUnavailable)
          << engine << ": read op #" << rec.index
          << " surfaced status code " << static_cast<int>(rec.status)
          << "\n" << a.Summary();
    }
    total_rejects += a.admission_rejects;
    const ChaosReport b = RunEngineChaos(engine, s);
    EXPECT_EQ(TraceToString(a.trace), TraceToString(b.trace))
        << engine << ": overload schedule did not replay bit-identically";
    EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  }
  // The overload layer actually engaged: admission control rejected ops
  // (the backed-off retries then landed them, so commits survived).
  // Degrade-ladder engagement under open-loop multi-client
  // overload is measured by bench_e24_degradation (a serial chaos client
  // is charged its own queueing delay, so it cannot sustain the backlog a
  // degraded read needs); here the enabled policy pins the invariant that
  // any degraded read that does fire stays within the staleness bound.
  EXPECT_GT(total_rejects, 0u);
}

// The comma- or space-separated integers in `env` (a getenv() result);
// empty when it is null.
std::vector<uint64_t> ParseList(const char* env) {
  std::vector<uint64_t> out;
  if (env == nullptr) return out;
  std::string tok;
  for (const char* p = env;; p++) {
    if (*p == ',' || *p == ' ' || *p == '\0') {
      if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 0));
      tok.clear();
      if (*p == '\0') break;
    } else {
      tok += *p;
    }
  }
  return out;
}

// Replay entry point used by scripts/chaos_replay.sh and the CI chaos
// stage: DISAGG_CHAOS_SEEDS holds comma- or space-separated seeds; each is
// run against every engine, every index kind, the lock table and the
// overload schedule.
TEST(ChaosReplayTest, ReplaySeedsFromEnv) {
  SKIP_UNDER_MUTATION();
  const char* env = std::getenv("DISAGG_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "DISAGG_CHAOS_SEEDS not set";
  }
  const std::vector<uint64_t> seeds = ParseList(env);
  ASSERT_FALSE(seeds.empty());
  const auto check = [](const ChaosReport& r) {
    printf("%s\n", r.Summary().c_str());
    EXPECT_TRUE(r.violations.empty()) << r.Summary();
  };
  for (uint64_t seed : seeds) {
    printf("=== schedule %s\n",
           ChaosSchedule::FromSeed(seed).Describe().c_str());
    for (const std::string& engine : ChaosEngineNames()) {
      check(RunEngineChaos(engine, seed));
    }
    for (const std::string& kind : ChaosIndexKinds()) {
      check(RunIndexChaos(kind, seed));
    }
    check(RunLockChaos(seed));
    for (const std::string& engine : OverloadEngines()) {
      check(RunEngineChaos(engine, OverloadSchedule(seed)));
    }
  }
}

// A seeded chaos schedule under the load driver replays bit for bit at any
// thread count, at partitions=1 and at 8: the schedule's
// drop/spike probabilities become a tag-keyed FaultPolicy and its flap
// windows become virtual-time windows (both pure functions of the logical
// op, not of execution order), so the whole faulted run falls under the
// driver's determinism contract. Seeds come from DISAGG_CHAOS_SEEDS when
// set (the chaos_replay.sh path), else a fixed corpus; thread counts from
// DISAGG_CHAOS_THREADS (chaos_replay.sh --threads), else {1, 2, 8}.
TEST(ChaosParallelReplayTest, ScheduleReplaysIdenticallyAcrossThreads) {
  SKIP_UNDER_MUTATION();
  std::vector<uint64_t> seeds = ParseList(std::getenv("DISAGG_CHAOS_SEEDS"));
  if (seeds.empty()) seeds = {7, 42, 0xC0FFEE};
  std::vector<uint64_t> threads =
      ParseList(std::getenv("DISAGG_CHAOS_THREADS"));
  if (threads.empty()) threads = {1, 2, 8};

  auto run = [](uint64_t seed, uint32_t partitions, uint32_t thread_count) {
    const ChaosSchedule sched = ChaosSchedule::FromSeed(seed);
    Fabric fabric;
    std::vector<NodeId> nodes;
    std::vector<MemoryRegion*> regions;
    for (int i = 0; i < 3; i++) {
      nodes.push_back(fabric.AddNode("mem" + std::to_string(i),
                                     NodeKind::kMemory,
                                     InterconnectModel::Rdma()));
      regions.push_back(fabric.node(nodes.back())->AddRegion("heap", 1 << 20));
    }
    CongestionConfig ccfg;
    ccfg.default_node = ResourceCapacity{1000, 0.05};
    fabric.EnableCongestion(ccfg);

    RetryPolicy retry;
    retry.max_attempts = sched.retry_attempts;
    fabric.AddInterceptor(std::make_shared<RetryInterceptor>(retry));

    FaultPolicy faults;
    faults.seed = sched.seed;
    faults.drop_prob = sched.drop_prob;
    faults.spike_prob = sched.spike_prob;
    faults.spike_ns = sched.spike_ns;
    faults.key_by_op_tag = true;
    // Flap-sequence windows rescale into virtual time: window [a, b) in
    // fault-sequence space maps to [a, b) microseconds of the run (the
    // arrival rate below issues about one op per microsecond per client).
    for (size_t i = 0; i < sched.flap_windows.size(); i++) {
      FaultPolicy::Flap flap;
      flap.node = nodes[i % nodes.size()];
      flap.from_ns = sched.flap_windows[i].from_seq * 1000;
      flap.until_ns = sched.flap_windows[i].until_seq * 1000;
      if (flap.until_ns <= flap.from_ns) continue;
      faults.flaps.push_back(flap);
    }
    fabric.AddInterceptor(std::make_shared<FaultInterceptor>(faults));

    OpenLoopOptions opts;
    opts.clients = 12;
    opts.ops_per_client = static_cast<uint64_t>(sched.num_ops);
    opts.ops_per_sec = 80'000;
    opts.seed = seed;
    opts.parallel.partitions = partitions;
    opts.parallel.threads = thread_count;
    opts.parallel.record_trace = true;
    return RunOpenLoop(
        opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
          ctx->tenant = static_cast<uint32_t>(client % 3);
          char buf[1024];
          const uint64_t pick = rng->Uniform(nodes.size());
          GlobalAddr addr{nodes[pick], regions[pick]->id(),
                          rng->Uniform(64) * 1024};
          return fabric.Read(ctx, addr, buf, size_t{16} << rng->Uniform(6));
        });
  };

  for (uint64_t seed : seeds) {
    const LoadReport p1_a = run(seed, 1, 1);
    ASSERT_GT(p1_a.ops, 0u);
    for (uint64_t t : threads) {
      const LoadReport p1_b = run(seed, 1, static_cast<uint32_t>(t));
      EXPECT_EQ(p1_a.trace, p1_b.trace) << "seed=" << seed << " t=" << t;
      EXPECT_EQ(p1_a.ops, p1_b.ops) << seed;
      EXPECT_EQ(p1_a.errors, p1_b.errors) << seed;
      EXPECT_EQ(p1_a.total.sim_ns, p1_b.total.sim_ns) << seed;
      EXPECT_EQ(p1_a.total.backoff_ns, p1_b.total.backoff_ns) << seed;
      EXPECT_EQ(p1_a.total.bytes_in, p1_b.total.bytes_in) << seed;
    }
    // P=8 is a different deterministic schedule: it must reproduce itself
    // across thread counts even though it differs from P=1.
    const LoadReport p8_a = run(seed, 8, 1);
    for (uint64_t t : threads) {
      const LoadReport p8_b = run(seed, 8, static_cast<uint32_t>(t));
      EXPECT_EQ(p8_a.trace, p8_b.trace) << "seed=" << seed << " t=" << t;
      EXPECT_EQ(p8_a.errors, p8_b.errors) << seed;
    }
  }
}

// Self-check that the harness can actually catch a durability bug: the
// DISAGG_CHAOS_MUTATION build weakens Aurora's quorum append to skip one
// replica and require one fewer ack. Under a schedule that flaps the two
// chosen replicas for the whole run, the weakened build acknowledges
// commits that reached only W-1 copies — which the durability audit must
// flag. The healthy build sails through the identical schedule clean.
ChaosSchedule MutationProbeSchedule() {
  ChaosSchedule s;
  s.seed = 4242;
  s.drop_prob = 0.0;
  s.spike_prob = 0.0;
  s.num_ops = 60;
  s.retry_attempts = 3;
  s.crash_points = {};  // keep the probe purely about commit-time quorum
  s.flap_windows = {{0, 1ull << 40}, {0, 1ull << 40}};  // both replicas, always
  return s;
}

TEST(ChaosMutationSelfCheck, WeakenedQuorumIsDetected) {
  const ChaosReport r = RunEngineChaos("aurora", MutationProbeSchedule());
  EXPECT_GT(r.commits, 0u) << r.Summary();
  EXPECT_GT(r.commits_in_flap, 0u) << r.Summary();
#ifdef DISAGG_CHAOS_MUTATION
  bool audit_fired = false;
  for (const std::string& v : r.violations) {
    if (v.find("durability audit") != std::string::npos) audit_fired = true;
  }
  EXPECT_TRUE(audit_fired)
      << "mutation build: the skipped quorum ack went unnoticed\n"
      << r.Summary();
#else
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
#endif
}

}  // namespace
}  // namespace sim
}  // namespace disagg
