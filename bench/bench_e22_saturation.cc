// Experiment E22 (DESIGN.md): shared-resource saturation.
//
// Every earlier experiment measures one client against an idle fabric; here
// N closed-loop clients contend for a memory node's NIC budget through the
// congestion layer (src/net/congestion.h) driven by sim::RunClosedLoop.
//  - Throughput vs clients: near-linear growth below the knee
//    (knee ~ one-client latency / per-op service time), then a plateau
//    pinned at the configured capacity.
//  - Tail vs offered load: past the knee, p99 is queueing-dominated and
//    grows linearly with the client count while p50 of the *uncontended*
//    run stays flat — the classic closed-loop hockey stick.
//  - Tiers: the same 4 KiB page read saturates local DRAM, CXL, and RDMA at
//    very different client counts because the knee depends on the ratio of
//    round-trip latency to service time, not on either alone.
//
// Every run self-checks the saturation shape: at >= 64 clients the
// measured throughput lands within [0.8x, 1.001x] of the capacity bound
// min(N x single-client tput, configured capacity). The claims that compare
// two cases (saturated p99 >= 10x the one-client p99; past-knee backlog and
// tail >= 10x the 50% run's) are rows of scripts/bench_snapshot.py's CLAIMS
// table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "memnode/memory_node.h"
#include "sim/engine_registry.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kPoolPages = 4096;  // 16 MiB pool

/// One tier's saturation point: `clients` closed-loop clients issuing 4 KiB
/// page reads against a pool whose NIC has a 100 ns per-message issue
/// budget and the tier's own bandwidth (MemoryNode::ServiceCapacity).
void BM_E22_PageReadSaturation(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const uint64_t clients = static_cast<uint64_t>(state.range(1));
  const InterconnectModel model =
      tier == 0 ? InterconnectModel::LocalDram()
                : (tier == 1 ? InterconnectModel::Cxl()
                             : InterconnectModel::Rdma());

  Fabric fabric;
  MemoryNode pool(&fabric, "pool", kPoolPages * kPage * 2, model);
  const ResourceCapacity cap = pool.ServiceCapacity(/*ns_per_op=*/100);
  CongestionConfig cfg;
  cfg.node_caps[pool.node()] = cap;
  fabric.EnableCongestion(cfg);

  sim::LoadOptions opts;
  opts.clients = clients;
  opts.ops_per_client = 256;
  sim::LoadReport report;
  for (auto _ : state) {
    fabric.congestion()->Reset();
    report = sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[kPage];
          return fabric.Read(ctx, pool.at(rng->Uniform(kPoolPages) * kPage),
                             buf, kPage);
        });
    DISAGG_CHECK(report.errors == 0);
  }

  const double capacity = cap.OpsPerSec(kPage);
  const double single = 1e9 / static_cast<double>(model.ReadCost(kPage));
  const double bound = std::min(static_cast<double>(clients) * single,
                                capacity);
  state.counters["tput_kops"] = report.ThroughputOpsPerSec() / 1e3;
  state.counters["p50_us"] = report.latency.Percentile(50) / 1e3;
  state.counters["p99_us"] = report.latency.Percentile(99) / 1e3;
  state.counters["queue_us_per_op"] =
      static_cast<double>(report.total.queue_ns) / 1e3 /
      static_cast<double>(report.ops);
  state.counters["capacity_frac"] = report.ThroughputOpsPerSec() / capacity;
  state.SetLabel(model.name);

  if (clients >= 64) {
    // Saturation shape: plateau at the capacity bound.
    DISAGG_CHECK(report.ThroughputOpsPerSec() >= 0.8 * bound);
    DISAGG_CHECK(report.ThroughputOpsPerSec() <= 1.001 * bound);
  }
}
BENCHMARK(BM_E22_PageReadSaturation)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8, 16, 32, 64, 128}})
    ->ArgNames({"tier", "clients"})
    ->Iterations(1);

/// The open-loop counterpart: closed-loop clients self-throttle at the knee
/// (offered load = achieved load by construction), so the plateau above can
/// never show offered load *exceeding* capacity. Here 16 Poisson (or
/// phase-staggered deterministic) arrival streams offer a fixed fraction of
/// the pool NIC's capacity regardless of completions. Below the knee
/// achieved == offered; past it achieved pins at capacity while the
/// in-flight count and the response-time tail grow without bound for as
/// long as the run lasts — the unbounded-queue regime of an M/D/1-ish
/// server pushed past rho = 1.
void BM_E22_OpenLoopSweep(benchmark::State& state) {
  const uint64_t offered_pct = static_cast<uint64_t>(state.range(0));
  const bool poisson = state.range(1) == 0;
  constexpr uint64_t kClients = 16;

  Fabric fabric;
  MemoryNode pool(&fabric, "pool", kPoolPages * kPage * 2,
                  InterconnectModel::Rdma());
  const ResourceCapacity cap = pool.ServiceCapacity(/*ns_per_op=*/100);
  CongestionConfig cfg;
  cfg.node_caps[pool.node()] = cap;
  fabric.EnableCongestion(cfg);
  const double capacity = cap.OpsPerSec(kPage);

  sim::LoadReport report;
  for (auto _ : state) {
    fabric.congestion()->Reset();
    sim::OpenLoopOptions opts;
    opts.clients = kClients;
    // Long streams: achieved throughput is ops / (slowest stream's span), so
    // short Poisson streams under-report it by O(1/sqrt(ops)) purely from
    // arrival-end raggedness across clients.
    opts.ops_per_client = 2048;
    opts.ops_per_sec = capacity * static_cast<double>(offered_pct) / 100.0 /
                       static_cast<double>(kClients);
    opts.process = poisson ? sim::ArrivalProcess::kPoisson
                           : sim::ArrivalProcess::kDeterministic;
    report = sim::RunOpenLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
          char buf[kPage];
          return fabric.Read(ctx, pool.at(rng->Uniform(kPoolPages) * kPage),
                             buf, kPage);
        });
    DISAGG_CHECK(report.errors == 0);
  }

  state.counters["offered_kops"] = report.offered_ops_per_sec / 1e3;
  state.counters["tput_kops"] = report.ThroughputOpsPerSec() / 1e3;
  state.counters["p50_us"] = report.latency.Percentile(50) / 1e3;
  state.counters["p99_us"] = report.latency.Percentile(99) / 1e3;
  state.counters["mean_depth"] = report.queue_depth.Mean();
  state.counters["max_inflight"] = static_cast<double>(report.max_in_flight);
  state.counters["capacity_frac"] = report.ThroughputOpsPerSec() / capacity;
  state.SetLabel(poisson ? "poisson" : "deterministic");

  if (poisson && offered_pct == 50) {
    // Below the knee achieved == offered.
    DISAGG_CHECK(report.ThroughputOpsPerSec() >=
                 0.90 * report.offered_ops_per_sec);
  }
  if (poisson && offered_pct >= 140) {
    // Open-loop saturation shape: achieved throughput plateaus at capacity
    // while offered load keeps rising.
    DISAGG_CHECK(report.ThroughputOpsPerSec() >= 0.9 * capacity);
    DISAGG_CHECK(report.ThroughputOpsPerSec() <= 1.001 * capacity);
    DISAGG_CHECK(report.offered_ops_per_sec >= 1.3 * capacity);
  }
}
BENCHMARK(BM_E22_OpenLoopSweep)
    ->ArgsProduct({{50, 80, 95, 105, 140}, {0, 1}})
    ->ArgNames({"offered_pct", "proc"})
    ->Iterations(1);

/// E26 (EXPERIMENTS.md): the epoch-parallel driver at open-loop scales one
/// partition cannot reach interactively — 10^4 and 10^5 Poisson streams
/// against one congested pool NIC. `threads` is the wall-clock axis; by the
/// determinism contract it never changes a result bit, so the counters of
/// every row at the same client count and partition count are identical and
/// only the benchmark's real time moves.
///
/// The clients=100000/threads=8 row also checks the contract at scale: it
/// re-runs the sweep at threads {1, 2, 8} asserting bit-identical counters
/// and traces, re-runs partitions=1 at threads {1, 2, 8} asserting the
/// same, and enforces a wall-clock budget on those six runs.
void BM_E22_ParallelOpenLoopSweep(benchmark::State& state) {
  const uint64_t clients = static_cast<uint64_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  constexpr uint32_t kPartitions = 64;
  constexpr uint64_t kOpsPerClient = 8;

  // A rack of four pool nodes, clients striped across them (the
  // disaggregated-memory shape: many NICs, one oversubscribed fabric).
  // Multiple target nodes also matter mechanically: a node's region lookup
  // takes that node's lock, so a single-node sweep would serialize the
  // worker threads on one mutex no matter how parallel the simulation is.
  constexpr uint64_t kPools = 4;
  Fabric fabric;
  std::vector<std::unique_ptr<MemoryNode>> pools;
  CongestionConfig cfg;
  ResourceCapacity cap;
  for (uint64_t i = 0; i < kPools; i++) {
    pools.push_back(std::make_unique<MemoryNode>(
        &fabric, "pool" + std::to_string(i), kPoolPages * kPage * 2,
        InterconnectModel::Rdma()));
    cap = pools.back()->ServiceCapacity(/*ns_per_op=*/100);
    cfg.node_caps[pools.back()->node()] = cap;
  }
  fabric.EnableCongestion(cfg);
  const double capacity =
      static_cast<double>(kPools) * cap.OpsPerSec(kPage);

  auto run = [&](uint32_t partitions, uint32_t thread_count, bool trace) {
    fabric.congestion()->Reset();
    sim::OpenLoopOptions opts;
    opts.clients = clients;
    opts.ops_per_client = kOpsPerClient;
    // Aggregate ~100% of capacity: the interesting regime (real queueing)
    // without the unbounded backlog of a deep past-knee run.
    opts.ops_per_sec = capacity / static_cast<double>(clients);
    opts.parallel.partitions = partitions;
    opts.parallel.threads = thread_count;
    // Wide epochs (2 ms of virtual time vs the 100 us default): this sweep
    // runs ~3 s of virtual time, and at the default width the barrier count
    // — not the op work — dominates wall-clock. Epoch width is part of the
    // deterministic function, so every row still agrees bit for bit.
    opts.parallel.epoch_ns = 2'000'000;
    opts.parallel.record_trace = trace;
    return sim::RunOpenLoop(
        opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
          char buf[kPage];
          MemoryNode& pool = *pools[client % kPools];
          return fabric.Read(ctx, pool.at(rng->Uniform(kPoolPages) * kPage),
                             buf, kPage);
        });
  };

  sim::LoadReport report;
  for (auto _ : state) {
    report = run(kPartitions, threads, /*trace=*/false);
    DISAGG_CHECK(report.ops == clients * kOpsPerClient);
  }

  state.counters["tput_kops"] = report.ThroughputOpsPerSec() / 1e3;
  state.counters["p99_us"] = report.latency.Percentile(99) / 1e3;
  state.counters["mean_depth"] = report.queue_depth.Mean();
  state.counters["epochs"] = static_cast<double>(report.epochs);
  state.counters["sim_ops"] = static_cast<double>(report.ops);

  if (clients >= 100'000 && threads == 8) {
    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [](std::chrono::steady_clock::time_point since) {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - since)
          .count();
    };
    // (a) Thread-invariance at scale: counters AND traces, bit for bit.
    // Each leg's wall-clock is exported so the one-partition vs 64-partition
    // cost of the same workload is a measured counter (E26), not a side
    // claim.
    auto leg = std::chrono::steady_clock::now();
    const auto t1 = run(kPartitions, 1, true);
    state.counters["par_t1_ms"] = elapsed_ms(leg);
    const auto t2 = run(kPartitions, 2, true);
    leg = std::chrono::steady_clock::now();
    const auto t8 = run(kPartitions, 8, true);
    state.counters["par_t8_ms"] = elapsed_ms(leg);
    DISAGG_CHECK(t1.trace == t2.trace);
    DISAGG_CHECK(t1.trace == t8.trace);
    DISAGG_CHECK(t1.makespan_ns == t8.makespan_ns);
    DISAGG_CHECK(t1.errors == t8.errors);
    DISAGG_CHECK(t1.total.queue_ns == t8.total.queue_ns);
    DISAGG_CHECK(t1.total.bytes_in == t8.total.bytes_in);
    DISAGG_CHECK(t1.latency.Percentile(99) == t8.latency.Percentile(99));
    // (b) The same invariance at partitions=1, the global virtual-time
    // schedule.
    leg = std::chrono::steady_clock::now();
    const auto p1 = run(1, 1, true);
    state.counters["p1_ms"] = elapsed_ms(leg);
    for (uint32_t thread_count : {2u, 8u}) {
      const auto p1_t = run(1, thread_count, true);
      DISAGG_CHECK(p1.trace == p1_t.trace);
      DISAGG_CHECK(p1.makespan_ns == p1_t.makespan_ns);
      DISAGG_CHECK(p1.total.queue_ns == p1_t.total.queue_ns);
    }
    // (c) Budget: the whole 6-run block (3 sweeps at 64 partitions
    // + 3 at one, over 10^5 clients) stays CI-viable.
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    DISAGG_CHECK(secs < 30.0);
  }
}
BENCHMARK(BM_E22_ParallelOpenLoopSweep)
    ->ArgsProduct({{10'000, 100'000}, {1, 2, 8}})
    ->ArgNames({"clients", "threads"})
    ->Iterations(1)
    ->UseRealTime();

/// A full engine under contention: N clients run a 95/5 read/update zipfian
/// mix against one Aurora-style engine whose fabric nodes all share a
/// uniform per-node capacity. Shows that the engine's *commit fan-out*
/// (quorum appends) hits the knee before raw page reads do — every commit
/// occupies several resources.
void BM_E22_EngineSaturation(benchmark::State& state) {
  const uint64_t clients = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kKeys = 2000;

  Fabric fabric;
  auto engine = sim::MakeRowEngine("aurora", &fabric);
  DISAGG_CHECK(engine != nullptr);

  // Preload before enabling congestion: setup cost is not part of the
  // measured contention window.
  {
    NetContext setup;
    Random rng(7);
    for (uint64_t k = 0; k < kKeys; k++) {
      DISAGG_CHECK_OK(engine->Put(&setup, k, rng.RandomString(96)));
    }
  }
  CongestionConfig cfg;
  cfg.default_node = ResourceCapacity{200, 0.25};
  fabric.EnableCongestion(cfg);

  sim::LoadOptions opts;
  opts.clients = clients;
  opts.ops_per_client = 128;
  sim::LoadReport report;
  for (auto _ : state) {
    fabric.congestion()->Reset();
    ZipfianGenerator zipf(kKeys, 0.99, 42);
    report = sim::RunClosedLoop(
        opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) -> Status {
          const uint64_t key = zipf.Next();
          if (rng->Bernoulli(0.95)) {
            return engine->GetRow(ctx, key).status();
          }
          return engine->Put(ctx, key, rng->RandomString(96));
        });
    DISAGG_CHECK(report.errors == 0);
  }

  state.counters["tput_kops"] = report.ThroughputOpsPerSec() / 1e3;
  state.counters["p50_us"] = report.latency.Percentile(50) / 1e3;
  state.counters["p99_us"] = report.latency.Percentile(99) / 1e3;
  state.counters["queue_us_per_op"] =
      static_cast<double>(report.total.queue_ns) / 1e3 /
      static_cast<double>(report.ops);
  state.SetLabel("aurora");
}
BENCHMARK(BM_E22_EngineSaturation)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->ArgName("clients")
    ->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
