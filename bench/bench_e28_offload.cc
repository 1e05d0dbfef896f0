// Experiment E28 (DESIGN.md): near-data concurrency offload.
//
// One-sided remote indexing pays O(depth) fabric round trips per lookup
// (plus CAS/unlock round trips for writers); the memory-node executor
// (src/memnode/executor.h) runs the traversal next to the data on the pool
// node's wimpy CPU (cpu_scale 1.5x), collapsing every index op to ONE
// `exec.idx.*` Call. Three scenarios:
//  - Lookup depth: uncontended Get cost, one-sided vs offloaded, at two
//    tree sizes. The offloaded path is exactly 1 RTT/op regardless of
//    depth; the one-sided path is >= depth reads.
//  - Zipfian saturation: N closed-loop YCSB-A clients (zipf 0.99) against
//    a pool whose NIC has a per-message issue budget. One-sided traffic
//    spends depth+lock messages of that budget per op, offloaded traffic
//    one; past the knee the offloaded path keeps both throughput and p99.
//  - Chaos: the offloaded tree and the WOUND_WAIT lock table under seeded
//    crash/flap schedules (RunIndexChaos "offload", RunLockChaos) — the
//    run must stay violation-free while taking executor crash interludes.
//
// Every run self-checks:
// offloaded lookups are exactly one RTT and one RPC per op while one-sided
// lookups pay >= 3 reads; at >= 64 clients the offloaded path beats
// one-sided on throughput AND p99; and every chaos schedule replays with
// zero violations and at least one executor crash interlude taken.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "memnode/executor.h"
#include "rindex/remote_btree.h"
#include "sim/chaos.h"
#include "sim/load_driver.h"
#include "workload/ycsb.h"

namespace disagg {
namespace {

constexpr int kOps = 2000;

/// One index rig: a Sherman B+tree on a pool node that also hosts the
/// executor, switchable between the one-sided and the offloaded protocol.
struct IndexRig {
  Fabric fabric;
  MemoryNode pool{&fabric, "pool", 512 << 20};
  MemNodeExecutor exec{&fabric, &pool};
  std::unique_ptr<RemoteBTree> tree;

  IndexRig(bool offload, uint64_t keys) {
    NetContext setup;
    auto ref = RemoteBTree::Create(&setup, &fabric, &pool);
    DISAGG_CHECK(ref.ok());
    tree = std::make_unique<RemoteBTree>(&fabric, &pool, *ref,
                                         RemoteBTree::Options::Sherman());
    if (offload) tree->EnableOffload(pool.node(), exec.RegisterTree(*ref));
    for (uint64_t k = 1; k <= keys; k++) {
      DISAGG_CHECK_OK(tree->Put(&setup, k, k));
    }
  }
};

void BM_E28_LookupDepth(benchmark::State& state) {
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  NetContext one_sided;
  NetContext offloaded;
  for (auto _ : state) {
    for (const bool offload : {false, true}) {
      IndexRig rig(offload, keys);
      NetContext& ctx = offload ? offloaded : one_sided;
      Random rng(7);  // same key stream for both protocols
      for (int i = 0; i < kOps; i++) {
        DISAGG_CHECK(rig.tree->Get(&ctx, 1 + rng.Uniform(keys)).ok());
      }
    }
  }
  bench::ReportSim(state, offloaded, kOps);
  const double ops = static_cast<double>(kOps);
  state.counters["one_sided_rtts_per_op"] =
      static_cast<double>(one_sided.round_trips) / ops;
  state.counters["offload_rtts_per_op"] =
      static_cast<double>(offloaded.round_trips) / ops;
  state.counters["one_sided_us_per_op"] =
      static_cast<double>(one_sided.sim_ns) / 1e3 / ops;
  state.counters["offload_us_per_op"] =
      static_cast<double>(offloaded.sim_ns) / 1e3 / ops;
  // The acceptance bound: an offloaded lookup is ONE fabric round trip
  // (one Call, no one-sided verbs) at any depth; one-sided pays >= the
  // tree depth in reads.
  DISAGG_CHECK(offloaded.round_trips == static_cast<uint64_t>(kOps));
  DISAGG_CHECK(offloaded.rpcs == static_cast<uint64_t>(kOps));
  DISAGG_CHECK(one_sided.round_trips >= 3u * kOps);
  DISAGG_CHECK(one_sided.rpcs == 0u);
  state.SetLabel(keys <= 4000 ? "depth-3" : "depth-4");
}

/// YCSB-A (50/50 read/update, zipf 0.99) at `clients` closed-loop clients,
/// both protocols against identically provisioned pools. Returns the report.
sim::LoadReport RunZipfian(bool offload, uint64_t clients) {
  constexpr uint64_t kKeys = 4000;
  IndexRig rig(offload, kKeys);
  const ResourceCapacity cap = rig.pool.ServiceCapacity(/*ns_per_op=*/100);
  CongestionConfig cfg;
  cfg.node_caps[rig.pool.node()] = cap;
  rig.fabric.EnableCongestion(cfg);

  std::vector<std::unique_ptr<YcsbGenerator>> gens;
  for (uint64_t c = 0; c < clients; c++) {
    gens.push_back(std::make_unique<YcsbGenerator>(
        kKeys, YcsbGenerator::Mix::A(), 0.99, 1000 + c));
  }
  sim::LoadOptions opts;
  opts.clients = clients;
  opts.ops_per_client = 256;
  auto report = sim::RunClosedLoop(
      opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random*) {
        const auto op = gens[client]->Next();
        if (op.type == YcsbGenerator::OpType::kRead) {
          (void)rig.tree->Get(ctx, 1 + op.key);
          return Status::OK();
        }
        return rig.tree->Put(ctx, 1 + op.key, op.key);
      });
  DISAGG_CHECK(report.errors == 0);
  return report;
}

void BM_E28_ZipfianSaturation(benchmark::State& state) {
  const uint64_t clients = static_cast<uint64_t>(state.range(0));
  sim::LoadReport one_sided;
  sim::LoadReport offloaded;
  for (auto _ : state) {
    one_sided = RunZipfian(/*offload=*/false, clients);
    offloaded = RunZipfian(/*offload=*/true, clients);
  }
  const auto tput = [](const sim::LoadReport& r) {
    return r.makespan_ns == 0 ? 0.0
                              : static_cast<double>(r.ops) * 1e9 /
                                    static_cast<double>(r.makespan_ns);
  };
  state.counters["one_sided_ops_per_sec"] = tput(one_sided);
  state.counters["offload_ops_per_sec"] = tput(offloaded);
  state.counters["one_sided_p99_us"] =
      static_cast<double>(one_sided.latency.Percentile(99)) / 1e3;
  state.counters["offload_p99_us"] =
      static_cast<double>(offloaded.latency.Percentile(99)) / 1e3;
  if (clients >= 64) {
    // Past the NIC knee the one-sided path burns depth+lock messages of
    // the pool's issue budget per op; the offloaded path one. It must win
    // on both axes under skew at saturation.
    DISAGG_CHECK(tput(offloaded) > tput(one_sided));
    DISAGG_CHECK(offloaded.latency.Percentile(99) <
                 one_sided.latency.Percentile(99));
  }
}

void BM_E28_ChaosOffload(benchmark::State& state) {
  uint64_t crashes = 0;
  uint64_t index_ops = 0;
  uint64_t lock_commits = 0;
  uint64_t lock_busy = 0;
  for (auto _ : state) {
    crashes = index_ops = lock_commits = lock_busy = 0;
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
      const sim::ChaosReport idx = sim::RunIndexChaos("offload", seed);
      DISAGG_CHECK(idx.violations.empty());
      crashes += idx.crashes;
      index_ops += idx.trace.size();
      const sim::ChaosReport lock = sim::RunLockChaos(seed);
      DISAGG_CHECK(lock.violations.empty());
      crashes += lock.crashes;
      lock_commits += lock.commits;
      lock_busy += lock.busy;
      DISAGG_CHECK(idx.crashes > 0);
      DISAGG_CHECK(lock.crashes > 0);
      DISAGG_CHECK(lock.commits > 0);
    }
  }
  state.counters["crash_interludes"] = static_cast<double>(crashes);
  state.counters["index_ops"] = static_cast<double>(index_ops);
  state.counters["lock_commits"] = static_cast<double>(lock_commits);
  state.counters["lock_busy"] = static_cast<double>(lock_busy);
}

BENCHMARK(BM_E28_LookupDepth)
    ->Arg(4000)
    ->Arg(40000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E28_ZipfianSaturation)
    ->Arg(8)
    ->Arg(64)
    ->Arg(128)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E28_ChaosOffload)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
