#ifndef DISAGG_BENCH_BENCH_COMMON_H_
#define DISAGG_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "net/net_context.h"

namespace disagg::bench {

/// Publishes the simulated-time metrics of a batch of `ops` operations as
/// benchmark counters. Simulated time is the deterministic output of the
/// fabric cost model, independent of host speed — wall-clock time of these
/// benchmarks is irrelevant and iterations are pinned to 1.
///
/// Alongside the aggregates, the per-verb breakdown maintained by the op
/// pipeline is reported for every verb the workload actually used, plus the
/// retry/backoff/fault counters when a bench installs those interceptors.
inline void ReportSim(benchmark::State& state, const NetContext& ctx,
                      uint64_t ops) {
  if (ops == 0) ops = 1;
  state.counters["sim_us_per_op"] =
      static_cast<double>(ctx.sim_ns) / 1e3 / static_cast<double>(ops);
  state.counters["bytes_out_per_op"] =
      static_cast<double>(ctx.bytes_out) / static_cast<double>(ops);
  state.counters["bytes_in_per_op"] =
      static_cast<double>(ctx.bytes_in) / static_cast<double>(ops);
  state.counters["rtts_per_op"] =
      static_cast<double>(ctx.round_trips) / static_cast<double>(ops);
  state.counters["sim_ops_per_sec"] =
      ctx.sim_ns == 0 ? 0.0
                      : static_cast<double>(ops) * 1e9 /
                            static_cast<double>(ctx.sim_ns);
  for (size_t v = 0; v < kNumFabricVerbs; v++) {
    const VerbCounters& pv = ctx.per_verb[v];
    if (pv.ops == 0) continue;
    const std::string verb = FabricVerbName(static_cast<FabricVerb>(v));
    state.counters[verb + "_ops"] = static_cast<double>(pv.ops);
    state.counters[verb + "_sim_us"] = static_cast<double>(pv.sim_ns) / 1e3;
  }
  if (ctx.retries != 0) {
    state.counters["retries"] = static_cast<double>(ctx.retries);
    state.counters["backoff_us"] = static_cast<double>(ctx.backoff_ns) / 1e3;
  }
  if (ctx.faults_injected != 0) {
    state.counters["faults_injected"] =
        static_cast<double>(ctx.faults_injected);
  }
  if (ctx.queue_ns != 0) {
    state.counters["queue_us_per_op"] =
        static_cast<double>(ctx.queue_ns) / 1e3 / static_cast<double>(ops);
  }
}

}  // namespace disagg::bench

#endif  // DISAGG_BENCH_BENCH_COMMON_H_
