#ifndef DISAGG_BENCH_BENCH_COMMON_H_
#define DISAGG_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "net/interceptors.h"
#include "net/net_context.h"
#include "sim/load_driver.h"

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

/// Reads the unsigned decimal environment variable `name` into `*out`.
/// Returns false, leaving `*out` alone, when it is unset or not a decimal
/// number in [0, UINT32_MAX]; such a value is also reported on stderr.
/// strtoull alone would read "abc" as 0, and "-1" as ULLONG_MAX, which
/// would truncate to 4294967295 worker threads.
inline bool EnvU32(const char* name, uint32_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (*env < '0' || *env > '9' || *end != '\0' || errno == ERANGE ||
      parsed > UINT32_MAX) {
    std::fprintf(stderr, "%s='%s' is not a 32-bit unsigned number; "
                 "ignoring it\n", name, env);
    return false;
  }
  *out = static_cast<uint32_t>(parsed);
  return true;
}

/// The load driver configuration from the environment, for any bench built
/// on sim::RunClosedLoop / sim::RunOpenLoop:
///   DISAGG_SIM_PARTITIONS - client partitions (default 1)
///   DISAGG_SIM_THREADS    - worker threads (execution resource only; the
///                           determinism contract keeps results identical
///                           at any value)
/// Unset variables keep the defaults, so existing invocations are
/// untouched. Returns the config to assign into LoadOptions/
/// OpenLoopOptions::parallel.
inline sim::ParallelConfig ParallelFromEnv() {
  sim::ParallelConfig parallel;
  const bool partitions_set =
      EnvU32("DISAGG_SIM_PARTITIONS", &parallel.partitions);
  if (EnvU32("DISAGG_SIM_THREADS", &parallel.threads)) {
    if (parallel.threads == 0) parallel.threads = 1;
    // Threads without partitions would leave every client on one
    // partition; give the sweep something to parallelize over.
    if (!partitions_set) parallel.partitions = parallel.threads;
  }
  return parallel;
}

/// Installs a TraceInterceptor on `fabric` when the DISAGG_TRACE environment
/// variable is set (its value is the ring-buffer capacity; 0 or non-numeric
/// keeps histograms only). Returns the interceptor, or nullptr when tracing
/// is off. Pair with DumpTrace() after the measured section.
inline std::shared_ptr<TraceInterceptor> MaybeTraceFromEnv(Fabric* fabric) {
  const char* env = std::getenv("DISAGG_TRACE");
  if (env == nullptr) return nullptr;
  // strtoull with a discarded end pointer would silently read garbage (or a
  // trailing suffix like "100x") as a number; detect it, warn, and fall back
  // to histogram-only mode instead of quietly dropping the op trace.
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  size_t capacity = static_cast<size_t>(parsed);
  if (end == env || *end != '\0') {
    std::fprintf(stderr,
                 "DISAGG_TRACE='%s' is not a number; tracing with "
                 "histograms only (capacity 0)\n",
                 env);
    capacity = 0;
  }
  auto trace = std::make_shared<TraceInterceptor>(capacity);
  fabric->AddInterceptor(trace);
  return trace;
}

/// Prints the op-trace JSON to stderr (benchmark counters cannot carry
/// structured payloads). No-op when tracing is off.
inline void DumpTrace(const std::shared_ptr<TraceInterceptor>& trace,
                      const char* label) {
  if (trace == nullptr) return;
  std::fprintf(stderr, "DISAGG_TRACE %s %s\n", label,
               trace->DumpJson().c_str());
}

}  // namespace disagg::bench

#endif  // DISAGG_BENCH_BENCH_COMMON_H_
