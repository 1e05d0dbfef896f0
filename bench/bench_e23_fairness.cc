// Experiment E23 (DESIGN.md): tenant isolation under weighted fair queueing
// and admission control.
//
// Two tenants share one RDMA memory pool through the congestion layer:
//  - OLTP (tenant 1): 4 closed-loop clients issuing 256 B point reads —
//    short ops, latency-sensitive, the "victim".
//  - OLAP (tenant 2): 4 closed-loop clients issuing 256 KiB scan reads —
//    each op occupies the pool NIC for ~65 us, the "noisy neighbour".
//
// Four congestion configurations of the SAME workload:
//  - mode 0 fifo:       strict virtual-time FIFO (the PR-3 default). OLTP
//                       p99 is dominated by waiting behind queued scans.
//  - mode 1 fifo+adm:   FIFO plus a backlog bound; ops arriving past it
//                       fail fast with Busy and retry with backoff, which
//                       caps how deep the shared queue (and the victim's
//                       wait) can get.
//  - mode 2 wfq:        start-time fair queueing, weights OLTP:OLAP = 4:1.
//                       The victim only queues behind its own lane, so its
//                       p99 collapses back to the bare read cost.
//  - mode 3 wfq+adm:    WFQ plus the backlog bound: the scan lane is
//                       length-limited while the victim lane stays empty —
//                       OLTP is never rejected and never waits.
//
// Every run self-checks what one mode shows alone: admission modes actually
// reject, and under wfq+adm the victim is never the one rejected. The
// isolation shape against the FIFO case is a set of rows in
// scripts/bench_snapshot.py's CLAIMS table:
//  - wfq modes: victim p99 <= 0.5x its FIFO p99;
//  - admission modes: the victim's in-system p99 <= 0.5x the FIFO p99.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "memnode/memory_node.h"
#include "net/interceptors.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

constexpr uint64_t kOltpBytes = 256;
constexpr uint64_t kOlapBytes = 256 * 1024;
constexpr uint64_t kPoolBytes = 16ull * 1024 * 1024;
constexpr uint64_t kOltpTenant = 1;
constexpr uint64_t kOlapTenant = 2;
constexpr uint64_t kBacklogBoundNs = 20000;  // 20 us shared-queue cap

enum Mode { kFifo = 0, kFifoAdmission = 1, kWfq = 2, kWfqAdmission = 3 };

const char* ModeName(int mode) {
  switch (mode) {
    case kFifo: return "fifo";
    case kFifoAdmission: return "fifo+adm";
    case kWfq: return "wfq";
    default: return "wfq+adm";
  }
}

struct ModeResult {
  sim::LoadReport report;
  Histogram oltp;      // victim per-op latency, end to end (incl. backoff)
  Histogram olap;      // scan per-op latency, end to end
  /// Victim latency with retry backoff subtracted: rejection costs + the
  /// final admitted wait + service. Admission control bounds THIS — the
  /// time an op spends in the system — while end-to-end latency still pays
  /// for client-side pacing between attempts.
  Histogram oltp_in_system;
  uint64_t oltp_busy = 0;  // victim ops that exhausted retries as Busy
  uint64_t rejections = 0;
  uint64_t retries = 0;
  uint64_t gave_up = 0;
};

ModeResult RunMode(int mode) {
  const bool wfq = mode == kWfq || mode == kWfqAdmission;
  const bool admission = mode == kFifoAdmission || mode == kWfqAdmission;

  Fabric fabric;
  MemoryNode pool(&fabric, "pool", kPoolBytes, InterconnectModel::Rdma());
  ResourceCapacity cap = pool.ServiceCapacity(/*ns_per_op=*/100);
  if (admission) cap.max_backlog_ns = kBacklogBoundNs;
  CongestionConfig cfg;
  cfg.node_caps[pool.node()] = cap;
  if (wfq) {
    cfg.tenant_weights[kOltpTenant] = 4.0;
    cfg.tenant_weights[kOlapTenant] = 1.0;
  }
  fabric.EnableCongestion(cfg);

  std::shared_ptr<RetryInterceptor> retry;
  if (admission) {
    // Busy from admission control is retryable contention here: back off and
    // re-offer the op once the backlog has had time to drain.
    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.initial_backoff_ns = 2000;
    policy.retry_busy = true;
    retry = std::make_shared<RetryInterceptor>(policy);
    fabric.AddInterceptor(retry);
  }

  ModeResult result;
  std::vector<char> buf(kOlapBytes);
  sim::LoadOptions opts;
  opts.clients = 8;  // 0..3 OLTP, 4..7 OLAP
  opts.ops_per_client = 256;
  result.report = sim::RunClosedLoop(
      opts, [&](uint64_t client, uint64_t, NetContext* ctx, Random* rng) {
        const bool oltp = client < 4;
        ctx->tenant = oltp ? kOltpTenant : kOlapTenant;
        const uint64_t bytes = oltp ? kOltpBytes : kOlapBytes;
        const uint64_t offset =
            rng->Uniform(kPoolBytes / bytes) * bytes;
        const uint64_t before = ctx->sim_ns;
        const uint64_t backoff_before = ctx->backoff_ns;
        Status st = fabric.Read(ctx, pool.at(offset), buf.data(), bytes);
        const uint64_t latency = ctx->sim_ns - before;
        (oltp ? result.oltp : result.olap).Record(latency);
        if (oltp) {
          result.oltp_in_system.Record(latency -
                                       (ctx->backoff_ns - backoff_before));
          if (st.IsBusy()) result.oltp_busy++;
        }
        return st;
      });

  result.rejections = fabric.congestion()->total_rejections();
  if (retry != nullptr) {
    result.retries = retry->retries();
    result.gave_up = retry->gave_up();
  }
  return result;
}

void BM_E23_TenantIsolation(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));

  ModeResult r;
  for (auto _ : state) {
    r = RunMode(mode);
    // Without admission control every read must succeed; with it, Busy after
    // exhausted retries is an allowed outcome (counted, not fatal).
    if (mode == kFifo || mode == kWfq) DISAGG_CHECK(r.report.errors == 0);
  }

  const double makespan_s =
      static_cast<double>(r.report.makespan_ns) / 1e9;
  state.counters["oltp_p50_us"] = r.oltp.Percentile(50) / 1e3;
  state.counters["oltp_p99_us"] = r.oltp.Percentile(99) / 1e3;
  state.counters["oltp_sys_p99_us"] = r.oltp_in_system.Percentile(99) / 1e3;
  state.counters["olap_p99_us"] = r.olap.Percentile(99) / 1e3;
  state.counters["oltp_kops"] = makespan_s == 0.0
                                    ? 0.0
                                    : static_cast<double>(r.oltp.count()) /
                                          makespan_s / 1e3;
  state.counters["olap_kops"] = makespan_s == 0.0
                                    ? 0.0
                                    : static_cast<double>(r.olap.count()) /
                                          makespan_s / 1e3;
  state.counters["rejects"] = static_cast<double>(r.rejections);
  state.counters["retries"] = static_cast<double>(r.retries);
  state.counters["gave_up"] = static_cast<double>(r.gave_up);
  state.counters["errors"] = static_cast<double>(r.report.errors);
  state.SetLabel(ModeName(mode));

  if (mode == kFifoAdmission || mode == kWfqAdmission) {
    // The bound must actually bind: ops get rejected.
    DISAGG_CHECK(r.rejections > 0);
  }
  if (mode == kWfqAdmission) {
    // Per-lane backlog accounting: the victim's own lane never fills, so
    // admission control only ever rejects the scan tenant.
    DISAGG_CHECK(r.oltp_busy == 0);
  }
}
BENCHMARK(BM_E23_TenantIsolation)
    ->Arg(kFifo)
    ->Arg(kFifoAdmission)
    ->Arg(kWfq)
    ->Arg(kWfqAdmission)
    ->ArgName("mode")
    ->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
