// Experiment E24 (DESIGN.md): graceful degradation vs reject-only under
// overload plus a partial replica outage.
//
// Scenario: an Aurora-style engine (4 replicas, 4 AZs, W=2) has lost the
// log-ingest lane of two replicas — during the setup write phase they stop
// acking appends and fall a bounded number of LSNs behind, but their
// page-serve lane still answers `page.get` (a realistic partial failure:
// the WAL pipeline is wedged, the read path is fine). The measured phase is
// a replica-read storm (`GetRowReadOnly`: no commit record, no log
// traffic), so the two fresh replicas carry the whole strict read load
// through the congestion layer while the stale ones sit reachable but
// behind the freshness floor.
//
// Open-loop clients offer {35, 70, 120}% of the fresh replicas' aggregate
// page-read capacity. Each logical request NEEDS the row and carries a
// deadline budget: when the read fails, the client pauses and re-issues
// until it succeeds or the budget burns — the app-level retry storm
// reject-only systems face. Two modes per rate:
//   - reject: no DegradePolicy. Strict reads that cannot be admitted at a
//     fresh replica fail Busy; the client hammers again, amplifying load.
//   - degrade: DegradePolicy{enabled, bound}. The same failure falls back
//     to a bounded-staleness copy on the stale-but-reachable replicas and
//     the request completes on the first try.
//
// Measured per (mode, rate): goodput (ok requests/sec), time-to-data p50/
// p99 over successful requests, degraded fraction, summed + max staleness,
// admission rejects and deadline misses. The staleness bound is asserted
// per degraded read — a violation is counted, never tolerated.
//
// Every run self-checks:
//   - zero staleness-bound violations anywhere;
//   - at 120% offered load the degrade mode serves a nonzero degraded
//     fraction with nonzero (but bounded) total staleness;
//   - at 35% both modes complete >= 95% of requests (degradation is a
//     last resort, not a tax on the healthy regime).
// The reject/degrade comparisons are rows of scripts/bench_snapshot.py's
// CLAIMS table: degrade completes at least as many requests as reject-only
// at every rate, strictly more at 120%, and at 120% reject-only's p99
// time-to-data is >= degrade's (re-issue rounds cost more than one degraded
// fan-out).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/engines.h"
#include "net/interceptors.h"
#include "sim/load_driver.h"

namespace disagg {
namespace {

constexpr int kKeys = 32;
constexpr size_t kValueBytes = 400;  // ~16 rows per 8 KiB page -> 2 pages
constexpr uint64_t kStalenessBound = 10'000;
constexpr uint64_t kDeadlineNs = 2'500'000;       // 2.5 ms per request
constexpr uint64_t kClientRetryPauseNs = 50'000;  // app re-issue pause
constexpr int kMaxClientRounds = 5;               // app-level issue cap
constexpr double kNsPerByteFresh = 24.0;          // ~200 us per page read
constexpr uint64_t kMaxBacklogNs = 400'000;       // ~2 page reads deep

std::string ValueFor(int key, int version) {
  std::string v = "k" + std::to_string(key) + "-v" + std::to_string(version);
  v.resize(kValueBytes, 'x');
  return v;
}

/// The partial-outage interceptor: log ingest (`log.append` /
/// `page.apply_log`) at the two stale replicas fails Unavailable. They keep
/// serving pages but never ack, so once the setup phase's last write lands
/// their copies stay a fixed, bounded number of LSNs behind the floor.
class IngestOutage : public FabricInterceptor {
 public:
  IngestOutage(NodeId stale_a, NodeId stale_b)
      : stale_a_(stale_a), stale_b_(stale_b) {}

  const char* name() const override { return "ingest-outage"; }

  Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    (void)fabric;
    if (op->verb == FabricVerb::kRpc && op->method != nullptr &&
        (*op->method == "log.append" || *op->method == "page.apply_log") &&
        (op->node == stale_a_ || op->node == stale_b_)) {
      ctx->Charge(kOutageNackNs);
      return Status::Unavailable("replica log-ingest lane down");
    }
    return next(op, ctx);
  }

 private:
  static constexpr uint64_t kOutageNackNs = 5'000;
  const NodeId stale_a_;
  const NodeId stale_b_;
};

struct ModeResult {
  sim::LoadReport load;
  Histogram ok_latency;  // time-to-data of successful requests
  uint64_t ok_ops = 0;
  uint64_t degraded = 0;
  uint64_t staleness_sum = 0;
  uint64_t staleness_max = 0;
  uint64_t bound_violations = 0;
  uint64_t deadline_misses = 0;
  uint64_t admission_rejects = 0;

  double GoodputOpsPerSec() const {
    return load.makespan_ns == 0
               ? 0.0
               : static_cast<double>(ok_ops) * 1e9 /
                     static_cast<double>(load.makespan_ns);
  }
};

/// Builds the engine + fault + congestion stack and runs one open-loop
/// sweep. Everything is derived deterministically from (`degrade`,
/// `offered_pct`), so the reject/degrade pair differ ONLY in the policy.
ModeResult RunMode(bool degrade, uint64_t offered_pct) {
  Fabric fabric;
  ReplicatedSegment::Config cfg;
  cfg.replicas = 4;
  cfg.num_azs = 4;
  cfg.write_quorum = 2;
  cfg.read_quorum = 3;
  AuroraDb db(&fabric, cfg);
  const NodeId fresh0 = db.segment()->replica(0).node;
  const NodeId fresh1 = db.segment()->replica(1).node;
  const NodeId stale0 = db.segment()->replica(2).node;
  const NodeId stale1 = db.segment()->replica(3).node;

  // Preload v1 on all four replicas, then wedge the ingest lane of
  // replicas 2/3 and write v2: from here on their copies are frozen a
  // fixed LSN distance below the durable floor. The measured phase issues
  // no writes, so no resync ever repairs them.
  {
    NetContext setup;
    for (int k = 0; k < kKeys; k++) {
      DISAGG_CHECK(db.Put(&setup, k, ValueFor(k, 1)).ok());
    }
  }
  fabric.AddInterceptor(std::make_shared<IngestOutage>(stale0, stale1));
  {
    NetContext setup;
    for (int k = 0; k < kKeys; k++) {
      DISAGG_CHECK(db.Put(&setup, k, ValueFor(k, 2)).ok());
    }
  }

  // Fabric-level retry under the interceptor chain, then the congestion
  // layer: the fresh replicas' read path has finite bandwidth and a
  // bounded queue; the stale replicas are uncapped (they are near-idle —
  // the strict path skips them for lagging acks without touching the
  // wire, so only degraded fan-outs reach them).
  RetryPolicy rp;
  rp.max_attempts = 3;
  fabric.AddInterceptor(std::make_shared<RetryInterceptor>(rp));
  CongestionConfig cc;
  cc.node_caps[fresh0] = {0, kNsPerByteFresh, kMaxBacklogNs};
  cc.node_caps[fresh1] = {0, kNsPerByteFresh, kMaxBacklogNs};
  fabric.EnableCongestion(cc);

  db.set_degrade_policy({degrade, kStalenessBound});

  // Aggregate capacity of the two fresh replicas for one 8 KiB page read.
  const double page_read_service =
      kNsPerByteFresh * (8192.0 + 256.0);  // page + headers, approximate
  const double capacity = 2.0 * 1e9 / page_read_service;
  const double offered = capacity * static_cast<double>(offered_pct) / 100.0;

  ModeResult res;
  sim::OpenLoopOptions opts;
  opts.clients = 8;
  opts.ops_per_client = 150;
  opts.ops_per_sec = offered / static_cast<double>(opts.clients);
  opts.process = sim::ArrivalProcess::kPoisson;
  opts.seed = 24;

  res.load = sim::RunOpenLoop(
      opts, [&](uint64_t, uint64_t, NetContext* ctx, Random* rng) {
        const uint64_t arrival = ctx->sim_ns;
        ctx->deadline_ns = arrival + kDeadlineNs;
        const uint64_t key = rng->Uniform(kKeys);
        Status st;
        // Re-issue rounds are bounded twice over: by the deadline budget
        // and by a hard cap (the budget alone would admit ~50 rounds).
        for (int round = 0; round < kMaxClientRounds; round++) {
          // Every attempt is a cold read: the compute tier's buffer does
          // not absorb the offered load (E24 measures the storage tier).
          db.DropBuffer();
          const uint64_t degraded_before = ctx->degraded_ops;
          const uint64_t staleness_before = ctx->staleness_lsn;
          auto r = db.GetRowReadOnly(ctx, key);
          st = r.status();
          if (ctx->degraded_ops > degraded_before) {
            res.degraded++;
            const uint64_t s = ctx->staleness_lsn - staleness_before;
            res.staleness_sum += s;
            if (s > res.staleness_max) res.staleness_max = s;
            if (s > kStalenessBound) res.bound_violations++;
          }
          if (st.ok() ||
              ctx->sim_ns + kClientRetryPauseNs >= ctx->deadline_ns) {
            break;
          }
          // The client NEEDS the row: pause briefly and hammer again.
          ctx->Charge(kClientRetryPauseNs);
        }
        if (st.ok()) {
          res.ok_ops++;
          res.ok_latency.Record(ctx->sim_ns - arrival);
        }
        return st;
      });
  res.deadline_misses = res.load.total.deadline_misses;
  res.admission_rejects = res.load.total.admission_rejects;
  return res;
}

void BM_E24_DegradeVsReject(benchmark::State& state) {
  const uint64_t offered_pct = static_cast<uint64_t>(state.range(0));
  const bool degrade = state.range(1) == 1;

  ModeResult res;
  for (auto _ : state) {
    res = RunMode(degrade, offered_pct);
  }

  const double total =
      static_cast<double>(res.load.ops == 0 ? 1 : res.load.ops);
  state.counters["goodput_kops"] = res.GoodputOpsPerSec() / 1e3;
  state.counters["ok_frac"] = static_cast<double>(res.ok_ops) / total;
  state.counters["degraded_frac"] = static_cast<double>(res.degraded) / total;
  state.counters["p50_us"] = res.ok_latency.Percentile(50) / 1e3;
  state.counters["p99_us"] = res.ok_latency.Percentile(99) / 1e3;
  state.counters["staleness_sum_lsn"] = static_cast<double>(res.staleness_sum);
  state.counters["staleness_max_lsn"] = static_cast<double>(res.staleness_max);
  state.counters["bound_violations"] =
      static_cast<double>(res.bound_violations);
  state.counters["admission_rejects"] =
      static_cast<double>(res.admission_rejects);
  state.counters["deadline_misses"] =
      static_cast<double>(res.deadline_misses);
  state.SetLabel(degrade ? "degrade" : "reject-only");

  DISAGG_CHECK(res.bound_violations == 0);
  if (offered_pct == 120 && degrade) {
    DISAGG_CHECK(res.degraded > 0);
    DISAGG_CHECK(res.staleness_sum > 0);
    DISAGG_CHECK(res.staleness_max <= kStalenessBound);
  }
  if (offered_pct == 35) {
    DISAGG_CHECK(static_cast<double>(res.ok_ops) >= 0.95 * total);
  }
}
BENCHMARK(BM_E24_DegradeVsReject)
    ->ArgsProduct({{35, 70, 120}, {0, 1}})
    ->ArgNames({"offered_pct", "degrade"})
    ->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
