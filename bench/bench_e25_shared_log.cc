// Experiment E25 (DESIGN.md): per-engine private log quorums vs one
// disaggregated shared-log service, under multi-tenant ephemeral compute.
//
// Scenario: N tenants each drive a WAL append stream from a sequence of M
// *ephemeral* compute nodes — each compute session replays the tenant's log
// on spin-up (the recovery read), appends a fixed run of batches, then
// disappears; the next session starts from the durable log alone. The two
// deployments differ ONLY in the log tier behind the `LogBackend`
// interface:
//   - private: every tenant owns a 3-replica quorum segment (W=2, R=2) —
//     the per-engine arrangement Aurora-style architectures ship with.
//     Fleet cost: 3N log nodes.
//   - shared:  one 3-node SharedLogService (replication=3, W=2) carries all
//     N tenants as tags. Fleet cost: 3 log nodes, period.
//
// Halfway through the session sequence one log node is killed in each
// deployment. The private fleet needs no reconfiguration (each tenant's
// quorum absorbs its dead replica, paying per-append fan-out to a corpse
// forever after); the shared fleet runs a seal + view change and the whole
// fleet is clean again — the measured `reconfig_us` IS that recovery time.
//
// Measured per (mode, tenants, computes): appends/s over the tenants'
// parallel timelines, bytes on the wire (appends + recovery reads),
// append-batch p50/p99, recovery-read bytes, view-change recovery time,
// first-append latency after the kill, and the log-node fleet size.
//
// Every run self-checks:
//   - every append succeeded (quorums held through the kill);
//   - every tenant's final log replays completely, in strictly increasing
//     LSN order;
//   - in shared mode, the view change after the kill took nonzero simulated
//     time and every tenant's first append after it succeeded.
// The comparison with the private twin at 4 tenants x 8 computes is a set
// of rows in scripts/bench_snapshot.py's CLAIMS table: identical record
// counts; a smaller shared fleet (3 vs 3N); recovery-read traffic within
// header overhead of the private fleet's (the tag index serves exactly the
// tenant's records); and strictly lower TOTAL wire traffic — after the kill
// the sealed view stops paying append fan-out to the dead node, while every
// private quorum keeps shipping a growing un-acked suffix to its corpse.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "log/shared_log.h"
#include "storage/log_store.h"
#include "storage/quorum.h"
#include "txn/wal.h"

namespace disagg {
namespace {

constexpr int kBatchesPerSession = 16;
constexpr int kRecordsPerBatch = 4;
constexpr size_t kRecordBytes = 120;

LogRecord Rec(Lsn lsn, int tenant) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = static_cast<TxnId>(tenant + 1);
  r.type = LogType::kInsert;
  r.page_id = 1 + (lsn % 64);
  r.slot = static_cast<uint16_t>(lsn % 1000);
  r.payload = std::string(kRecordBytes, static_cast<char>('a' + tenant % 26));
  return r;
}

/// Private-mode backend: one tenant's own quorum segment behind the same
/// `LogBackend` interface the engines use. The recovery read is the
/// engines' quorum sink's (`ReplicatedSegment::ReadLog`).
class PrivateQuorumBackend : public LogBackend {
 public:
  PrivateQuorumBackend(Fabric* fabric, int tenant) {
    ReplicatedSegment::Config cfg;
    cfg.replicas = 3;
    cfg.num_azs = 3;
    cfg.write_quorum = 2;
    cfg.read_quorum = 2;
    segment_ = std::make_unique<ReplicatedSegment>(
        fabric, cfg, "t" + std::to_string(tenant) + "-seg");
  }

  ReplicatedSegment* segment() { return segment_.get(); }

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    return segment_->AppendLog(ctx, records);
  }

  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    return segment_->ReadLog(ctx);
  }

 private:
  std::unique_ptr<ReplicatedSegment> segment_;
};

struct E25Result {
  uint64_t records = 0;       // records durably appended, all tenants
  uint64_t append_errors = 0; // failed batch appends (must stay 0)
  uint64_t wall_ns = 0;       // max over the tenants' parallel timelines
  uint64_t wire_bytes = 0;    // bytes on the fabric, appends + recovery
  uint64_t recovery_read_bytes = 0;  // spin-up replay traffic only
  Histogram batch_lat;
  uint64_t reconfig_ns = 0;   // shared: seal + view change after the kill
  uint64_t post_kill_first_append_ns = 0;  // max over tenants
  int log_nodes = 0;
  bool replay_ok = true;      // final per-tenant replay complete + ordered

  double AppendsPerSec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(records) * 1e9 /
                              static_cast<double>(wall_ns);
  }
};

E25Result RunMode(bool shared, int tenants, int computes) {
  Fabric fabric;
  E25Result res;

  std::unique_ptr<SharedLogService> slog;
  std::vector<std::unique_ptr<LogBackend>> logs;
  if (shared) {
    slog = std::make_unique<SharedLogService>(&fabric,
                                              SharedLogService::Config{});
    for (int t = 0; t < tenants; t++) {
      logs.push_back(std::make_unique<SharedLogBackend>(
          &fabric, slog.get(), static_cast<LogTag>(t + 1)));
    }
    res.log_nodes = static_cast<int>(slog->num_log_nodes());
  } else {
    for (int t = 0; t < tenants; t++) {
      logs.push_back(std::make_unique<PrivateQuorumBackend>(&fabric, t));
    }
    res.log_nodes = 3 * tenants;
  }

  std::vector<NetContext> tctx(static_cast<size_t>(tenants));
  std::vector<Lsn> next_lsn(static_cast<size_t>(tenants), 1);
  for (int t = 0; t < tenants; t++) {
    tctx[t].tenant = static_cast<uint32_t>(t + 1);
  }

  const int kill_session = computes / 2;
  bool killed = false;

  for (int s = 0; s < computes; s++) {
    if (s == kill_session) {
      // One log node dies in each deployment. The shared fleet seals and
      // installs a clean view (charged to an admin context — that IS the
      // recovery time); each private quorum just keeps fanning out to its
      // corpse. Tenant 0's private segment loses replica 0.
      if (shared) {
        fabric.node(slog->log_node(0))->Fail();
        NetContext admin;
        DISAGG_CHECK(slog->SealAndReconfigure(&admin).ok());
        res.reconfig_ns = admin.sim_ns;
      } else {
        auto* priv = static_cast<PrivateQuorumBackend*>(logs[0].get());
        fabric.node(priv->segment()->replica(0).node)->Fail();
      }
      killed = true;
    }
    for (int t = 0; t < tenants; t++) {
      NetContext* ctx = &tctx[static_cast<size_t>(t)];
      if (s > 0) {
        // Ephemeral spin-up: the fresh compute node replays the tenant's
        // whole log before serving (it has no buffer, no checkpoint).
        const uint64_t wire_before = ctx->bytes_in + ctx->bytes_out;
        auto replay = logs[t]->ReadAll(ctx);
        DISAGG_CHECK(replay.ok());
        DISAGG_CHECK(replay->size() == static_cast<size_t>(next_lsn[t] - 1));
        res.recovery_read_bytes +=
            ctx->bytes_in + ctx->bytes_out - wire_before;
      }
      bool first_batch_of_session = true;
      for (int b = 0; b < kBatchesPerSession; b++) {
        EncodedRecords batch;
        for (int r = 0; r < kRecordsPerBatch; r++) {
          batch.Append(Rec(next_lsn[t] + static_cast<Lsn>(r), t));
        }
        const uint64_t before = ctx->sim_ns;
        auto tail = logs[t]->Append(ctx, batch);
        const uint64_t lat = ctx->sim_ns - before;
        if (!tail.ok()) {
          res.append_errors++;
          continue;
        }
        next_lsn[t] += kRecordsPerBatch;
        res.records += kRecordsPerBatch;
        res.batch_lat.Record(lat);
        if (killed && s == kill_session && first_batch_of_session) {
          res.post_kill_first_append_ns =
              std::max(res.post_kill_first_append_ns, lat);
        }
        first_batch_of_session = false;
      }
    }
  }

  // Final audit: every tenant's log replays completely and in order.
  for (int t = 0; t < tenants; t++) {
    NetContext* ctx = &tctx[static_cast<size_t>(t)];
    auto replay = logs[t]->ReadAll(ctx);
    if (!replay.ok() ||
        replay->size() != static_cast<size_t>(next_lsn[t] - 1)) {
      res.replay_ok = false;
      continue;
    }
    Lsn prev = kInvalidLsn;
    for (const LogRecord& r : *replay) {
      if (r.lsn <= prev) res.replay_ok = false;
      prev = r.lsn;
    }
  }

  for (const NetContext& c : tctx) {
    res.wall_ns = std::max(res.wall_ns, c.sim_ns);
    res.wire_bytes += c.bytes_in + c.bytes_out;
  }
  return res;
}

void BM_E25_SharedLogVsPrivate(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  const int computes = static_cast<int>(state.range(1));
  const bool shared = state.range(2) == 1;

  E25Result res;
  for (auto _ : state) {
    res = RunMode(shared, tenants, computes);
  }

  state.counters["appends_per_sec"] = res.AppendsPerSec();
  state.counters["records"] = static_cast<double>(res.records);
  state.counters["wire_mb"] = static_cast<double>(res.wire_bytes) / 1e6;
  state.counters["recovery_read_mb"] =
      static_cast<double>(res.recovery_read_bytes) / 1e6;
  state.counters["batch_p50_us"] = res.batch_lat.Percentile(50) / 1e3;
  state.counters["batch_p99_us"] = res.batch_lat.Percentile(99) / 1e3;
  state.counters["reconfig_us"] = static_cast<double>(res.reconfig_ns) / 1e3;
  state.counters["post_kill_append_us"] =
      static_cast<double>(res.post_kill_first_append_ns) / 1e3;
  state.counters["log_nodes"] = static_cast<double>(res.log_nodes);
  state.SetLabel(shared ? "shared-log" : "private-quorums");

  DISAGG_CHECK(res.append_errors == 0);
  DISAGG_CHECK(res.replay_ok);
  if (shared) {
    DISAGG_CHECK(res.reconfig_ns > 0);
    DISAGG_CHECK(res.post_kill_first_append_ns > 0);
  }
}
BENCHMARK(BM_E25_SharedLogVsPrivate)
    ->ArgsProduct({{2, 4}, {8}, {0, 1}})
    ->ArgNames({"tenants", "computes", "shared"})
    ->Iterations(1);

}  // namespace
}  // namespace disagg

BENCHMARK_MAIN();
