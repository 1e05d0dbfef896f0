#include "sim/chaos.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "common/random.h"
#include "core/multi_writer.h"
#include "log/shared_log.h"
#include "core/serverless_db.h"
#include "memnode/executor.h"
#include "memnode/memory_node.h"
#include "net/membership.h"
#include "pm/ford_txn.h"
#include "pm/pm_node.h"
#include "rindex/race_hash.h"
#include "rindex/remote_btree.h"
#include "sim/engine_registry.h"
#include "txn/recovery.h"
#include "workload/tpcc_lite.h"
#include "workload/ycsb.h"

namespace disagg {
namespace sim {

namespace {

// Workload key layout. Bank and YCSB keys stay far below TPC-C's tagged
// key space (table tag in the top byte), so the checkers never collide
// with TPC-C rows.
constexpr uint64_t kBankBase = 1000;
constexpr int kBankAccounts = 8;
constexpr uint64_t kBankInitial = 100000;
constexpr uint64_t kYcsbBase = 2000;
constexpr uint64_t kYcsbSpace = 24;

// Fixed-width rows: updates never relocate slots, so the row index stays
// valid across ARIES-replayed restarts even for uncertain transactions.
std::string FormatBalance(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIu64, v);
  return std::string(buf);
}

uint64_t ParseBalance(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::string FixedValue(uint64_t key, int op) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "y%06" PRIu64 "-%08d", key % 1000000, op);
  std::string v(buf);
  v.resize(24, 'x');
  return v;
}

}  // namespace

// ------------------------------------------------------------ ChaosSchedule

ChaosSchedule ChaosSchedule::FromSeed(uint64_t seed) {
  // Every parameter is drawn from a generator keyed only by the seed, so
  // the whole schedule is a pure function of it.
  Random rng(seed ^ 0xC8A05C8A05ull);
  ChaosSchedule s;
  s.seed = seed;
  s.drop_prob = 0.05 + 0.15 * rng.NextDouble();
  s.spike_prob = 0.02 + 0.08 * rng.NextDouble();
  s.spike_ns = 5000 + rng.Uniform(20000);
  s.num_ops = 120 + static_cast<int>(rng.Uniform(121));
  const int crashes = 1 + static_cast<int>(rng.Uniform(2));
  for (int c = 0; c < crashes; c++) {
    const int lo = s.num_ops / 3;
    int point = lo + static_cast<int>(rng.Uniform(s.num_ops - lo));
    s.crash_points.push_back(point);
  }
  std::sort(s.crash_points.begin(), s.crash_points.end());
  s.crash_points.erase(
      std::unique(s.crash_points.begin(), s.crash_points.end()),
      s.crash_points.end());
  const int flaps = static_cast<int>(rng.Uniform(3));  // 0..2 windows
  for (int f = 0; f < flaps; f++) {
    FlapWindow w;
    w.from_seq = 500 + rng.Uniform(6000);
    w.until_seq = w.from_seq + 800 + rng.Uniform(3000);
    s.flap_windows.push_back(w);
  }
  // Shared-log view changes ride their own salted generator: adding them
  // must not perturb any draw above, so every pre-existing schedule (and
  // its pinned trace) replays bit-identically.
  Random slog_rng(seed ^ 0x510C0F16ull);
  const int reconfigs = 1 + static_cast<int>(slog_rng.Uniform(2));
  for (int r = 0; r < reconfigs; r++) {
    const int lo = s.num_ops / 4;
    const int point = lo + static_cast<int>(slog_rng.Uniform(s.num_ops - lo));
    s.log_reconfig_points.push_back(point);
  }
  std::sort(s.log_reconfig_points.begin(), s.log_reconfig_points.end());
  s.log_reconfig_points.erase(
      std::unique(s.log_reconfig_points.begin(), s.log_reconfig_points.end()),
      s.log_reconfig_points.end());
  return s;
}

std::string ChaosSchedule::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%" PRIu64 " drop=%.4f spike=%.4f/%" PRIu64
                "ns ops=%d crashes=%zu flaps=%zu retry=%d",
                seed, drop_prob, spike_prob, spike_ns, num_ops,
                crash_points.size(), flap_windows.size(), retry_attempts);
  std::string out(buf);
  for (const FlapWindow& w : flap_windows) {
    out += " [" + std::to_string(w.from_seq) + "," +
           std::to_string(w.until_seq) + ")";
  }
  if (max_backlog_ns != 0) {
    out += " backlog=" + std::to_string(max_backlog_ns) + "ns/op=" +
           std::to_string(overload_ns_per_op);
  }
  if (degrade.enabled) {
    out += " degrade<=" + std::to_string(degrade.max_staleness_lsn);
  }
  if (!log_reconfig_points.empty()) {
    out += " slog_reconfigs=" + std::to_string(log_reconfig_points.size());
  }
  return out;
}

// ----------------------------------------------------------------- KvModel

void KvModel::Commit(uint64_t key, std::optional<std::string> value) {
  Entry& e = entries_[key];
  e.committed = std::move(value);
  e.maybe.clear();
  e.promotable_from = 0;
}

void KvModel::MaybeCommit(uint64_t key, std::optional<std::string> value) {
  entries_[key].maybe.push_back(std::move(value));
}

void KvModel::Poison(uint64_t key) { entries_[key].poisoned = true; }

void KvModel::PromoteAllUncertain() {
  for (auto& [key, e] : entries_) {
    if (e.maybe.size() == e.promotable_from) continue;
    e.committed = e.maybe.back();
    e.maybe.clear();
    e.promotable_from = 0;
  }
}

void KvModel::Crash() {
  for (auto& [key, e] : entries_) e.promotable_from = e.maybe.size();
}

std::string KvModel::CheckRead(uint64_t key, const Status& st,
                               const std::string& value) const {
  std::optional<std::string> obs;
  if (st.ok()) {
    obs = value;
  } else if (!st.IsNotFound()) {
    return "key " + std::to_string(key) +
           ": unexpected read status " + st.ToString();
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (!obs) return "";
    return "untracked key " + std::to_string(key) + " returned \"" + *obs +
           "\"";
  }
  const Entry& e = it->second;
  if (e.poisoned) return "";
  if (obs == e.committed) return "";
  for (const auto& m : e.maybe) {
    if (obs == m) return "";
  }
  return "key " + std::to_string(key) + " read " +
         (obs ? "\"" + *obs + "\"" : std::string("<absent>")) +
         " which is neither the committed value nor any uncertain outcome";
}

bool KvModel::AnyPoisoned() const {
  for (const auto& [key, e] : entries_) {
    if (e.poisoned) return true;
  }
  return false;
}

bool KvModel::AnyUncertain() const {
  for (const auto& [key, e] : entries_) {
    if (!e.maybe.empty()) return true;
  }
  return false;
}

// ---------------------------------------------------------------- Adapters

namespace {

/// Status-code classification for engines whose Put is a single opaque
/// call: contention/validation codes mean nothing changed; anything else
/// may have left durable state behind partway through.
TxnOutcome ClassifyPut(const Status& st) {
  if (st.ok()) return TxnOutcome::kCommitted;
  if (st.IsBusy() || st.IsNotFound() || st.IsInvalidArgument() ||
      st.IsAborted()) {
    return TxnOutcome::kAborted;
  }
  return TxnOutcome::kMaybeCommitted;
}

/// The five RowEngine architectures behind the chaos surface. Crash policy:
/// once any transaction's durability became uncertain, every later crash
/// recovers by full ARIES replay of the durable log tier (a consistent log
/// prefix); until then the architecture's cheap restart path is used.
class RowEngineChaosAdapter : public ChaosAdapter {
 public:
  RowEngineChaosAdapter(const std::string& name,
                        std::unique_ptr<RowEngine> engine)
      : base_(BaseEngineName(name)), engine_(std::move(engine)) {}

  RowEngine* row_engine() override { return engine_.get(); }
  bool SupportsTransfers() const override { return true; }

  TxnOutcome PutKv(NetContext* ctx, uint64_t key, const std::string& value,
                   Status* status) override {
    const TxnId txn = engine_->Begin();
    Status st = engine_->Lookup(key).ok()
                    ? engine_->Update(ctx, txn, key, value)
                    : engine_->Insert(ctx, txn, key, value);
    if (!st.ok()) {
      *status = st;  // failed before the durability point
      return engine_->Abort(ctx, txn).ok() ? TxnOutcome::kAborted
                                           : TxnOutcome::kBroken;
    }
    *status = engine_->Commit(ctx, txn);
    if (status->ok()) return TxnOutcome::kCommitted;
    sticky_uncertain_ = true;  // the WAL batch may land on a later flush
    return TxnOutcome::kMaybeCommitted;
  }

  Result<std::string> GetKv(NetContext* ctx, uint64_t key) override {
    return engine_->GetRow(ctx, key);
  }

  TxnOutcome Transfer(NetContext* ctx, uint64_t from, uint64_t to,
                      uint64_t amount, std::string* new_from,
                      std::string* new_to) override {
    const TxnId txn = engine_->Begin();
    auto a = engine_->Read(ctx, txn, from);
    auto b = a.ok() ? engine_->Read(ctx, txn, to) : a;
    if (!a.ok() || !b.ok()) {
      return engine_->Abort(ctx, txn).ok() ? TxnOutcome::kAborted
                                           : TxnOutcome::kBroken;
    }
    const uint64_t va = ParseBalance(*a);
    const uint64_t vb = ParseBalance(*b);
    const uint64_t x = std::min(amount, va);
    *new_from = FormatBalance(va - x);
    *new_to = FormatBalance(vb + x);
    Status st = engine_->Update(ctx, txn, from, *new_from);
    if (st.ok()) st = engine_->Update(ctx, txn, to, *new_to);
    if (!st.ok()) {
      return engine_->Abort(ctx, txn).ok() ? TxnOutcome::kAborted
                                           : TxnOutcome::kBroken;
    }
    st = engine_->Commit(ctx, txn);
    if (st.ok()) return TxnOutcome::kCommitted;
    sticky_uncertain_ = true;
    return TxnOutcome::kMaybeCommitted;
  }

  std::vector<NodeId> FlappableNodes() const override {
    if (engine_->shared_log() != nullptr) {
      // One shared-log backup (for tag 1 under the initial 3-member view
      // the primary is node 1, the backups nodes 2 and 0): write quorum 2
      // of 3 must ride through it flapping.
      return {engine_->shared_log()->log_node(2)};
    }
    if (base_ == "aurora") {
      auto* db = static_cast<AuroraDb*>(engine_.get());
      // Two replicas: quorum writes (W=4 of V=6) must ride through both
      // flapping at once. Chosen from the middle of the replica set so the
      // mutation build's weakened quorum is left with exactly W-1 copies.
      return {db->segment()->replica(3).node,
              db->segment()->replica(4).node};
    }
    if (base_ == "polar") {
      auto* db = static_cast<PolarDb*>(engine_.get());
      return {db->polarfs()->replica_node(1)};  // one raft follower
    }
    if (base_ == "socrates") {
      auto* db = static_cast<SocratesDb*>(engine_.get());
      if (db->page_server_count() > 1) return {db->page_server_node(1)};
      return {};
    }
    if (base_ == "taurus") {
      auto* db = static_cast<TaurusDb*>(engine_.get());
      if (db->page_store_count() > 1) return {db->page_store_node(1)};
      return {};
    }
    return {};
  }

  Status CrashAndRecover(NetContext* ctx) override {
    if (base_ == "monolithic" || sticky_uncertain_) {
      // No remote page tier to trust (monolithic never checkpointed) or the
      // page tiers may hold a torn cut: rebuild via ARIES from the log.
      return engine_->CrashAndRecover(ctx);
    }
    if (base_ == "socrates") {
      // Recovery = apply the XLOG tail to the page servers, then restart
      // the stateless compute (Socrates' actual procedure).
      auto* db = static_cast<SocratesDb*>(engine_.get());
      DISAGG_RETURN_NOT_OK(db->PropagateLogs(ctx));
      db->DropBuffer();
      return Status::OK();
    }
    engine_->DropBuffer();
    return Status::OK();
  }

  std::string AuditDurability() override {
    const Lsn flushed = engine_->wal()->flushed_lsn();
    if (flushed == kInvalidLsn) return std::string();
    if (SharedLogService* slog = engine_->shared_log()) {
      // Same invariant as the Aurora segment audit, against the log fleet:
      // the flushed prefix must sit on a write quorum of live log nodes —
      // across flaps, node kills and view changes.
      auto* sink = static_cast<SharedLogBackend*>(engine_->sink());
      const int copies =
          static_cast<int>(slog->CountDurable(sink->tag(), flushed));
      if (copies < slog->config().write_quorum) {
        return "durability audit: flushed lsn " + std::to_string(flushed) +
               " is on only " + std::to_string(copies) +
               " log nodes (< write quorum " +
               std::to_string(slog->config().write_quorum) + ")";
      }
      return std::string();
    }
    if (base_ != "aurora") return std::string();
    auto* db = static_cast<AuroraDb*>(engine_.get());
    const int copies = db->segment()->CountDurable(flushed);
    if (copies < db->segment()->config().write_quorum) {
      return "durability audit: flushed lsn " + std::to_string(flushed) +
             " is on only " + std::to_string(copies) +
             " replicas (< write quorum " +
             std::to_string(db->segment()->config().write_quorum) + ")";
    }
    return std::string();
  }

  SharedLogService* shared_log() override { return engine_->shared_log(); }

 private:
  // Crash and flap procedures key off the base architecture, whatever
  // seam stack ("+slog", "+offload") the registry layered on top.
  std::string base_;
  std::unique_ptr<RowEngine> engine_;
  bool sticky_uncertain_ = false;
};

/// PolarDB Serverless: the shared remote buffer pool survives compute
/// crashes by construction, so recovery is just re-attaching a compute.
class ServerlessChaosAdapter : public ChaosAdapter {
 public:
  explicit ServerlessChaosAdapter(Fabric* fabric) : db_(fabric, 256) {
    compute_ = db_.AttachCompute(8, /*writer=*/true);
  }


  TxnOutcome PutKv(NetContext* ctx, uint64_t key, const std::string& value,
                   Status* status) override {
    // The put is log-append then page write then index update; any failure
    // after the append may leave durable state behind.
    *status = compute_->Put(ctx, key, value);
    return ClassifyPut(*status);
  }
  Result<std::string> GetKv(NetContext* ctx, uint64_t key) override {
    return compute_->Get(ctx, key);
  }

  Status CrashAndRecover(NetContext* ctx) override {
    compute_ = db_.AttachCompute(8, /*writer=*/true);
    // The dead primary may have held page seqlocks in the shared pool.
    return compute_->FencePoolWriters(ctx);
  }

 private:
  ServerlessDb db_;
  std::unique_ptr<ServerlessDb::Compute> compute_;
};

/// Multi-writer engine: global remote lock table + shared pool. A crashed
/// writer is replaced by attaching a fresh one.
class MultiWriterChaosAdapter : public ChaosAdapter {
 public:
  explicit MultiWriterChaosAdapter(Fabric* fabric) : db_(fabric, 256) {
    writer_ = db_.AttachWriter(8);
  }


  TxnOutcome PutKv(NetContext* ctx, uint64_t key, const std::string& value,
                   Status* status) override {
    *status = writer_->Put(ctx, key, value);
    return ClassifyPut(*status);
  }
  Result<std::string> GetKv(NetContext* ctx, uint64_t key) override {
    return writer_->Get(ctx, key);
  }

  Status CrashAndRecover(NetContext* ctx) override {
    const uint64_t dead = writer_->writer_id();
    writer_ = db_.AttachWriter(8);
    // Release the dead writer's row locks and page seqlocks.
    DISAGG_RETURN_NOT_OK(db_.FenceWriter(ctx, dead));
    return writer_->FencePoolWriters(ctx);
  }

 private:
  MultiWriterDb db_;
  std::unique_ptr<MultiWriterDb::Writer> writer_;
};

/// FORD one-sided OCC transactions on persistent memory. Records are fixed
/// slots, so workload keys map onto record ids and values pad to the fixed
/// record width.
class FordChaosAdapter : public ChaosAdapter {
 public:
  static constexpr size_t kRecordsPerNode = 64;

  explicit FordChaosAdapter(Fabric* fabric) {
    pm_.push_back(std::make_unique<PmNode>(fabric, "chaos-pm0", 1 << 20));
    pm_.push_back(std::make_unique<PmNode>(fabric, "chaos-pm1", 1 << 20));
    std::vector<PmNode*> raw;
    for (auto& p : pm_) raw.push_back(p.get());
    mgr_ = std::make_unique<FordTxnManager>(fabric, raw, kRecordsPerNode);
  }

  bool SupportsTransfers() const override { return true; }

  TxnOutcome PutKv(NetContext* ctx, uint64_t key, const std::string& value,
                   Status* status) override {
    auto txn = mgr_->Begin(ctx);
    Status st = txn.Write(Rid(key), Pad(value));
    if (!st.ok()) {
      *status = st;
      txn.Abort();
      return TxnOutcome::kAborted;  // local write set only, nothing remote
    }
    *status = txn.Commit();
    if (status->ok()) return TxnOutcome::kCommitted;
    if (status->IsAborted()) return TxnOutcome::kAborted;  // clean OCC abort
    return TxnOutcome::kMaybeCommitted;  // single record: atomic either way
  }

  Result<std::string> GetKv(NetContext* ctx, uint64_t key) override {
    DISAGG_ASSIGN_OR_RETURN(std::string v,
                            mgr_->ReadCommitted(ctx, Rid(key)));
    return Strip(v);
  }

  TxnOutcome Transfer(NetContext* ctx, uint64_t from, uint64_t to,
                      uint64_t amount, std::string* new_from,
                      std::string* new_to) override {
    auto txn = mgr_->Begin(ctx);
    auto a = txn.Read(Rid(from));
    auto b = a.ok() ? txn.Read(Rid(to)) : a;
    if (!a.ok() || !b.ok()) {
      txn.Abort();
      return TxnOutcome::kAborted;
    }
    const uint64_t va = ParseBalance(Strip(*a));
    const uint64_t vb = ParseBalance(Strip(*b));
    const uint64_t x = std::min(amount, va);
    *new_from = FormatBalance(va - x);
    *new_to = FormatBalance(vb + x);
    if (!txn.Write(Rid(from), Pad(*new_from)).ok() ||
        !txn.Write(Rid(to), Pad(*new_to)).ok()) {
      txn.Abort();
      return TxnOutcome::kAborted;
    }
    Status st = txn.Commit();
    if (st.ok()) return TxnOutcome::kCommitted;
    if (st.IsAborted()) return TxnOutcome::kAborted;  // clean OCC abort
    // The write phase is not atomic under infrastructure failure; the
    // runner exempts both accounts rather than guess.
    return TxnOutcome::kBroken;
  }

  Status CrashAndRecover(NetContext* ctx) override {
    (void)ctx;  // compute is stateless; PM state is the durable state
    return Status::OK();
  }

 private:
  static uint64_t Rid(uint64_t key) {
    return key >= kYcsbBase ? 16 + (key - kYcsbBase) : key - kBankBase;
  }
  static std::string Pad(const std::string& v) {
    std::string p = v;
    p.resize(FordTxnManager::kValueBytes, '\0');
    return p;
  }
  static std::string Strip(std::string v) {
    while (!v.empty() && v.back() == '\0') v.pop_back();
    return v;
  }

  std::vector<std::unique_ptr<PmNode>> pm_;
  std::unique_ptr<FordTxnManager> mgr_;
};

}  // namespace

const std::vector<std::string>& ChaosEngineNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = RowEngineNames();
    for (const auto* variants :
         {&SharedLogRowEngineNames(), &OffloadRowEngineNames()}) {
      names.insert(names.end(), variants->begin(), variants->end());
    }
    names.insert(names.end(), {"serverless", "multiwriter", "ford"});
    return names;
  }();
  return kNames;
}

std::unique_ptr<ChaosAdapter> MakeChaosAdapter(const std::string& name,
                                               Fabric* fabric) {
  if (name == "serverless") {
    return std::make_unique<ServerlessChaosAdapter>(fabric);
  }
  if (name == "multiwriter") {
    return std::make_unique<MultiWriterChaosAdapter>(fabric);
  }
  if (name == "ford") return std::make_unique<FordChaosAdapter>(fabric);
  std::unique_ptr<RowEngine> engine = MakeRowEngine(name, fabric);
  if (engine == nullptr) return nullptr;
  return std::make_unique<RowEngineChaosAdapter>(name, std::move(engine));
}

// ------------------------------------------------------------------ Traces

std::string TraceToString(const std::vector<OpRecord>& trace) {
  std::string out;
  char buf[128];
  for (const OpRecord& r : trace) {
    std::snprintf(buf, sizeof(buf),
                  "%d %c a=%" PRIu64 " b=%" PRIu64 " st=%u ns=%" PRIu64 "\n",
                  r.index, r.kind, r.a, r.b, r.status, r.sim_ns);
    out += buf;
  }
  return out;
}

std::string ChaosReport::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "chaos[%s seed=%" PRIu64
      "]: commits=%" PRIu64 " aborts=%" PRIu64 " maybe=%" PRIu64
      " busy=%" PRIu64 " read_errs=%" PRIu64 " tpcc_errs=%" PRIu64
      " crashes=%" PRIu64 " replay_keys=%" PRIu64 " drops=%" PRIu64
      " spikes=%" PRIu64 " flap_rej=%" PRIu64 " retries=%" PRIu64
      " gave_up=%" PRIu64 " violations=%zu"
      " (replay: scripts/chaos_replay.sh %" PRIu64 ")",
      engine.c_str(), seed, commits, aborts, maybe_commits, busy,
      read_errors, tpcc_errors, crashes, replay_checked_keys, drops, spikes,
      flap_rejections, retries, gave_up, violations.size(), seed);
  std::string out(buf);
  if (log_reconfigs != 0) {
    out += " slog_reconfigs=" + std::to_string(log_reconfigs);
  }
  if (degraded_reads != 0 || admission_rejects != 0) {
    std::snprintf(buf, sizeof(buf),
                  " degraded=%" PRIu64 " staleness=%" PRIu64
                  " adm_rej=%" PRIu64,
                  degraded_reads, staleness_lsn, admission_rejects);
    out += buf;
  }
  for (const std::string& v : violations) out += "\n  VIOLATION: " + v;
  for (const std::string& n : notes) out += "\n  note: " + n;
  return out;
}

// ---------------------------------------------------------------- Run loop

namespace {

/// One workload step's trace entry; the loop stamps its index and clock.
/// `failed`: the op failed on the fabric, so its effect is unknown.
struct StepOp {
  char kind = '?';
  uint64_t a = 0;
  uint64_t b = 0;
  uint8_t status = 0;
  bool failed = false;
};

/// A step traced with its own Status; anything but OK or NotFound failed.
StepOp StatusOp(char kind, uint64_t a, const Status& st) {
  return {kind, a, 0, static_cast<uint8_t>(st.code()),
          !st.ok() && !st.IsNotFound()};
}

/// How one runner's fault rig differs from another's; the rest of the
/// faulted phase comes from the schedule.
struct RigOptions {
  std::optional<int> retry_attempts;  // nullopt: no RetryInterceptor
  std::vector<NodeId> flappable;      // flap window i targets node i % K
  std::shared_ptr<FabricInterceptor> inner;  // between retry and fault
  RowEngine* row_engine = nullptr;  // reads through the degrade ladder
};

/// The run loop every chaos runner shares: the fault rig, faulted and
/// oracle modes, the crash cursor, the trace, the failed-op tally and the
/// report's counters. A runner brings its setup, one workload step, its
/// crash interlude and its final audit.
class ChaosLoop {
 public:
  ChaosLoop(Fabric* fabric, const ChaosSchedule& schedule, ChaosReport* report,
            RigOptions rig)
      : fabric_(fabric),
        schedule_(schedule),
        report_(report),
        rig_(std::move(rig)) {
    if (rig_.retry_attempts.has_value()) {
      RetryPolicy rp;
      rp.max_attempts = *rig_.retry_attempts;
      if (schedule_.max_backlog_ns != 0) {
        // Admission control is on: a rejected op must back off long enough
        // for the backlog to drain below the bound, or every retry re-reads
        // the same "queue full" answer. The defaults (1 us exponential) are
        // tuned for lock contention, not for queues that drain at tens of
        // microseconds per op.
        rp.max_admission_attempts = 4;
        rp.initial_backoff_ns = 16'000;
      }
      retry_ = std::make_shared<RetryInterceptor>(rp);
    }
    FaultPolicy fp;
    fp.seed = schedule_.seed;
    fp.drop_prob = schedule_.drop_prob;
    fp.spike_prob = schedule_.spike_prob;
    fp.spike_ns = schedule_.spike_ns;
    for (size_t i = 0;
         !rig_.flappable.empty() && i < schedule_.flap_windows.size(); i++) {
      const ChaosSchedule::FlapWindow& w = schedule_.flap_windows[i];
      fp.flaps.push_back({rig_.flappable[i % rig_.flappable.size()],
                          w.from_seq, w.until_seq});
    }
    fault_ = std::make_shared<FaultInterceptor>(fp);
  }

  NetContext* ctx() { return &ctx_; }  // the workload client's

  /// Workload mode: retry (outermost, so it wraps the faults), the inner
  /// interceptor, faults, and the schedule's overload layer. The SAME
  /// interceptors are reinstalled after every oracle interlude, so the fault
  /// sequence keeps running and the run stays a pure function of the seed.
  void EnterFaultedMode() {
    if (retry_ != nullptr) fabric_->AddInterceptor(retry_);
    if (rig_.inner != nullptr) fabric_->AddInterceptor(rig_.inner);
    fabric_->AddInterceptor(fault_);
    if (schedule_.max_backlog_ns != 0) {
      CongestionConfig cc;
      cc.default_node = {schedule_.overload_ns_per_op, 0,
                         schedule_.max_backlog_ns};
      fabric_->EnableCongestion(cc);
    }
    if (schedule_.degrade.enabled && rig_.row_engine != nullptr) {
      rig_.row_engine->set_degrade_policy(schedule_.degrade);
    }
  }

  /// Oracle mode: a bare fabric — no interceptors, no admission control,
  /// strict reads only — so audits observe the system's true state.
  void EnterOracleMode() {
    fabric_->ClearInterceptors();
    fabric_->DisableCongestion();
    if (rig_.row_engine != nullptr) rig_.row_engine->set_degrade_policy({});
  }

  bool InFlapWindow() const {
    const uint64_t seq = fault_->ops_seen();
    for (const auto& f : fault_->policy().flaps) {
      if (seq >= f.from_seq && seq < f.until_seq) return true;
    }
    return false;
  }

  void Record(int index, char kind, uint64_t a, uint64_t b, uint8_t status) {
    report_->trace.push_back({index, kind, a, b, status, ctx_.sim_ns});
  }

  void Stop() { stopped_ = true; }  // after the current step

  /// For each step i: `crash(i)` if i is the next of the increasing
  /// `crash_steps`, then `step(i)`, whose StepOp is recorded.
  template <typename CrashFn, typename StepFn>
  void Run(int steps, const std::vector<int>& crash_steps, CrashFn crash,
           StepFn step) {
    EnterFaultedMode();
    size_t next_crash = 0;
    for (int i = 0; i < steps && !stopped_; i++) {
      if (next_crash < crash_steps.size() && i == crash_steps[next_crash]) {
        next_crash++;
        crash(i);
      }
      const StepOp op = step(i);
      if (op.failed) report_->read_errors++;
      Record(i, op.kind, op.a, op.b, op.status);
    }
  }

  /// The audit gate for runners whose ops have no rollback path.
  bool AnyOpFailed() const { return report_->read_errors > 0; }

  /// Copies the counters into the report; oracle mode for the final audit.
  void Finish() {
    report_->drops = fault_->drops();
    report_->spikes = fault_->spikes();
    report_->flap_rejections = fault_->flap_rejections();
    report_->fault_ops_seen = fault_->ops_seen();
    if (retry_ != nullptr) {
      report_->retries = retry_->retries();
      report_->gave_up = retry_->gave_up();
    }
    report_->faults_injected = ctx_.faults_injected;
    report_->staleness_lsn = ctx_.staleness_lsn;
    report_->admission_rejects = ctx_.admission_rejects;
    EnterOracleMode();
  }

 private:
  Fabric* fabric_;
  const ChaosSchedule& schedule_;
  ChaosReport* report_;
  RigOptions rig_;
  std::shared_ptr<RetryInterceptor> retry_;
  std::shared_ptr<FaultInterceptor> fault_;
  NetContext ctx_;
  bool stopped_ = false;
};

// ------------------------------------------------------------ Engine chaos

class ChaosRunner {
 public:
  ChaosRunner(std::string engine, ChaosSchedule schedule)
      : schedule_(std::move(schedule)),
        wl_rng_(schedule_.seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE),
        ycsb_(kYcsbSpace, YcsbMix(), /*zipf_theta=*/0.8,
              schedule_.seed ^ 0x5ca1ab1e) {
    report_.engine = std::move(engine);
    report_.seed = schedule_.seed;
  }

  ChaosReport Run() {
    adapter_ = MakeChaosAdapter(report_.engine, &fabric_);
    if (adapter_ == nullptr) {
      report_.violations.push_back("unknown engine " + report_.engine);
      return report_;
    }
    Setup();
    if (!report_.violations.empty()) return report_;
    RigOptions rig;
    rig.retry_attempts = schedule_.retry_attempts;
    rig.flappable = adapter_->FlappableNodes();
    rig.row_engine = adapter_->row_engine();
    loop_.emplace(&fabric_, schedule_, &report_, std::move(rig));
    loop_->Run(
        schedule_.num_ops, schedule_.crash_points,
        [this](int i) { CrashAndAudit(i, /*final_audit=*/false); },
        [this](int i) { return Step(i); });
    loop_->Finish();
    CrashAndAudit(schedule_.num_ops, /*final_audit=*/true);
    return report_;
  }

 private:
  static YcsbGenerator::Mix YcsbMix() { return {0.45, 0.45, 0.10}; }

  bool IsRow() { return adapter_->row_engine() != nullptr; }

  // Ford's fixed record slots can't grow a key space; give it an
  // insert-free mix instead (the generator is constructed identically so
  // insert ops simply re-roll as updates of the drawn key).
  bool InsertsAllowed() { return report_.engine != "ford"; }

  void Setup() {
    NetContext ctx;
    std::vector<std::pair<uint64_t, std::string>> rows;
    for (int a = 0; a < kBankAccounts; a++) {
      rows.emplace_back(kBankBase + a, FormatBalance(kBankInitial));
    }
    for (uint64_t k = 0; k < kYcsbSpace; k++) {
      rows.emplace_back(kYcsbBase + k, FixedValue(kYcsbBase + k, -1));
    }
    for (const auto& [key, value] : rows) {
      Status st;
      if (adapter_->PutKv(&ctx, key, value, &st) != TxnOutcome::kCommitted) {
        report_.violations.push_back("setup failed: " + st.ToString());
        return;
      }
      model_.Commit(key, value);
    }
    if (IsRow()) {
      TpccLite::Config cfg;
      cfg.warehouses = 1;
      cfg.districts_per_warehouse = 2;
      cfg.customers_per_district = 10;
      cfg.items = 40;
      cfg.lines_per_order = 3;
      cfg.seed = schedule_.seed ^ 0x7bcc;
      tpcc_ = std::make_unique<TpccLite>(adapter_->row_engine(), cfg);
      Status st = tpcc_->Load(&ctx);
      if (!st.ok()) {
        report_.violations.push_back("tpcc load failed: " + st.ToString());
      }
    }
  }

  void OnDefiniteCommit() {
    report_.commits++;
    // Group commit flushes the whole WAL buffer, including batches
    // re-buffered by earlier failed flushes: every uncertain outcome on
    // this engine's WAL is durable now.
    if (IsRow()) model_.PromoteAllUncertain();
    if (loop_->InFlapWindow()) report_.commits_in_flap++;
    const std::string audit = adapter_->AuditDurability();
    if (!audit.empty()) report_.violations.push_back(audit);
  }

  /// Folds op i's write transaction outcome into the model and counters;
  /// `clean` counts rollbacks before the durability point.
  void ApplyOutcome(
      int i, TxnOutcome out,
      std::initializer_list<std::pair<uint64_t, const std::string*>> writes,
      uint64_t* clean, const char* broken) {
    switch (out) {
      case TxnOutcome::kCommitted:
        OnDefiniteCommit();
        for (const auto& [key, value] : writes) model_.Commit(key, *value);
        break;
      case TxnOutcome::kAborted:
        (*clean)++;
        break;
      case TxnOutcome::kMaybeCommitted:
        report_.maybe_commits++;
        for (const auto& [key, value] : writes) model_.MaybeCommit(key, *value);
        break;
      case TxnOutcome::kBroken:
        for (const auto& [key, value] : writes) model_.Poison(key);
        report_.notes.push_back(broken + (" at op " + std::to_string(i)));
        break;
    }
  }

  StepOp Step(int i) {
    if (adapter_->shared_log() != nullptr &&
        next_reconfig_ < schedule_.log_reconfig_points.size() &&
        i == schedule_.log_reconfig_points[next_reconfig_]) {
      next_reconfig_++;
      LogViewChange(i);
    }
    NetContext* ctx = loop_->ctx();
    const double dice = wl_rng_.NextDouble();
    if (adapter_->SupportsTransfers() && dice < 0.30) {
      const uint64_t from = kBankBase + wl_rng_.Uniform(kBankAccounts);
      uint64_t to = kBankBase + wl_rng_.Uniform(kBankAccounts);
      if (to == from) to = kBankBase + (to - kBankBase + 1) % kBankAccounts;
      const uint64_t amount = 1 + wl_rng_.Uniform(400);
      std::string nf, nt;
      const TxnOutcome out =
          adapter_->Transfer(ctx, from, to, amount, &nf, &nt);
      ApplyOutcome(i, out, {{from, &nf}, {to, &nt}}, &report_.aborts,
                   "non-atomic transfer outcome");
      return {'T', from, to, static_cast<uint8_t>(out)};
    }
    if (tpcc_ != nullptr && dice >= 0.90) {
      auto r = tpcc_->NewOrder(ctx);
      if (r.ok() && *r) {
        OnDefiniteCommit();
      } else if (r.ok()) {
        report_.aborts++;
      } else {
        report_.tpcc_errors++;
      }
      const uint8_t status =
          r.ok() ? (*r ? 0 : 1) : static_cast<uint8_t>(r.status().code());
      return {'N', 0, 0, status};
    }
    YcsbGenerator::Op op = ycsb_.Next();
    if (op.type == YcsbGenerator::OpType::kInsert && !InsertsAllowed()) {
      op.type = YcsbGenerator::OpType::kUpdate;
      op.key = op.key % kYcsbSpace;
    }
    if (op.type == YcsbGenerator::OpType::kRead) {
      // A quarter of the reads audit a bank account instead.
      const uint64_t key = wl_rng_.Uniform(4) == 0
                               ? kBankBase + wl_rng_.Uniform(kBankAccounts)
                               : kYcsbBase + op.key;
      const uint64_t degraded_before = ctx->degraded_ops;
      const uint64_t staleness_before = ctx->staleness_lsn;
      auto r = adapter_->GetKv(ctx, key);
      const Status& st = r.status();
      if (ctx->degraded_ops > degraded_before) {
        // Bounded-staleness read: any older committed value may
        // legitimately surface, so the membership check does not apply —
        // but the staleness the engine accounted must respect the bound.
        report_.degraded_reads++;
        // The autocommit's WAL flush still succeeded on an ok read, so
        // re-buffered uncertain batches are durable now (page staleness
        // does not weaken log durability).
        if (st.ok() && IsRow()) model_.PromoteAllUncertain();
        const uint64_t staleness = ctx->staleness_lsn - staleness_before;
        if (staleness > schedule_.degrade.max_staleness_lsn) {
          report_.violations.push_back(
              "degraded read of key " + std::to_string(key) +
              " exceeded the staleness bound: " + std::to_string(staleness) +
              " > " + std::to_string(schedule_.degrade.max_staleness_lsn));
        }
      } else if (st.ok() || st.IsNotFound()) {
        if (st.ok() && IsRow()) model_.PromoteAllUncertain();
        const std::string msg =
            model_.CheckRead(key, st, r.ok() ? *r : std::string());
        if (!msg.empty()) report_.violations.push_back(msg);
      }
      // A failed read is an infrastructure failure, allowed mid-run.
      return StatusOp('R', key, st);
    }
    const uint64_t key = kYcsbBase + op.key;
    const std::string value = FixedValue(key, i);
    Status st;
    ApplyOutcome(i, adapter_->PutKv(ctx, key, value, &st), {{key, &value}},
                 &report_.busy, "broken put rollback");
    // The adapter classified the outcome for the model: not a failed op.
    return {'P', key, 0, static_cast<uint8_t>(st.code())};
  }

  /// Shared-log view change: kill one log node, seal + reconfigure the
  /// fleet around it, then revive the node and reconfigure again so it
  /// rejoins and is re-replicated — two epoch bumps per interlude. Runs in
  /// oracle mode (a view change is a control-plane action, not workload
  /// traffic); the workload's next appends see the old epoch rejected with
  /// Aborted and refresh their cached view. The quorum-durability invariant
  /// is audited right after: the flushed WAL prefix must sit on a write
  /// quorum of the NEW view's members.
  void LogViewChange(int at_op) {
    SharedLogService* slog = adapter_->shared_log();
    loop_->EnterOracleMode();
    NetContext octx;
    const size_t victim = static_cast<size_t>(at_op) % slog->num_log_nodes();
    fabric_.node(slog->log_node(victim))->Fail();
    Status st = slog->SealAndReconfigure(&octx);
    if (!st.ok()) {
      report_.violations.push_back(
          "shared-log reconfigure with node " + std::to_string(victim) +
          " down failed at op " + std::to_string(at_op) + ": " +
          st.ToString());
    }
    fabric_.node(slog->log_node(victim))->Revive();
    Status st2 = slog->SealAndReconfigure(&octx);
    if (!st2.ok()) {
      report_.violations.push_back(
          "shared-log rejoin reconfigure failed at op " +
          std::to_string(at_op) + ": " + st2.ToString());
    }
    report_.log_reconfigs++;
    const std::string audit = adapter_->AuditDurability();
    if (!audit.empty()) {
      report_.violations.push_back(audit + " (after view change at op " +
                                   std::to_string(at_op) + ")");
    }
    loop_->EnterFaultedMode();
    loop_->Record(at_op, 'V', victim, slog->epoch(),
                  static_cast<uint8_t>((st.ok() ? st2 : st).code()));
  }

  void CrashAndAudit(int at_op, bool final_audit) {
    report_.crashes++;
    loop_->EnterOracleMode();
    NetContext octx;
    Status st = adapter_->CrashAndRecover(&octx);
    model_.Crash();
    if (!st.ok()) {
      report_.violations.push_back("crash recovery failed: " +
                                   st.ToString());
    }
    std::map<uint64_t, std::string> observed;
    for (const auto& [key, entry] : model_.entries()) {
      if (entry.poisoned) continue;
      auto r = adapter_->GetKv(&octx, key);
      const Status& rst = r.status();
      if (!rst.ok() && !rst.IsNotFound()) {
        report_.violations.push_back("oracle read of key " +
                                     std::to_string(key) + " failed: " +
                                     rst.ToString());
        continue;
      }
      const std::string msg =
          model_.CheckRead(key, rst, r.ok() ? *r : std::string());
      if (!msg.empty()) {
        report_.violations.push_back(
            msg + (final_audit ? " (final audit)"
                               : " (after crash at op " +
                                     std::to_string(at_op) + ")"));
      }
      if (r.ok()) observed[key] = *r;
    }
    if (final_audit) {
      CheckBalanceConservation(observed);
      CheckCommittedReplay(&octx);
    } else {
      loop_->EnterFaultedMode();
    }
    loop_->Record(at_op, 'C', static_cast<uint64_t>(at_op), 0,
                  static_cast<uint8_t>(st.code()));
  }

  /// Transfers are atomic, and the durable log prefix the recovery read is
  /// a consistent cut through them — so however the uncertain transfers
  /// resolved, the money must all still be there.
  void CheckBalanceConservation(
      const std::map<uint64_t, std::string>& observed) {
    if (!adapter_->SupportsTransfers() || model_.AnyPoisoned()) return;
    uint64_t total = 0;
    for (int a = 0; a < kBankAccounts; a++) {
      auto it = observed.find(kBankBase + a);
      if (it == observed.end()) {
        report_.violations.push_back("bank account " +
                                     std::to_string(kBankBase + a) +
                                     " unreadable in final audit");
        return;
      }
      total += ParseBalance(it->second);
    }
    const uint64_t expected =
        static_cast<uint64_t>(kBankAccounts) * kBankInitial;
    if (total != expected) {
      report_.violations.push_back(
          "balance conservation violated: total " + std::to_string(total) +
          " != " + std::to_string(expected));
    }
  }

  /// Replays the durable log tier through ARIES and checks every key whose
  /// outcome is certain: its committed row must be reproduced bit-exactly
  /// at the slot the live index points to. No lost committed writes.
  void CheckCommittedReplay(NetContext* octx) {
    RowEngine* engine = adapter_->row_engine();
    if (engine == nullptr) return;
    auto log = engine->sink()->ReadAll(octx);
    if (!log.ok()) {
      report_.violations.push_back("log read for replay check failed: " +
                                   log.status().ToString());
      return;
    }
    auto out = AriesRecovery::Recover(*log, {});
    if (!out.ok()) {
      report_.violations.push_back("ARIES replay failed: " +
                                   out.status().ToString());
      return;
    }
    for (const auto& [key, entry] : model_.entries()) {
      if (entry.poisoned || !entry.maybe.empty() || !entry.committed) {
        continue;
      }
      auto loc = engine->Lookup(key);
      if (!loc.ok()) {
        report_.violations.push_back("index lost committed key " +
                                     std::to_string(key));
        continue;
      }
      auto pit = out->pages.find(loc->page);
      if (pit == out->pages.end()) {
        report_.violations.push_back(
            "log replay produced no page for committed key " +
            std::to_string(key));
        continue;
      }
      auto row = pit->second.Get(loc->slot);
      if (!row.ok() || row->ToString() != *entry.committed) {
        report_.violations.push_back(
            "committed write lost: key " + std::to_string(key) +
            " replays as " +
            (row.ok() ? "\"" + row->ToString() + "\""
                      : row.status().ToString()));
        continue;
      }
      report_.replay_checked_keys++;
    }
  }


  ChaosSchedule schedule_;
  ChaosReport report_;
  Fabric fabric_;
  std::unique_ptr<ChaosAdapter> adapter_;
  std::optional<ChaosLoop> loop_;  // built once setup found the flap targets
  std::unique_ptr<TpccLite> tpcc_;
  KvModel model_;
  Random wl_rng_;
  YcsbGenerator ycsb_;
  size_t next_reconfig_ = 0;  // cursor into schedule_.log_reconfig_points
};

}  // namespace

ChaosReport RunEngineChaos(const std::string& engine, uint64_t seed) {
  return RunEngineChaos(engine, ChaosSchedule::FromSeed(seed));
}

ChaosReport RunEngineChaos(const std::string& engine,
                           const ChaosSchedule& schedule) {
  return ChaosRunner(engine, schedule).Run();
}

// ------------------------------------------------------------- Index chaos

namespace {

/// One Put/Get/Delete/Scan surface over RACE and the B+-trees, so the
/// index runner has one op path and one audit. Get returns values in
/// decimal, the form RACE stores; only the trees answer Scan.
class ChaosIndex {
 public:
  using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;
  ChaosIndex() = default;
  ChaosIndex(const ChaosIndex&) = delete;
  ChaosIndex& operator=(const ChaosIndex&) = delete;
  virtual ~ChaosIndex() = default;
  virtual const char* name() const = 0;  // prefixes read-mismatch reports
  virtual Status Put(NetContext* ctx, uint64_t key, uint64_t value) = 0;
  virtual Result<std::string> Get(NetContext* ctx, uint64_t key) = 0;
  virtual Status Delete(NetContext* ctx, uint64_t key) = 0;
  virtual Result<Pairs> Scan(NetContext*, uint64_t, size_t) {
    return Status::NotSupported("no ordered scan");
  }
};

class RaceChaosIndex : public ChaosIndex {
 public:
  RaceChaosIndex(Fabric* fabric, MemoryNode* pool, RaceHash::TableRef table)
      : race_(fabric, pool, table) {}
  const char* name() const override { return "race"; }
  Status Put(NetContext* ctx, uint64_t key, uint64_t value) override {
    return race_.Put(ctx, Key(key), std::to_string(value));
  }
  Result<std::string> Get(NetContext* ctx, uint64_t key) override {
    return race_.Get(ctx, Key(key));
  }
  Status Delete(NetContext* ctx, uint64_t key) override {
    return race_.Delete(ctx, Key(key));
  }

 private:
  static std::string Key(uint64_t key) { return "k" + std::to_string(key); }
  RaceHash race_;
};

class BTreeChaosIndex : public ChaosIndex {
 public:
  BTreeChaosIndex(Fabric* fabric, MemoryNode* pool, RemoteBTree::TreeRef tree,
                  RemoteBTree::Options options)
      : tree_(fabric, pool, tree, std::move(options)) {}
  RemoteBTree* tree() { return &tree_; }
  const char* name() const override { return "btree"; }
  Status Put(NetContext* ctx, uint64_t key, uint64_t value) override {
    return tree_.Put(ctx, key, value);
  }
  Result<std::string> Get(NetContext* ctx, uint64_t key) override {
    DISAGG_ASSIGN_OR_RETURN(uint64_t value, tree_.Get(ctx, key));
    return std::to_string(value);
  }
  Status Delete(NetContext* ctx, uint64_t key) override {
    return tree_.Delete(ctx, key);
  }
  Result<Pairs> Scan(NetContext* ctx, uint64_t from, size_t limit) override {
    return tree_.Scan(ctx, from, limit);
  }

 private:
  RemoteBTree tree_;
};

/// Advances the membership clock to the op's issue instant before each
/// (re)attempt. Heartbeats issued by the advance re-enter the interceptor
/// chain; AdvanceTo's re-entrancy guard makes the nested pump a no-op.
class MembershipPump : public FabricInterceptor {
 public:
  explicit MembershipPump(MembershipService* member) : member_(member) {}
  const char* name() const override { return "membership-pump"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    member_->AdvanceTo(ctx->sim_ns);
    return next(op, ctx);
  }

 private:
  MembershipService* member_;
};

}  // namespace

const std::vector<std::string>& ChaosIndexKinds() {
  static const std::vector<std::string> kKinds = {
      "race", "sherman", "lockcouple", "offload", "offload-detector",
  };
  return kKinds;
}

ChaosReport RunIndexChaos(const std::string& kind, uint64_t seed) {
  const ChaosSchedule schedule = ChaosSchedule::FromSeed(seed);
  ChaosReport report;
  report.engine = "index-" + kind;
  report.seed = seed;
  const std::vector<std::string>& kinds = ChaosIndexKinds();
  if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
    report.violations.push_back("unknown index kind " + kind);
    return report;
  }

  Fabric fabric;
  MemoryNode pool(&fabric, "chaos-mem", 64 << 20);
  NetContext setup;

  constexpr uint64_t kKeySpace = 48;
  const bool is_detector = kind == "offload-detector";
  std::unique_ptr<ChaosIndex> index;
  std::unique_ptr<MemNodeExecutor> exec;
  Status created;
  if (kind == "race") {
    auto table = RaceHash::Create(&setup, &fabric, &pool, 256);
    created = table.status();
    if (table.ok()) {
      index = std::make_unique<RaceChaosIndex>(&fabric, &pool, *table);
    }
  } else {
    auto tree = RemoteBTree::Create(&setup, &fabric, &pool);
    created = tree.status();
    if (tree.ok()) {
      auto btree = std::make_unique<BTreeChaosIndex>(
          &fabric, &pool, *tree,
          kind == "lockcouple" ? RemoteBTree::Options::LockCoupling()
                               : RemoteBTree::Options::Sherman());
      if (kind == "offload" || is_detector) {
        // Near-data mode: every op becomes one exec.idx.* RPC. Dropped
        // replies retry at-least-once through the same budget — the ops
        // are idempotent, so the exact model still binds.
        exec = std::make_unique<MemNodeExecutor>(&fabric, &pool);
        btree->tree()->EnableOffload(pool.node(), exec->RegisterTree(*tree));
      }
      index = std::move(btree);
    }
  }
  if (!created.ok()) {
    report.violations.push_back("create failed: " + created.ToString());
    return report;
  }

  // Multi-step index ops have no rollback path, so give-ups would leave the
  // structure half-mutated; a deep retry budget makes them (deterministic-
  // seed-verifiably) rare, and the audit gate below catches the rest.
  RigOptions rig;
  rig.retry_attempts = 16;

  // Detector mode: crash points only KILL the executor; recovery is owned
  // by a membership service watching the pool node. Virtual time between
  // barrier steps is pumped from inside the retry loop (the rig's inner
  // interceptor), so a workload op that arrives during the outage survives
  // on its retry budget until detection + repair revive the node —
  // recovery is detector-driven, not scripted.
  std::unique_ptr<MembershipService> member;
  if (is_detector) {
    MembershipOptions mo;
    mo.heartbeat_period_ns = 8'000;
    mo.suspicion_threshold = 2.0;
    mo.repair_delay_ns = 8'000;
    mo.rejoin_probes = 2;
    member = std::make_unique<MembershipService>(&fabric, mo);
    member->Monitor(pool.node());
    member->OnRepair(pool.node(), [&exec] { exec->Recover(); });
    rig.inner = std::make_shared<MembershipPump>(member.get());
  }
  ChaosLoop loop(&fabric, schedule, &report, std::move(rig));

  // Drains membership events into the trace as 'M' records (a = event
  // kind, b = lease epoch, stamped with the detector's clock) so detector
  // decisions are replay-checked.
  size_t next_event = 0;
  auto drain_events = [&](int op_index) {
    if (member == nullptr) return;
    const std::vector<MembershipService::Event>& events = member->events();
    for (; next_event < events.size(); next_event++) {
      const MembershipService::Event& e = events[next_event];
      report.trace.push_back({op_index, 'M',
                              static_cast<uint64_t>(e.kind), e.lease_epoch,
                              0, e.at_ns});
    }
  };

  std::map<uint64_t, uint64_t> model;
  Random rng(seed * 0x2545F4914F6CDD1Dull + 1);
  // Only the executor crashes; the one-sided indexes live in the pool.
  loop.Run(
      schedule.num_ops,
      exec != nullptr ? schedule.crash_points : std::vector<int>{},
      [&](int i) {
        // Executor crash interlude at an op boundary: the service dies and
        // its lock table would be lost, but the pool region — the tree
        // bytes — survives, so traversal resumes against intact data. In
        // scripted mode recovery is immediate; in detector mode the node
        // stays dead until the membership service revokes its lease and
        // the orchestrator's repair hook revives it.
        exec->Crash();
        if (!is_detector) exec->Recover();
        report.crashes++;
        loop.Record(i, 'C', 0, 0, 0);
      },
      [&](int i) {
        drain_events(i);
        NetContext* ctx = loop.ctx();
        const uint64_t k = rng.Uniform(kKeySpace);
        const uint64_t v = static_cast<uint64_t>(i) + 1;
        const double dice = rng.NextDouble();
        if (dice < 0.5) {
          const Status st = index->Put(ctx, k, v);
          if (st.ok()) model[k] = v;
          return StatusOp('P', k, st);
        }
        if (dice < 0.8) {
          auto r = index->Get(ctx, k);
          auto it = model.find(k);
          if (r.ok() && it != model.end() &&
              *r != std::to_string(it->second)) {
            report.violations.push_back(std::string(index->name()) +
                                        " read mismatch on key " +
                                        std::to_string(k));
          }
          if (r.status().IsNotFound() && it != model.end()) {
            report.violations.push_back("inserted key " + std::to_string(k) +
                                        " reads as absent");
          }
          return StatusOp('R', k, r.status());
        }
        const Status st = index->Delete(ctx, k);
        if (st.ok() || st.IsNotFound()) model.erase(k);
        return StatusOp('D', k, st);
      });

  if (member != nullptr) {
    // Let any in-flight detection/repair run to completion in virtual time
    // (a kill near the end of the stream must still be recovered before
    // the oracle audits against a live node), then flush the event tail.
    member->AdvanceTo(loop.ctx()->sim_ns +
                      64 * member->options().heartbeat_period_ns);
    drain_events(schedule.num_ops);
  }
  loop.Finish();

  if (loop.AnyOpFailed()) {
    // A failed op may have half-applied; the exact model no longer binds.
    report.notes.push_back("retry budget exhausted; key-set check skipped");
    report.violations.clear();
    return report;
  }

  // Oracle audit: the surviving key set must match the model exactly —
  // every key present with its value, every other key absent (no ghosts).
  NetContext octx;
  for (uint64_t k = 0; k < kKeySpace; k++) {
    auto it = model.find(k);
    auto r = index->Get(&octx, k);
    if (it != model.end()) {
      if (!r.ok() || *r != std::to_string(it->second)) {
        report.violations.push_back("final: key " + std::to_string(k) +
                                    " wrong or missing");
      }
    } else if (!r.status().IsNotFound()) {
      report.violations.push_back("final: ghost key " + std::to_string(k));
    }
  }
  auto scan = index->Scan(&octx, 0, kKeySpace + 16);
  if (scan.ok() && *scan != ChaosIndex::Pairs(model.begin(), model.end())) {
    report.violations.push_back(
        "final scan does not match the model key set (ghost or lost "
        "entries)");
  } else if (!scan.ok() && !scan.status().IsNotSupported()) {
    report.violations.push_back("final scan failed: " +
                                scan.status().ToString());
  }
  return report;
}

// -------------------------------------------------------------- Lock chaos

ChaosReport RunLockChaos(uint64_t seed) {
  const ChaosSchedule schedule = ChaosSchedule::FromSeed(seed);
  ChaosReport report;
  report.engine = "lock-offload";
  report.seed = seed;

  Fabric fabric;
  MemoryNode pool(&fabric, "chaos-lock-pool", 1 << 20);
  MemNodeExecutor exec(&fabric, &pool);
  OffloadedLockClient locks(&fabric, pool.node());
  // No retry interceptor: a client whose request failed releases its locks
  // and restarts, so the fault layer's failures reach the lock protocol.
  ChaosLoop loop(&fabric, schedule, &report, RigOptions{});

  // K clients, each looping acquire(key1) -> acquire(key2) -> release, over
  // a small key space with randomized key order — cyclic contention arises
  // constantly, which is exactly what WOUND_WAIT must survive. The seeded
  // rng drives both the scheduler (which client acts) and the key picks, so
  // the whole interleaving replays from the seed.
  constexpr int kClients = 4;
  constexpr uint64_t kLockKeys = 6;
  constexpr int kSteps = 400;
  // Liveness bound: WOUND_WAIT guarantees the oldest live txn is never
  // wounded and its holders are either wounded or eventually scheduled to
  // release, so a window this long with zero grants or releases is a wedge.
  constexpr int kMaxStepsWithoutProgress = 200;

  struct Client {
    TxnId txn = 0;
    int step = 0;  // 0 = acquire first key, 1 = acquire second, 2 = release
    uint64_t keys[2] = {0, 0};
  };
  Client clients[kClients];
  TxnId next_txn = 1;
  Random rng(seed * 0x9E3779B97F4A7C15ull + 7);

  auto fresh_txn = [&](Client* c) {
    c->txn = next_txn++;
    c->step = 0;
    c->keys[0] = rng.Uniform(kLockKeys);
    do {
      c->keys[1] = rng.Uniform(kLockKeys);
    } while (c->keys[1] == c->keys[0]);
  };
  for (auto& c : clients) fresh_txn(&c);

  // The schedule's crash points, scaled from its op count to the steps.
  std::vector<int> crash_steps;
  for (int point : schedule.crash_points) {
    crash_steps.push_back(point * kSteps / schedule.num_ops);
  }
  bool down = false;
  int steps_without_progress = 0;
  loop.Run(
      kSteps, crash_steps,
      [&](int) {
        // Arm a crash at the START of the next handler invocation: the next
        // lock request reaches the node and the node dies holding it — a
        // crash mid-lock-handoff, with no reply and no partial mutation.
        exec.ScheduleCrashAfter(1);
      },
      [&](int i) {
        if (down) {
          // The executor crashed mid-handoff last step; bring it back
          // before anyone acts (bounded outage keeps the liveness check
          // sharp).
          exec.Recover();
          down = false;
          steps_without_progress = 0;
          loop.Record(i, 'C', 0, 0, 0);
        }
        NetContext* ctx = loop.ctx();
        Client& c = clients[rng.Uniform(kClients)];
        Status st;
        char kindc;
        uint64_t key = 0;
        if (c.step < 2) {
          kindc = 'L';
          key = c.keys[c.step];
          st = locks.AcquireLock(ctx, c.txn, key, LockMode::kExclusive);
          if (st.ok()) {
            c.step++;
            if (c.step == 2) report.commits++;  // both keys held: "commits"
            steps_without_progress = 0;
          } else if (st.IsBusy()) {
            report.busy++;  // wound-wait "wait": retry when next scheduled
            steps_without_progress++;
          } else if (st.IsAborted()) {
            // Wounded or fenced: abort — release and restart younger.
            locks.ReleaseAllLocks(ctx, c.txn);
            report.aborts++;
            fresh_txn(&c);
            steps_without_progress = 0;
          } else {
            // Fault-layer failure (drop, crash): outcome unknown — release
            // conservatively (a failed release queues for piggybacking)
            // and restart.
            if (st.IsUnavailable()) down = true;
            locks.ReleaseAllLocks(ctx, c.txn);
            fresh_txn(&c);
            steps_without_progress++;
          }
        } else {
          kindc = 'U';
          key = c.txn;  // trace the txn being released
          locks.ReleaseAllLocks(ctx, c.txn);
          fresh_txn(&c);
          st = Status::OK();
          steps_without_progress = 0;
        }
        if (steps_without_progress > kMaxStepsWithoutProgress) {
          report.violations.push_back(
              "lock wedge: no grant or release in " +
              std::to_string(kMaxStepsWithoutProgress) + " scheduler steps");
          loop.Stop();
        }
        // The release-and-restart above resolved a failed request, so no
        // lock op is left with an unknown outcome.
        return StepOp{kindc, key, c.txn, static_cast<uint8_t>(st.code())};
      });
  loop.Finish();
  report.crashes = exec.stats().crashes;

  // Oracle audit (faults off, executor up): after every client releases,
  // a fresh transaction must be able to acquire every key — no key may stay
  // wedged behind a dead client or a pre-crash grant — and the lock table
  // must drain to empty.
  exec.ScheduleCrashAfter(0);  // disarm any crash point the loop never hit
  if (down) exec.Recover();
  NetContext octx;
  for (auto& c : clients) locks.ReleaseAllLocks(&octx, c.txn);
  const TxnId audit_txn = next_txn++;
  for (uint64_t k = 0; k < kLockKeys; k++) {
    Status st = locks.AcquireLock(&octx, audit_txn, k, LockMode::kExclusive);
    if (!st.ok()) {
      report.violations.push_back("final: key " + std::to_string(k) +
                                  " wedged: " + st.ToString());
    }
  }
  locks.ReleaseAllLocks(&octx, audit_txn);
  if (exec.active_locks() != 0) {
    report.violations.push_back(
        "final: lock table not empty after releasing every txn");
  }
  if (locks.pending_releases() != 0) {
    report.violations.push_back(
        "final: pending piggyback releases survived a successful request");
  }
  return report;
}

}  // namespace sim
}  // namespace disagg
