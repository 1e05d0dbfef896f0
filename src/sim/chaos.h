#ifndef DISAGG_SIM_CHAOS_H_
#define DISAGG_SIM_CHAOS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/row_engine.h"
#include "net/interceptors.h"

namespace disagg {
namespace sim {

/// One deterministic chaos schedule: fault probabilities, node-flap windows
/// and crash points, every field a pure function of a single uint64 seed.
/// Replaying the same seed against the same binary reproduces the identical
/// op trace bit for bit (`scripts/chaos_replay.sh <seed>`).
struct ChaosSchedule {
  uint64_t seed = 1;

  // Fed into FaultPolicy.
  double drop_prob = 0.0;
  double spike_prob = 0.0;
  uint64_t spike_ns = 10000;

  /// Workload length and the op indices at which the compute node crashes
  /// and runs its architecture-appropriate recovery.
  int num_ops = 160;
  std::vector<int> crash_points;  // strictly increasing, < num_ops

  /// Flap windows in fault-sequence space; the target node is chosen per
  /// engine from `ChaosAdapter::FlappableNodes()` (window i -> node i % K).
  struct FlapWindow {
    uint64_t from_seq = 0;
    uint64_t until_seq = 0;
  };
  std::vector<FlapWindow> flap_windows;

  int retry_attempts = 12;

  /// Op indices at which a shared-log engine suffers a log-node crash plus
  /// seal/reconfigure (and a rejoin reconfigure once the node revives) —
  /// two epoch bumps per point. Ignored by engines without a shared log,
  /// and drawn from a generator salted separately from every other field,
  /// so legacy schedules replay bit-identically.
  std::vector<int> log_reconfig_points;  // strictly increasing, < num_ops

  /// Optional overload layer, off by default (zero / disabled keeps every
  /// run bit-identical to the pre-overload harness). When `max_backlog_ns`
  /// is nonzero, the faulted workload phases run with per-node admission
  /// control enabled (`ResourceCapacity{overload_ns_per_op, 0,
  /// max_backlog_ns}`), so ops can fail fast with `Busy` on top of the
  /// fault schedule's drops and flaps. Oracle interludes (crash audits)
  /// always run with congestion disabled.
  uint64_t max_backlog_ns = 0;
  uint64_t overload_ns_per_op = 0;

  /// Read-path degrade ladder installed on RowEngine architectures during
  /// the faulted phases; oracle audits always read strictly. Degraded
  /// reads are exempted from the membership check (any older committed
  /// value may legitimately surface) but their per-op staleness must stay
  /// within the policy bound, which the runner asserts.
  DegradePolicy degrade;

  /// Derives every field from `seed` alone.
  static ChaosSchedule FromSeed(uint64_t seed);

  std::string Describe() const;
};

/// Model of what a correct engine may return per key. A commit that failed
/// AFTER its durability attempt is "uncertain": the WAL batch may or may not
/// have landed (and, because failed batches are re-buffered, may land on a
/// LATER successful flush), so the key is allowed to read as any of its
/// uncertain outcomes or the last certain one — but never anything else.
class KvModel {
 public:
  struct Entry {
    std::optional<std::string> committed;  // nullopt = definitely absent
    /// Uncertain outcomes, oldest first (durable log prefixes resolve them
    /// monotonically, so membership in the set is the sound check).
    std::vector<std::optional<std::string>> maybe;
    /// `maybe[0, promotable_from)` predate the last crash: never promoted.
    size_t promotable_from = 0;
    bool poisoned = false;  // possibly non-atomic outcome: key exempted
  };

  /// Definite committed state (setup writes, successful commits).
  void Commit(uint64_t key, std::optional<std::string> value);
  /// Commit whose durability is unknown (error after the flush attempt).
  void MaybeCommit(uint64_t key, std::optional<std::string> value);
  /// Exempts the key from checking (possibly non-atomic partial outcome).
  void Poison(uint64_t key);
  /// A later group-commit flush on the same WAL succeeded, which lands every
  /// re-buffered batch: each uncertain outcome recorded since the last
  /// `Crash()` became durable.
  void PromoteAllUncertain();
  /// The compute node crashed and lost its unflushed WAL tail, so no later
  /// flush lands the uncertain outcomes recorded so far. They stay
  /// possible (a partly replicated batch may still surface) but are never
  /// promoted.
  void Crash();

  /// Validates one observed read (`st` is OK or NotFound). Returns "" if the
  /// observation is explainable, else a violation description.
  std::string CheckRead(uint64_t key, const Status& st,
                        const std::string& value) const;

  const std::map<uint64_t, Entry>& entries() const { return entries_; }
  bool AnyPoisoned() const;
  bool AnyUncertain() const;

 private:
  std::map<uint64_t, Entry> entries_;
};

/// Outcome of a multi-key transaction attempt as the workload driver saw it.
enum class TxnOutcome {
  kCommitted,       // definitely durable
  kAborted,         // definitely rolled back, no state change
  kMaybeCommitted,  // atomic, but durability unknown
  kBroken,          // rollback itself failed: outcome possibly non-atomic
};

/// Uniform chaos surface over one engine: a keyed KV op interface, the fault
/// domains the schedule may flap, and the architecture's crash+recovery
/// procedure. Every engine in `ChaosEngineNames()` sits behind this: the
/// RowEngine architectures and their variants, serverless, multi-writer and
/// FORD.
class ChaosAdapter {
 public:
  virtual ~ChaosAdapter() = default;

  /// Single-key upsert. The adapter — not the caller — classifies the
  /// outcome, because only it knows whether a failure happened before or
  /// after the durability point (a pre-commit failure is cleanly rolled
  /// back; a commit-path failure may still land on a later flush). `status`
  /// receives the raw engine status for the trace.
  virtual TxnOutcome PutKv(NetContext* ctx, uint64_t key,
                           const std::string& value, Status* status) = 0;
  virtual Result<std::string> GetKv(NetContext* ctx, uint64_t key) = 0;

  /// Atomic two-account transfer (engines with multi-key transactions).
  /// Moves min(amount, balance(from)); fills new_* with the written rows.
  virtual bool SupportsTransfers() const { return false; }
  virtual TxnOutcome Transfer(NetContext* ctx, uint64_t from, uint64_t to,
                              uint64_t amount, std::string* new_from,
                              std::string* new_to) {
    (void)ctx, (void)from, (void)to, (void)amount, (void)new_from,
        (void)new_to;
    return TxnOutcome::kAborted;
  }

  /// Non-null for RowEngine-backed adapters (enables the TPC-C driver and
  /// the committed-replay checker).
  virtual RowEngine* row_engine() { return nullptr; }

  /// Nodes the schedule may flap without making the engine unavailable by
  /// design (e.g. up to two Aurora segment replicas). Empty = no flaps.
  virtual std::vector<NodeId> FlappableNodes() const { return {}; }

  /// Crash the compute tier and recover the way this architecture would.
  /// Called in oracle mode (no interceptors installed).
  virtual Status CrashAndRecover(NetContext* ctx) = 0;

  /// Post-commit audit hook; "" = fine. The Aurora adapter checks that the
  /// flushed LSN really is on a write quorum of replicas — the checker the
  /// DISAGG_CHAOS_MUTATION build must trip. Shared-log adapters check the
  /// same invariant against the log fleet (CountDurable >= write_quorum).
  virtual std::string AuditDurability() { return std::string(); }

  /// Non-null when the engine's WAL rides a shared-log fleet; enables the
  /// runner's log-node crash + seal/reconfigure interludes.
  virtual SharedLogService* shared_log() { return nullptr; }
};

/// Names accepted by MakeChaosAdapter: the RowEngine registry names (the
/// five architectures and their "+slog" and "+offload" variants) plus
/// "serverless", "multiwriter", "ford".
const std::vector<std::string>& ChaosEngineNames();
std::unique_ptr<ChaosAdapter> MakeChaosAdapter(const std::string& name,
                                               Fabric* fabric);

/// Kinds accepted by RunIndexChaos (documented there).
const std::vector<std::string>& ChaosIndexKinds();

/// One entry of the deterministic op trace.
struct OpRecord {
  int index = 0;
  char kind = '?';  // T transfer, P put, R read, N neworder, C crash,
                    // V shared-log view change, L lock acquire, U unlock,
                    // M membership event (a = event kind, b = lease epoch)
  uint64_t a = 0;   // primary key / account
  uint64_t b = 0;   // secondary account (transfers)
  uint8_t status = 0;
  uint64_t sim_ns = 0;  // cumulative workload sim time after the op
};

std::string TraceToString(const std::vector<OpRecord>& trace);

/// Everything a run produced. `violations` empty = the engine upheld every
/// invariant under this schedule.
struct ChaosReport {
  std::string engine;
  uint64_t seed = 0;
  std::vector<OpRecord> trace;
  std::vector<std::string> violations;
  std::vector<std::string> notes;

  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t maybe_commits = 0;
  uint64_t busy = 0;
  uint64_t read_errors = 0;  // workload ops that failed on the fabric
  uint64_t tpcc_errors = 0;
  uint64_t crashes = 0;
  uint64_t log_reconfigs = 0;  // shared-log view-change interludes taken
  uint64_t replay_checked_keys = 0;
  uint64_t commits_in_flap = 0;  // commits while >=1 flap window active

  // Interceptor counters at the end of the run.
  uint64_t drops = 0;
  uint64_t spikes = 0;
  uint64_t flap_rejections = 0;
  uint64_t fault_ops_seen = 0;
  uint64_t retries = 0;
  uint64_t gave_up = 0;
  uint64_t faults_injected = 0;  // workload ctx counter

  // Overload-layer counters (zero unless the schedule enables the layer).
  uint64_t degraded_reads = 0;      // workload reads served by the ladder
  uint64_t staleness_lsn = 0;       // summed LSN staleness of those reads
  uint64_t admission_rejects = 0;   // Busy fail-fasts from admission control

  std::string Summary() const;
};

/// Runs one engine under one schedule: seeded bank-transfer + YCSB-lite
/// (+ TPC-C-lite NewOrder on RowEngine architectures) with mid-run crash
/// points, invariant checks at every crash and a full audit (membership,
/// balance conservation, committed-replay-from-log) at the end.
ChaosReport RunEngineChaos(const std::string& engine, uint64_t seed);
ChaosReport RunEngineChaos(const std::string& engine,
                           const ChaosSchedule& schedule);

/// Index chaos: seeded op stream against a remote index under the same
/// fault schedule, checked against an exact in-memory model; the final
/// audit verifies the key set (including scan ghost checks for the B+tree).
/// `kind` is "race", "sherman", "lockcouple", "offload" (the Sherman
/// tree driven through the memory-node executor — every op one `exec.idx.*`
/// RPC — with executor crash+recovery interludes at the schedule's crash
/// points; the pool region survives, so the exact-model audit still binds)
/// or "offload-detector" (same schedule, but crash points only KILL the
/// executor: recovery is driven by a `MembershipService` watching the pool
/// node — heartbeat misses accrue suspicion, the lease is revoked, and the
/// orchestrator's repair hook revives the executor, all in virtual time.
/// Membership events land in the trace as 'M' records, so detector
/// decisions are part of the bit-identical replay contract). A failed
/// workload op may have half-applied, so it skips the audit (noted).
ChaosReport RunIndexChaos(const std::string& kind, uint64_t seed);

/// Lock chaos: seeded multi-client contention against the memory-node
/// executor's WOUND_WAIT lock table under the schedule's fault layer, with
/// executor crashes mid-lock-handoff (`ScheduleCrashAfter`) at the crash
/// points. Checks liveness (no wedge: bounded scheduler steps without a
/// grant or release is a violation), wound observability (a wounded txn
/// gets Aborted, never a silent grant), and the recovery fence (after the
/// final release sweep a fresh txn can acquire every key and the executor
/// holds zero lock entries — dead clients' locks never outlive recovery).
/// The trace is a pure function of the seed, so replays are bit-identical.
ChaosReport RunLockChaos(uint64_t seed);

}  // namespace sim
}  // namespace disagg

#endif  // DISAGG_SIM_CHAOS_H_
