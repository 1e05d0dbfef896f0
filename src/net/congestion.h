#ifndef DISAGG_NET_CONGESTION_H_
#define DISAGG_NET_CONGESTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace disagg {

struct PartitionEffects;  // src/net/partition.h

using NodeId = uint32_t;  // mirrors fabric.h (kept header-independent)

/// Service capacity of one shared resource (a node's NIC/link). An op moving
/// `b` bytes occupies the resource for
///   ns_per_op + b * ns_per_byte
/// simulated nanoseconds. Both terms default to 0 = "this dimension is
/// unconstrained"; a resource with both at 0 never queues.
///
/// This is deliberately the same shape as `InterconnectModel`'s cost terms,
/// but it models *occupancy of a shared pipe*, not the latency one client
/// observes: a NIC can have 2.5 us of one-sided READ latency while issuing a
/// new message every 100 ns. Under-load latency comes from the interconnect
/// model; the knee and the plateau come from this capacity.
struct ResourceCapacity {
  uint64_t ns_per_op = 0;   ///< issue overhead per op (1e9/x = ops/sec cap)
  double ns_per_byte = 0.0; ///< inverse service bandwidth

  /// Admission control: an op that would have to wait more than this behind
  /// the resource's backlog is rejected up front with `Status::Busy` instead
  /// of being charged unbounded queueing delay (the throttling real
  /// disaggregated stores apply at the NIC/service tier). 0 = unbounded
  /// queue, every op is eventually served. Tenants may carry a tighter or
  /// looser bound via `TenantControl::max_backlog_ns`.
  uint64_t max_backlog_ns = 0;

  uint64_t ServiceNs(uint64_t bytes) const {
    return ns_per_op +
           static_cast<uint64_t>(ns_per_byte * static_cast<double>(bytes));
  }
  bool unlimited() const { return ns_per_op == 0 && ns_per_byte == 0.0; }

  /// Capacity in ops/sec for `bytes`-sized ops (0 = unbounded).
  double OpsPerSec(uint64_t bytes) const {
    const uint64_t s = ServiceNs(bytes);
    return s == 0 ? 0.0 : 1e9 / static_cast<double>(s);
  }
};

/// Queueing discipline applied at every constrained resource.
enum class QueueDiscipline : uint8_t {
  /// FIFO by arrival, or start-time fair queueing keyed by
  /// `NetContext::tenant` when `tenant_weights` is non-empty (the historical
  /// behavior; bit-parity with pre-discipline builds is pinned by tests).
  kTenantFair = 0,
  /// Earliest-deadline-first over `FabricOp::deadline_ns`: pending work is
  /// served in absolute-deadline order in a fluid model. Ops without a
  /// deadline are assigned `arrival + CongestionConfig::kEdfDefaultSlackNs`,
  /// which both ranks them against real deadlines and bounds their wait
  /// (work arriving later with deadlines beyond that horizon queues behind
  /// them — EDF here cannot starve deadline-less traffic). Tenant weights
  /// are ignored in this mode; per-tenant admission bounds still apply.
  kEdf = 1,
};

/// Per-tenant scheduling controls, updatable at run time (the SLO
/// controller's actuators). A tenant absent from the table gets weight 1.0
/// and the resource's own admission bound.
struct TenantControl {
  double weight = 1.0;          ///< SFQ share (ignored under EDF)
  uint64_t max_backlog_ns = 0;  ///< 0 = inherit the resource's bound
};

/// Which resources exist and how big they are. Congestion is strictly
/// opt-in: a fabric without a config (or with an all-unlimited one) charges
/// nothing and keeps every counter bit-identical to the uncontended model.
struct CongestionConfig {
  /// Applied to any node without an explicit `node_caps` entry.
  ResourceCapacity default_node;

  /// Per-node overrides (e.g. a memory pool's NIC budget, Farview-style).
  std::map<NodeId, ResourceCapacity> node_caps;

  /// Per-tenant weights for start-time fair queueing (SFQ). Empty (the
  /// default) keeps the strict FIFO-by-arrival discipline and bit-identical
  /// counters; any entry switches every constrained resource to weighted
  /// fair queueing keyed by `NetContext::tenant`. Tenants absent from the
  /// map get weight 1.0. These are only the *initial* weights: the live
  /// table is a `TenantControl` snapshot that
  /// `CongestionState::UpdateTenantControls` can republish at run time.
  std::map<uint32_t, double> tenant_weights;

  /// Queueing discipline at constrained resources (see QueueDiscipline).
  QueueDiscipline discipline = QueueDiscipline::kTenantFair;

  /// EDF only: the slack granted to deadline-less ops (their effective
  /// deadline is `arrival + kEdfDefaultSlackNs`).
  static constexpr uint64_t kEdfDefaultSlackNs = 1'000'000;

  /// Sim time charged to an op rejected by admission control (the cost of
  /// learning "no": one NACKed round trip / doorbell, not a full service).
  static constexpr uint64_t kRejectionCostNs = 100;

  bool wfq_enabled() const { return !tenant_weights.empty(); }
  bool edf_enabled() const { return discipline == QueueDiscipline::kEdf; }

  double WeightFor(uint32_t tenant) const {
    auto it = tenant_weights.find(tenant);
    if (it == tenant_weights.end()) return 1.0;
    return it->second > 0.0 ? it->second : 1.0;
  }
};

/// Shared-resource congestion: a virtual-time queue per resource.
///
/// Ops arrive at the issuing client's current simulated time. In the default
/// FIFO discipline each resource keeps the virtual time at which it next
/// becomes free; an op starts service at `max(arrival, free_time)`, occupies
/// the resource for its service time, and the client is charged
/// `start - arrival` of queueing delay on top of the unchanged interconnect
/// cost model (broken out in `NetContext::queue_ns`). An uncontended op
/// (arrival >= free_time) is charged nothing, so a single client below
/// capacity — or any run with congestion disabled — keeps bit-identical
/// counters.
///
/// With `tenant_weights` configured the discipline becomes start-time fair
/// queueing over a fluid (GPS) server: each tenant owns a virtual lane that
/// drains at `w_i / W_active` of the resource's capacity, where `W_active`
/// is the weight sum of tenants with backlog at the op's arrival. An op's
/// completion is its lane's virtual finish time and the excess over its bare
/// service time is charged as queueing delay. A lone tenant's lane drains at
/// full capacity (work conservation) and reproduces the FIFO arithmetic
/// exactly; competing backlogged tenants converge to throughput shares
/// proportional to their weights.
///
/// With `discipline = kEdf` each resource keeps pending work bucketed by
/// absolute deadline and drains it earliest-deadline-first as virtual time
/// advances; an op's wait is the not-yet-drained work with deadlines at or
/// before its own.
///
/// Admission control (`ResourceCapacity::max_backlog_ns`, per-tenant
/// override via `TenantControl::max_backlog_ns`) bounds how far behind a
/// resource an op may queue: `TryAdmit` is consulted before the op
/// executes, and a rejected op is failed fast with `Status::Busy`, charged
/// only `CongestionConfig::kRejectionCostNs`. With no bound set anywhere
/// `TryAdmit` admits at once, without a link lookup.
///
/// Live reconfiguration: per-tenant weights and admission bounds live in an
/// immutable `TenantControl` table published through an atomic snapshot
/// pointer (the PR-7 config-snapshot pattern — the `std::shared_ptr` under
/// `mu_` owns, the raw atomic mirrors for lock-free per-op reads).
/// `UpdateTenantControls` swaps the whole table; in-flight ops see either
/// the old or the new table, never a torn mix. The SLO controller publishes
/// only at epoch barriers, so under the parallel driver every partition in
/// an epoch reads the same table and determinism is preserved.
///
/// Determinism: admission order is the order of `Admit()` calls. The
/// `sim::LoadDriver` schedules clients in global virtual-time order, which
/// makes arrivals non-decreasing; the whole run is then a pure function of
/// the workload seed.
///
/// Under a multi-partition run (DESIGN.md "Parallel simulation") a
/// thread-local `PartitionEffects` is installed while a partition executes
/// an epoch; `TryAdmit`/`Admit` then route to that partition's `Shard` — a
/// mutex-free copy-on-first-touch view of this state — and the driver
/// replays every shard's admission log into the authoritative state at the
/// epoch barrier, in partition order, via `MergeShard`.
///
/// Threading: the authoritative links have one writer at a time — the
/// single-partition driver thread, setup code, or the epoch barrier — so
/// `TryAdmit`/`Admit` without a shard and `MergeShard` take no lock.
/// Admitting from several raw threads at once on a congested fabric is
/// unsupported. `mu_` guards only what other threads can reach: a shard's
/// copy-on-first-touch (which may create an authoritative link), the
/// control-table swap and the stats readers.
class CongestionState {
 public:
  explicit CongestionState(CongestionConfig config);

  /// Admission control check for an op from `tenant` arriving at
  /// `arrival_ns`, BEFORE it executes (its byte count may not be known yet;
  /// the backlog an op waits behind is independent of its own size).
  /// `deadline_ns` is the op's absolute deadline (0 = none; used only by the
  /// EDF discipline to rank the op). Returns false — and bumps the link's
  /// `rejections` counter — when the estimated wait at the node's link
  /// exceeds the tenant's effective backlog bound. Always true for
  /// unbounded resources.
  bool TryAdmit(NodeId node, uint32_t tenant, uint64_t arrival_ns,
                uint64_t deadline_ns = 0);

  /// Admits one op moving `bytes` bytes to/from `node`, arriving at the
  /// client's virtual time `arrival_ns` with absolute deadline `deadline_ns`
  /// (0 = none). Returns the queueing delay to charge the client; advances
  /// the busy window of the node's link.
  uint64_t Admit(NodeId node, uint32_t tenant, uint64_t arrival_ns,
                 uint64_t bytes, uint64_t deadline_ns = 0);

  /// Atomically publishes a new per-tenant control table (weights +
  /// admission bounds). Tenants absent from `controls` fall back to weight
  /// 1.0 and the resource's own bound. Intended to be called from epoch
  /// barriers / setup code; per-op readers are lock-free and see either the
  /// previous or the new table in full.
  void UpdateTenantControls(const std::map<uint32_t, TenantControl>& controls);

  /// The control currently in force for `tenant` (weight + bound override).
  TenantControl ControlFor(uint32_t tenant) const;

  /// Accumulated accounting for one resource.
  struct ResourceStats {
    uint64_t ops = 0;         ///< ops serviced
    uint64_t bytes = 0;       ///< bytes serviced
    uint64_t busy_ns = 0;     ///< total service time (sum over ops)
    uint64_t queue_ns = 0;    ///< total queueing delay imposed on clients
    uint64_t free_ns = 0;     ///< virtual time the resource next idles
    uint64_t rejections = 0;  ///< ops refused by admission control
  };

  ResourceStats NodeStats(NodeId node) const;

  /// Per-tenant ops/bytes serviced at one node's link (empty map until the
  /// first op; all traffic is tenant 0 unless clients set
  /// `NetContext::tenant`).
  std::map<uint32_t, uint64_t> NodeTenantOps(NodeId node) const;

  /// Total queueing delay handed out across all resources.
  uint64_t total_queue_ns() const;

  /// Total admission-control rejections across all resources.
  uint64_t total_rejections() const;

  /// Clears all busy windows and stats (capacities and tenant controls are
  /// kept).
  void Reset();

  const CongestionConfig& config() const { return config_; }

  class Shard;

  /// Replays one partition's epoch of admissions into the authoritative
  /// state and clears the shard for the next epoch. The log is replayed in
  /// the shard's own execution order, and the driver merges partitions in
  /// partition-id order — a total order that is a pure function of the
  /// simulation config. The load driver shards only runs with several
  /// partitions: ops replay on top of sibling partitions' backlog, so
  /// authoritative ops/bytes/busy_ns are
  /// conserved exactly while free_ns/queue_ns reflect the merged order.
  void MergeShard(Shard* shard);

 private:
  /// The immutable per-tenant control table. Rebuilt wholesale by
  /// `UpdateTenantControls`; readers grab one pointer and use it for the
  /// whole op.
  struct ControlTable {
    bool sfq = false;  ///< SFQ discipline active (frozen from the config)
    /// Some admission bound is set, by a resource in the config or by a
    /// tenant in this table. Without one no op is ever refused.
    bool bounded = false;
    std::map<uint32_t, TenantControl> tenants;

    double WeightFor(uint32_t tenant) const {
      auto it = tenants.find(tenant);
      if (it == tenants.end()) return 1.0;
      return it->second.weight > 0.0 ? it->second.weight : 1.0;
    }
    /// Effective admission bound: the tenant's override when set, else the
    /// resource's own bound. 0 = unbounded.
    uint64_t BoundFor(uint32_t tenant, uint64_t resource_bound_ns) const {
      auto it = tenants.find(tenant);
      if (it == tenants.end() || it->second.max_backlog_ns == 0) {
        return resource_bound_ns;
      }
      return it->second.max_backlog_ns;
    }
  };

  /// A tenant's lane at one resource (SFQ mode only).
  struct Lane {
    uint64_t free_ns = 0;    ///< lane's virtual finish time
    uint64_t ops = 0;        ///< ops serviced for this tenant
  };

  /// Pending work bucketed by absolute deadline (EDF mode only). The map is
  /// the not-yet-drained fluid backlog as of `drained_to`; admission drains
  /// elapsed virtual time from the earliest buckets before ranking the new
  /// op.
  struct EdfQueue {
    uint64_t drained_to = 0;
    std::map<uint64_t, uint64_t> pending;  // deadline -> remaining service ns
  };

  struct Resource {
    ResourceCapacity cap;
    ResourceStats stats;
    std::map<uint32_t, Lane> lanes;  // SFQ mode: tenant -> lane
    EdfQueue edf;                    // EDF mode
  };

  /// Links indexed by NodeId, which the fabric numbers densely from 1 (it
  /// sends no op for a node it does not have). A slot stays empty until its
  /// node's first op.
  using Links = std::vector<std::optional<Resource>>;

  /// Starts service for one op on `r` at `>= t` under strict FIFO; returns
  /// the service start time (== t when the resource is idle).
  static uint64_t AdmitOneFifo(Resource* r, uint64_t t, uint64_t bytes);

  /// SFQ mode: serves one op from `tenant`'s lane; returns the op's fluid
  /// completion time (>= t + service; the excess is the queueing delay).
  uint64_t AdmitOneSfq(const ControlTable& ct, Resource* r, uint32_t tenant,
                       uint64_t t, uint64_t bytes) const;

  /// EDF mode: drains elapsed work deadline-first, queues the op behind
  /// pending work with deadlines <= its own, returns its service start.
  static uint64_t AdmitOneEdf(Resource* r, uint64_t t, uint64_t bytes,
                              uint64_t eff_deadline_ns);

  /// The wait an op from `tenant` arriving at `t` would be charged before
  /// its service begins (0 for unlimited resources).
  uint64_t BacklogAt(const ControlTable& ct, const Resource& r,
                     uint32_t tenant, uint64_t t,
                     uint64_t eff_deadline_ns) const;

  /// The full admission arithmetic on a caller-supplied link, returning
  /// the queueing delay. Single-sourced so the authoritative path,
  /// partition shards, and barrier replay are bit-identical.
  uint64_t AdmitOn(const ControlTable& ct, Resource* link, uint32_t tenant,
                   uint64_t arrival_ns, uint64_t bytes,
                   uint64_t deadline_ns) const;

  /// True when `link` would admit the op. Pure check; on false the caller
  /// bumps the link's rejection counter.
  bool TryAdmitOn(const ControlTable& ct, const Resource& link,
                  uint32_t tenant, uint64_t arrival_ns,
                  uint64_t deadline_ns) const;

  /// The effective deadline EDF ranks an op by (deadline-less ops get
  /// `arrival + kEdfDefaultSlackNs`).
  static uint64_t EffectiveDeadline(uint64_t arrival_ns,
                                    uint64_t deadline_ns) {
    return deadline_ns != 0
               ? deadline_ns
               : arrival_ns + CongestionConfig::kEdfDefaultSlackNs;
  }

  /// Lock-free load of the current control table (valid for the lifetime of
  /// the reading op: retired tables are kept alive; see controls_retired_).
  const ControlTable& controls() const {
    return *controls_snapshot_.load(std::memory_order_acquire);
  }

  Resource* ResourceFor(NodeId node);          // lazily created
  const Resource* FindResource(NodeId node) const;

  /// Whether some resource in the config carries an admission bound.
  bool ConfigBounded() const;

  const CongestionConfig config_;
  // Guards shard copy-on-first-touch, the control-table swap and the stats
  // readers; the single-writer admission path runs without it.
  mutable std::mutex mu_;
  Links nodes_;  // lazily created on first op

  // Tenant-control snapshot: shared_ptr (under mu_) owns, raw atomic
  // mirrors for the per-op hot path. Old tables are parked in
  // controls_retired_ rather than freed so a reader that loaded the pointer
  // just before a swap finishes its op safely; the handful of controller
  // epochs per run makes the retired list tiny.
  std::shared_ptr<const ControlTable> controls_current_;
  std::vector<std::shared_ptr<const ControlTable>> controls_retired_;
  std::atomic<const ControlTable*> controls_snapshot_{nullptr};
};

/// Partition-local view of one `CongestionState` for the epoch-parallel
/// driver: resources are copied from the authoritative state on first touch
/// each epoch (mutex-free afterwards), admissions evolve the copies with
/// the exact authoritative arithmetic, and every decision is logged for the
/// barrier replay (`CongestionState::MergeShard`). Owned by a
/// `PartitionEffects` (src/net/partition.h); never shared across threads.
class CongestionState::Shard {
 public:
  explicit Shard(CongestionState* owner) : owner_(owner) {}

  /// Mirror of `CongestionState::TryAdmit` against this partition's view.
  bool TryAdmit(NodeId node, uint32_t tenant, uint64_t arrival_ns,
                uint64_t deadline_ns);

  /// Mirror of `CongestionState::Admit` against this partition's view.
  uint64_t Admit(NodeId node, uint32_t tenant, uint64_t arrival_ns,
                 uint64_t bytes, uint64_t deadline_ns);

  CongestionState* owner() const { return owner_; }
  size_t pending_events() const { return log_.size(); }

 private:
  friend class CongestionState;

  struct Event {
    enum Kind : uint8_t { kAdmit, kReject };
    Kind kind = kAdmit;
    NodeId node = 0;
    uint32_t tenant = 0;
    uint64_t arrival_ns = 0;
    uint64_t bytes = 0;
    uint64_t deadline_ns = 0;
  };

  Resource* LocalFor(NodeId node);  // copy-on-first-touch from the owner

  CongestionState* const owner_;
  Links nodes_;
  std::vector<Event> log_;
};

}  // namespace disagg

#endif  // DISAGG_NET_CONGESTION_H_
