#ifndef DISAGG_NET_FABRIC_H_
#define DISAGG_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "net/congestion.h"
#include "net/interconnect.h"
#include "net/net_context.h"
#include "net/rpc_method.h"
#include "net/verb.h"

namespace disagg {

using NodeId = uint32_t;

/// Role of a node in the disaggregated data center (Sec. 1 of the paper:
/// compute pool, memory pool, storage pool; plus specialized pools).
enum class NodeKind : uint8_t {
  kCompute,
  kMemory,
  kStorage,
  kPm,
  kLog,
  kObject,
};

constexpr const char* NodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::kCompute:
      return "compute";
    case NodeKind::kMemory:
      return "memory";
    case NodeKind::kStorage:
      return "storage";
    case NodeKind::kPm:
      return "pm";
    case NodeKind::kLog:
      return "log";
    case NodeKind::kObject:
      return "object";
  }
  return "?";
}

/// Address of a byte range inside a registered memory region on some node.
struct RemoteAddr {
  uint32_t region = 0;
  uint64_t offset = 0;
};

/// Fully-qualified remote pointer (node + region + offset); the unit of
/// addressing for remote data structures such as the RACE hash table and the
/// Sherman B+tree.
struct GlobalAddr {
  NodeId node = 0;
  uint32_t region = 0;
  uint64_t offset = 0;

  RemoteAddr remote() const { return RemoteAddr{region, offset}; }
  bool is_null() const { return node == 0 && region == 0 && offset == 0; }
};

/// A registered memory region ("MR" in RDMA terms) hosted by a node. The
/// bytes live in process memory; one-sided verbs copy directly in and out,
/// exactly like DMA by a NIC, with no remote-CPU involvement.
///
/// The bytes start zero and are committed on first touch: `calloc` hands a
/// large request back as untouched zero pages, so a pool declared far larger
/// than a run's working set (Figure 2's memory pools) costs the host only
/// the pages the run writes.
class MemoryRegion {
 public:
  MemoryRegion(uint32_t id, std::string name, size_t size)
      : id_(id),
        name_(std::move(name)),
        size_(size),
        data_(static_cast<char*>(std::calloc(size, 1))) {
    if (data_ == nullptr && size != 0) throw std::bad_alloc();
  }
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  size_t size() const { return size_; }
  char* data() { return data_.get(); }
  const char* data() const { return data_.get(); }

  bool Contains(uint64_t offset, size_t n) const {
    return offset + n <= size_ && offset + n >= offset;
  }

 private:
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };

  uint32_t id_;
  std::string name_;
  size_t size_;
  std::unique_ptr<char, Free> data_;
};

/// Server-side context passed to RPC handlers so they can report the CPU work
/// they performed; the fabric scales it by the node's `cpu_scale` (pool-side
/// CPUs are wimpy, Sec. 1) and charges it to the caller's simulated clock.
struct RpcServerContext {
  uint64_t compute_ns = 0;
  void ChargeCompute(uint64_t ns) { compute_ns += ns; }

  /// Owner of the request bytes, as passed to `Fabric::Call` (may be null).
  const RequestOwner* request_owner = nullptr;

  /// The caller's owner when its bytes are exactly `request` (same address
  /// and size), else null. Only then may a handler rely on what the owner
  /// knows about its bytes (a redo batch's record index): a request with no
  /// owner, a foreign owner (an interceptor rewrote the request, a caller
  /// passed the wrong buffer) or a mere prefix of the owner's bytes is
  /// parsed from scratch.
  const RequestOwner* ExactOwner(Slice request) const {
    return request_owner != nullptr && request_owner->Holds(request)
               ? request_owner
               : nullptr;
  }

  /// A shared buffer holding exactly `request`'s bytes, for a handler that
  /// keeps them past the call: the exact owner's bytes (`ExactOwner`), else
  /// one new copy. Handlers validate a request before retaining it. Only
  /// the bytes are retained, never the owner itself.
  SharedBytes RetainRequest(Slice request) const {
    if (const RequestOwner* owner = ExactOwner(request)) return owner->bytes();
    return std::make_shared<const std::string>(request.data(), request.size());
  }
};

using RpcHandler =
    std::function<Status(Slice request, std::string* response,
                         RpcServerContext* server_ctx)>;

/// A node in the fabric: owns memory regions and RPC handlers. Access cost is
/// determined by the node's interconnect model (how far away it is).
class Node {
 public:
  Node(NodeId id, std::string name, NodeKind kind, uint32_t az,
       InterconnectModel model)
      : id_(id),
        name_(std::move(name)),
        kind_(kind),
        az_(az),
        model_(std::move(model)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  NodeKind kind() const { return kind_; }
  uint32_t az() const { return az_; }
  const InterconnectModel& model() const { return model_; }
  void set_model(InterconnectModel m) { model_ = std::move(m); }

  /// Pool-side CPUs are weaker than compute-pool CPUs; handler compute time
  /// is multiplied by this factor.
  double cpu_scale() const { return cpu_scale_; }
  void set_cpu_scale(double s) { cpu_scale_ = s; }

  /// Failure injection: a failed node rejects all operations with
  /// Status::Unavailable until revived.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  void Fail() { failed_.store(true, std::memory_order_release); }
  void Revive() { failed_.store(false, std::memory_order_release); }

  MemoryRegion* AddRegion(const std::string& name, size_t size);
  MemoryRegion* region(uint32_t id);

  /// Registers (or replaces) the handler for `method`. Safe while calls run
  /// on other threads: each registration publishes a new copy of the
  /// node's method table, and the calls already running keep the table and
  /// the handler they found.
  void RegisterHandler(const RpcMethod& method, RpcHandler handler);
  const RpcHandler* handler(const RpcMethod& method) const;

 private:
  friend class Fabric;  // dispatches on a FabricOp's method id

  /// One published method table: this node's methods only, sorted by id,
  /// so its size follows what the node serves, not what the process
  /// interned.
  struct HandlerEntry {
    uint32_t method_id;
    const RpcHandler* handler;
  };
  using HandlerTable = std::vector<HandlerEntry>;

  const RpcHandler* FindHandler(uint32_t method_id) const;

  NodeId id_;
  std::string name_;
  NodeKind kind_;
  uint32_t az_;
  InterconnectModel model_;
  double cpu_scale_ = 1.0;
  std::atomic<bool> failed_{false};
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  mutable std::mutex mu_;  // guards regions_ and the handler lists below
  // Every handler and every method table ever published. Neither is freed
  // before the node: a reader may still hold a pointer into either, and
  // nothing tells the node when it lets go.
  std::vector<std::unique_ptr<RpcHandler>> handlers_;
  std::vector<std::unique_ptr<const HandlerTable>> handler_tables_;
  // The current table, read lock-free on every call.
  std::atomic<const HandlerTable*> handler_table_{nullptr};
  // Published region count for the lock-free region() fast path; only the
  // slots below this count are ever dereferenced by readers.
  std::atomic<size_t> num_regions_{0};
};

struct FabricOp;
class Fabric;

/// Continuation handed to an interceptor: invokes the rest of the chain (and
/// ultimately the core executor) for an op.
using FabricOpInvoker = std::function<Status(FabricOp*, NetContext*)>;

/// Middleware around the single op-execution path. Interceptors form an
/// ordered chain: the one installed *first* is outermost — it sees the op
/// first on the way in and last on the way out. Each interceptor may observe
/// or rewrite the op, charge simulated time to the context, short-circuit
/// (fault injection), or invoke `next` multiple times (retry).
///
/// With no interceptors installed the pipeline is a straight call into the
/// core executor, and every counter a client observes is bit-identical to
/// the pre-pipeline fabric.
class FabricInterceptor {
 public:
  virtual ~FabricInterceptor() = default;

  virtual const char* name() const = 0;

  /// Processes `op`. Implementations call `next(op, ctx)` zero or more times
  /// to execute the remainder of the chain. `fabric` is provided for
  /// metadata lookups (node kind, interconnect model); interceptors must not
  /// issue new fabric verbs from inside the chain.
  virtual Status Intercept(Fabric* fabric, FabricOp* op, NetContext* ctx,
                           const FabricOpInvoker& next) = 0;
};

/// A tenant's declared latency contract, registered on the fabric with
/// `Fabric::DeclareSlo`. The fabric itself only stores the declarations;
/// the SLO controller (src/net/slo_controller.h) reads them each control
/// epoch and steers the WFQ/admission/staleness actuators toward them.
struct SloSpec {
  uint64_t p99_target_ns = 0;  ///< 0 = no latency contract (best effort)
};

/// The simulated data-center fabric: a registry of nodes plus the one-sided
/// and two-sided primitives. Data movement is real (memcpy / atomics on the
/// region bytes); time is simulated via the interconnect cost models.
///
/// Every public verb below is a thin wrapper that lowers the call into a
/// `FabricOp` and hands it to `Execute()`, the single instrumented path all
/// fabric traffic flows through.
class Fabric {
 public:
  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Creates a node reachable at the cost of `model`. `az` groups nodes into
  /// availability zones for quorum experiments.
  NodeId AddNode(const std::string& name, NodeKind kind,
                 InterconnectModel model, uint32_t az = 0);

  Node* node(NodeId id);
  size_t num_nodes() const { return nodes_.size(); }

  // ---- One-sided verbs (no remote CPU) -------------------------------

  Status Read(NetContext* ctx, GlobalAddr src, void* dst, size_t n);
  Status Write(NetContext* ctx, GlobalAddr dst, const void* src, size_t n);

  /// 8-byte atomic compare-and-swap on remote memory; returns the value
  /// observed before the swap (swap happened iff it equals `expected`).
  Result<uint64_t> CompareAndSwap(NetContext* ctx, GlobalAddr addr,
                                  uint64_t expected, uint64_t desired);
  Result<uint64_t> FetchAdd(NetContext* ctx, GlobalAddr addr, uint64_t delta);

  /// Atomic 8-byte read (used for version words / LSNs published via CAS).
  Result<uint64_t> ReadAtomic64(NetContext* ctx, GlobalAddr addr);

  /// Doorbell-batched writes to one node: pays a single base latency plus the
  /// summed byte cost (Sherman's batched in-order writes, Sec. 3.1).
  struct WriteOp {
    RemoteAddr addr;
    const void* src;
    size_t n;
  };
  Status WriteBatch(NetContext* ctx, NodeId node_id,
                    std::span<const WriteOp> ops);

  /// One member of a mixed read/write op batch (`ExecuteBatch`). Exactly one
  /// of `dst` (kRead) / `src` (kWrite) is set; `status` is an output.
  struct BatchOp {
    FabricVerb verb = FabricVerb::kRead;  ///< kRead or kWrite only
    RemoteAddr addr{};
    void* dst = nullptr;        ///< read destination
    const void* src = nullptr;  ///< write source
    size_t n = 0;
    Status status;  ///< per-member outcome, filled by ExecuteBatch
  };

  /// Executes a multi-op batch of one-sided reads/writes against one node,
  /// coalesced into ONE `kBatch` descriptor rung through the interceptor
  /// chain and congestion admission once (the doorbell win: one `ns_per_op`
  /// issue charge, one chain traversal, one round trip), charged one read
  /// base latency if any member reads and one write base latency if any
  /// writes, plus the summed byte costs. The batch is all-or-nothing: every
  /// member's bounds are validated before any data moves, and a refused
  /// batch (admission, deadline, fault) fails every member with the same
  /// status.
  Status ExecuteBatch(NetContext* ctx, NodeId node_id,
                      std::vector<BatchOp>* ops);

  // ---- Two-sided (RPC, involves remote CPU) --------------------------

  /// `request_owner`, when set, owns the request bytes and must outlive the
  /// call; a handler that keeps them takes a reference instead of a copy
  /// (`RpcServerContext::RetainRequest`), and one whose request is exactly
  /// the owner's bytes may use what the owner knows about them
  /// (`RpcServerContext::ExactOwner`). It changes no cost: the wire still
  /// carries `request`.
  Status Call(NetContext* ctx, NodeId node_id, const RpcMethod& method,
              Slice request, std::string* response,
              const RequestOwner* request_owner = nullptr);

  // ---- The unified op pipeline ---------------------------------------

  /// Executes one lowered op through the interceptor chain and the core
  /// executor. Public so harnesses can issue pre-built descriptors, but the
  /// verb wrappers above are the usual entry points.
  Status Execute(FabricOp* op, NetContext* ctx);

  /// Appends an interceptor to the chain. Interceptors added first are
  /// outermost (e.g. install retry before fault injection so retries wrap
  /// injected faults). Safe to call concurrently with in-flight ops: ops
  /// already executing finish on the chain they started with.
  void AddInterceptor(std::shared_ptr<FabricInterceptor> interceptor);

  /// Removes every installed interceptor.
  void ClearInterceptors();

  size_t num_interceptors() const;

  // ---- Shared-resource congestion ------------------------------------

  /// Turns on the shared-resource congestion model: every subsequent op is
  /// routed through a virtual-time queue at its target node's link and
  /// charged the resulting queueing delay on top of the unchanged
  /// interconnect cost model. The discipline is strict
  /// FIFO by default, or start-time fair queueing keyed by
  /// `NetContext::tenant` when `CongestionConfig::tenant_weights` is set;
  /// with `ResourceCapacity::max_backlog_ns` configured, over-backlogged ops
  /// fail fast with `Status::Busy`. Off by default; with congestion off —
  /// or on but uncontended — every client counter is bit-identical to the
  /// uncontended fabric.
  void EnableCongestion(CongestionConfig config);

  /// Removes the congestion model (in-flight busy windows are discarded).
  void DisableCongestion();

  /// The active congestion state, or nullptr when disabled. Valid for the
  /// lifetime of the returned shared_ptr even if congestion is re-configured
  /// concurrently.
  std::shared_ptr<CongestionState> congestion() const;

  // ---- Multi-tenant SLOs ---------------------------------------------

  /// Declares (or replaces) `tenant`'s latency contract. Config-time, like
  /// node registration: declare before driving load.
  void DeclareSlo(uint32_t tenant, SloSpec spec);

  /// All declared contracts, keyed by tenant.
  std::map<uint32_t, SloSpec> slo_specs() const;

 private:
  using InterceptorChain = std::vector<std::shared_ptr<FabricInterceptor>>;

  /// Terminal stage of the pipeline: runs the verb, then (when congestion
  /// is enabled) admits the op to its shared resources and charges the
  /// queueing delay.
  Status ExecuteCore(FabricOp* op, NetContext* ctx);

  /// The verb itself on the existing node `target` (looked up once by
  /// ExecuteCore): liveness and bounds checks, the real data movement, and
  /// cost charging (aggregate + per-verb).
  Status ExecuteVerb(Node* target, FabricOp* op, NetContext* ctx);

  Status InvokeChain(const InterceptorChain& chain, size_t index, FabricOp* op,
                     NetContext* ctx);

  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::mutex mu_;
  // Published node count for the lock-free node() fast path (see the
  // snapshot comment below: registration is config-time).
  std::atomic<size_t> num_nodes_{0};

  std::shared_ptr<const InterceptorChain> interceptors_;
  mutable std::mutex interceptor_mu_;  // guards the chain pointer swap

  std::shared_ptr<CongestionState> congestion_;  // nullptr = disabled
  mutable std::mutex congestion_mu_;  // guards the state pointer swap

  // Lock-free mirrors of the two pointers above for the per-op hot path.
  // Every Execute() used to take both mutexes and copy both shared_ptrs —
  // four contended atomic read-modify-writes per op on cache lines shared
  // by every worker thread, which flattens the epoch-parallel driver's
  // scaling. The mirrors are updated under the respective mutex; readers
  // load them with acquire semantics and never touch a refcount. Lifetime
  // is anchored by the shared_ptrs: reconfiguring the fabric (AddInterceptor
  // / EnableCongestion / ...) while ops are in flight on OTHER threads is
  // not supported — config is a setup-time activity in every driver.
  std::atomic<const InterceptorChain*> chain_snapshot_{nullptr};
  std::atomic<CongestionState*> congestion_snapshot_{nullptr};

  std::map<uint32_t, SloSpec> slo_specs_;  // declared tenant contracts
  mutable std::mutex slo_mu_;
};

/// A fabric operation lowered to a single descriptor: the verb tag selects
/// which fields are meaningful. Wrapper verbs fill inputs; `Execute()` fills
/// outputs. Interceptors may inspect or rewrite any field before passing the
/// op down the chain.
struct FabricOp {
  FabricVerb verb = FabricVerb::kRead;
  NodeId node = 0;    ///< target node (== addr.node for addressed verbs)
  GlobalAddr addr{};  ///< one-sided target (read/write/cas/faa/read_atomic)

  /// Tenant billed for this op at congested resources; stamped from
  /// `NetContext::tenant` by `Execute()` before the interceptor chain runs
  /// (interceptors may rewrite it, e.g. to re-bill background traffic).
  uint32_t tenant = 0;

  /// Absolute virtual-time deadline, stamped from `NetContext::deadline_ns`
  /// by `Execute()` (0 = none). The core executor refuses attempts issued at
  /// or past it with `Status::TimedOut`, and the retry interceptor never
  /// backs off beyond the remaining budget. Interceptors may tighten it.
  uint64_t deadline_ns = 0;

  // One-sided read/write payloads.
  void* dst = nullptr;        ///< read destination buffer
  const void* src = nullptr;  ///< write source buffer
  size_t n = 0;               ///< byte count

  // Atomics: CAS uses arg0=expected, arg1=desired; FAA uses arg0=delta.
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;

  // Doorbell batch.
  std::span<const Fabric::WriteOp> batch{};

  // Coalesced mixed read/write batch (kBatch); members' `status` fields are
  // outputs.
  std::vector<Fabric::BatchOp>* sub = nullptr;

  // RPC. The core executor dispatches on `method_id`; `method` is the
  // interned name of the same method, for interceptors and error text. An
  // interceptor that re-routes an op sets both (`set_method`).
  uint32_t method_id = 0;
  const std::string* method = nullptr;
  Slice request{};
  const RequestOwner* request_owner = nullptr;  ///< see `Fabric::Call`
  std::string* response = nullptr;

  // ---- Outputs -------------------------------------------------------
  uint64_t result = 0;    ///< CAS observed / FAA previous / atomic-read value
  uint32_t attempts = 0;  ///< issue count, filled by the retry interceptor

  /// Set by the core executor when the *latest attempt* was refused up front
  /// by congestion admission control (`Status::Busy` without touching the
  /// wire). Retry treats these differently from contention `Busy`: re-issuing
  /// into a queue that just reported "full" only amplifies the overload.
  bool admission_rejected = false;

  /// Set by the core executor when the latest attempt was refused because
  /// `deadline_ns` had already passed at issue time (`Status::TimedOut`
  /// before touching the wire). Never retryable.
  bool deadline_exhausted = false;

  void set_method(const RpcMethod& m) {
    method_id = m.id();
    method = &m.name();
  }
};

}  // namespace disagg

#endif  // DISAGG_NET_FABRIC_H_
