#include "net/fabric.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace disagg {

MemoryRegion* Node::AddRegion(const std::string& name, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = static_cast<uint32_t>(regions_.size());
  regions_.push_back(std::make_unique<MemoryRegion>(id, name, size));
  num_regions_.store(regions_.size(), std::memory_order_release);
  return regions_.back().get();
}

// The lookups below are on every op's path and lock-free: registration is
// config-time (see Fabric::chain_snapshot_), and the published count is the
// only thing a reader trusts, so a concurrent (unsupported) AddRegion can
// never hand out an uninitialized slot.
MemoryRegion* Node::region(uint32_t id) {
  if (id >= num_regions_.load(std::memory_order_acquire)) return nullptr;
  return regions_[id].get();
}

void Node::RegisterHandler(const RpcMethod& method, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.push_back(std::make_unique<RpcHandler>(std::move(handler)));
  const HandlerTable* current = handler_table_.load(std::memory_order_relaxed);
  auto next = current != nullptr ? std::make_unique<HandlerTable>(*current)
                                 : std::make_unique<HandlerTable>();
  auto it = std::lower_bound(
      next->begin(), next->end(), method.id(),
      [](const HandlerEntry& e, uint32_t id) { return e.method_id < id; });
  if (it != next->end() && it->method_id == method.id()) {
    it->handler = handlers_.back().get();
  } else {
    next->insert(it, HandlerEntry{method.id(), handlers_.back().get()});
  }
  handler_table_.store(next.get(), std::memory_order_release);
  handler_tables_.push_back(std::move(next));
}

const RpcHandler* Node::handler(const RpcMethod& method) const {
  return FindHandler(method.id());
}

const RpcHandler* Node::FindHandler(uint32_t method_id) const {
  const HandlerTable* table = handler_table_.load(std::memory_order_acquire);
  if (table == nullptr) return nullptr;
  auto it = std::lower_bound(
      table->begin(), table->end(), method_id,
      [](const HandlerEntry& e, uint32_t id) { return e.method_id < id; });
  return it != table->end() && it->method_id == method_id ? it->handler
                                                          : nullptr;
}

NodeId Fabric::AddNode(const std::string& name, NodeKind kind,
                       InterconnectModel model, uint32_t az) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_.empty()) nodes_.push_back(nullptr);  // id 0 = null node
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, name, kind, az, std::move(model)));
  num_nodes_.store(nodes_.size(), std::memory_order_release);
  return id;
}

// Lock-free for the same reason as Node::region(): node registration is
// config-time, and ExecuteCore runs this on every single op.
Node* Fabric::node(NodeId id) {
  if (id >= num_nodes_.load(std::memory_order_acquire)) return nullptr;
  return nodes_[id].get();
}

// ---- Interceptor chain ---------------------------------------------------

void Fabric::AddInterceptor(std::shared_ptr<FabricInterceptor> interceptor) {
  std::lock_guard<std::mutex> lock(interceptor_mu_);
  auto chain = interceptors_ ? std::make_shared<InterceptorChain>(*interceptors_)
                             : std::make_shared<InterceptorChain>();
  chain->push_back(std::move(interceptor));
  interceptors_ = std::move(chain);
  chain_snapshot_.store(interceptors_.get(), std::memory_order_release);
}

void Fabric::ClearInterceptors() {
  std::lock_guard<std::mutex> lock(interceptor_mu_);
  interceptors_.reset();
  chain_snapshot_.store(nullptr, std::memory_order_release);
}

size_t Fabric::num_interceptors() const {
  std::lock_guard<std::mutex> lock(interceptor_mu_);
  return interceptors_ ? interceptors_->size() : 0;
}

// ---- Congestion ----------------------------------------------------------

void Fabric::EnableCongestion(CongestionConfig config) {
  std::lock_guard<std::mutex> lock(congestion_mu_);
  congestion_ = std::make_shared<CongestionState>(std::move(config));
  congestion_snapshot_.store(congestion_.get(), std::memory_order_release);
}

void Fabric::DisableCongestion() {
  std::lock_guard<std::mutex> lock(congestion_mu_);
  congestion_.reset();
  congestion_snapshot_.store(nullptr, std::memory_order_release);
}

std::shared_ptr<CongestionState> Fabric::congestion() const {
  std::lock_guard<std::mutex> lock(congestion_mu_);
  return congestion_;
}

void Fabric::DeclareSlo(uint32_t tenant, SloSpec spec) {
  std::lock_guard<std::mutex> lock(slo_mu_);
  slo_specs_[tenant] = spec;
}

std::map<uint32_t, SloSpec> Fabric::slo_specs() const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  return slo_specs_;
}

Status Fabric::Execute(FabricOp* op, NetContext* ctx) {
  op->tenant = ctx->tenant;  // interceptors may rewrite it further down
  op->deadline_ns = ctx->deadline_ns;
  // Lock-free snapshot (see chain_snapshot_): the chain is config-time
  // state, so the raw pointer stays valid for the whole op.
  const InterceptorChain* chain =
      chain_snapshot_.load(std::memory_order_acquire);
  Status st = (chain == nullptr || chain->empty())
                  ? ExecuteCore(op, ctx)
                  : InvokeChain(*chain, 0, op, ctx);
  // One logical op = one potential deadline miss, however many attempts the
  // chain made: either the budget was already spent at issue time, or the
  // completion (retries and backoff included) overran it.
  if (op->deadline_ns != 0 &&
      (op->deadline_exhausted || ctx->sim_ns > op->deadline_ns)) {
    ctx->deadline_misses++;
  }
  return st;
}

Status Fabric::InvokeChain(const InterceptorChain& chain, size_t index,
                           FabricOp* op, NetContext* ctx) {
  if (index == chain.size()) return ExecuteCore(op, ctx);
  FabricOpInvoker next = [this, &chain, index](FabricOp* o, NetContext* c) {
    return InvokeChain(chain, index + 1, o, c);
  };
  return chain[index]->Intercept(this, op, ctx, next);
}

namespace {

/// Mirrors a successful op's charges into both the aggregate counters and the
/// per-verb breakdown. The aggregate arithmetic is identical to the
/// pre-pipeline verbs, so an unperturbed run is bit-identical.
void ChargeOp(NetContext* ctx, FabricVerb verb, uint64_t ns, uint64_t out,
              uint64_t in) {
  ctx->Charge(ns);
  ctx->bytes_out += out;
  ctx->bytes_in += in;
  ctx->round_trips++;
  VerbCounters& pv = ctx->per_verb[VerbIndex(verb)];
  pv.ops++;
  pv.sim_ns += ns;
  pv.bytes_out += out;
  pv.bytes_in += in;
}

}  // namespace

Status Fabric::ExecuteCore(FabricOp* op, NetContext* ctx) {
  op->admission_rejected = false;
  op->deadline_exhausted = false;
  if (op->deadline_ns != 0 && ctx->sim_ns >= op->deadline_ns) {
    // The budget is already spent: refuse before touching the wire (or the
    // congestion queues). No cost is charged — the caller has, by
    // definition, already burned its whole budget getting here.
    op->deadline_exhausted = true;
    return Status::TimedOut("deadline exhausted before issue at node " +
                            std::to_string(op->node));
  }
  // An op to a node that does not exist fails before it moves a byte, so it
  // never meets a congestion queue (whose links are indexed by node id).
  Node* target = node(op->node);
  if (target == nullptr) return Status::InvalidArgument("no such node");
  CongestionState* congestion =
      congestion_snapshot_.load(std::memory_order_acquire);
  if (congestion == nullptr) return ExecuteVerb(target, op, ctx);

  // The op arrives at the client's virtual time *before* its own service
  // cost; the bytes it moves are known only after the verb ran (RPC response
  // sizes). Queueing delay is charged after the fact, on top of the
  // unchanged interconnect cost, and broken out in `queue_ns`.
  const uint64_t arrival = ctx->sim_ns;

  // Admission control: an op that would queue past a resource's backlog
  // bound is refused before touching the wire — no data moves, and the
  // client pays only the (small) cost of learning "no". The Busy status
  // flows into any installed RetryInterceptor like app-level contention.
  if (!congestion->TryAdmit(op->node, op->tenant, arrival, op->deadline_ns)) {
    ctx->Charge(CongestionConfig::kRejectionCostNs);
    ctx->admission_rejects++;
    op->admission_rejected = true;
    return Status::Busy("admission control: backlog bound exceeded at node " +
                        std::to_string(op->node));
  }

  const uint64_t out_before = ctx->bytes_out;
  const uint64_t in_before = ctx->bytes_in;
  Status st = ExecuteVerb(target, op, ctx);
  const uint64_t bytes =
      (ctx->bytes_out - out_before) + (ctx->bytes_in - in_before);
  // Ops rejected before touching the wire (failed node, bounds) move no bytes
  // and occupy nothing; anything that transferred data holds its resources.
  if (st.ok() || bytes > 0) {
    const uint64_t delay = congestion->Admit(op->node, op->tenant, arrival,
                                             bytes, op->deadline_ns);
    if (delay > 0) {
      ctx->Charge(delay);
      ctx->queue_ns += delay;
    }
  }
  return st;
}

Status Fabric::ExecuteVerb(Node* target, FabricOp* op, NetContext* ctx) {
  if (target->failed()) {
    return Status::Unavailable("node " + target->name() + " failed");
  }

  switch (op->verb) {
    case FabricVerb::kRead: {
      MemoryRegion* mr = target->region(op->addr.region);
      if (mr == nullptr || !mr->Contains(op->addr.offset, op->n)) {
        return Status::InvalidArgument("read out of region bounds");
      }
      std::memcpy(op->dst, mr->data() + op->addr.offset, op->n);
      ChargeOp(ctx, op->verb, target->model().ReadCost(op->n), 0, op->n);
      return Status::OK();
    }

    case FabricVerb::kWrite: {
      MemoryRegion* mr = target->region(op->addr.region);
      if (mr == nullptr || !mr->Contains(op->addr.offset, op->n)) {
        return Status::InvalidArgument("write out of region bounds");
      }
      std::memcpy(mr->data() + op->addr.offset, op->src, op->n);
      ChargeOp(ctx, op->verb, target->model().WriteCost(op->n), op->n, 0);
      return Status::OK();
    }

    case FabricVerb::kCas: {
      MemoryRegion* mr = target->region(op->addr.region);
      if (mr == nullptr || !mr->Contains(op->addr.offset, 8) ||
          (op->addr.offset % 8) != 0) {
        return Status::InvalidArgument("CAS requires an aligned 8-byte word");
      }
      auto* word =
          reinterpret_cast<std::atomic<uint64_t>*>(mr->data() + op->addr.offset);
      uint64_t observed = op->arg0;
      word->compare_exchange_strong(observed, op->arg1,
                                    std::memory_order_acq_rel);
      op->result = observed;
      ChargeOp(ctx, op->verb, target->model().AtomicCost(), 16, 8);
      return Status::OK();
    }

    case FabricVerb::kFetchAdd: {
      MemoryRegion* mr = target->region(op->addr.region);
      if (mr == nullptr || !mr->Contains(op->addr.offset, 8) ||
          (op->addr.offset % 8) != 0) {
        return Status::InvalidArgument("FAA requires an aligned 8-byte word");
      }
      auto* word =
          reinterpret_cast<std::atomic<uint64_t>*>(mr->data() + op->addr.offset);
      op->result = word->fetch_add(op->arg0, std::memory_order_acq_rel);
      ChargeOp(ctx, op->verb, target->model().AtomicCost(), 16, 8);
      return Status::OK();
    }

    case FabricVerb::kReadAtomic: {
      MemoryRegion* mr = target->region(op->addr.region);
      if (mr == nullptr || !mr->Contains(op->addr.offset, 8) ||
          (op->addr.offset % 8) != 0) {
        return Status::InvalidArgument("atomic read requires aligned 8 bytes");
      }
      auto* word =
          reinterpret_cast<std::atomic<uint64_t>*>(mr->data() + op->addr.offset);
      op->result = word->load(std::memory_order_acquire);
      ChargeOp(ctx, op->verb, target->model().ReadCost(8), 0, 8);
      return Status::OK();
    }

    case FabricVerb::kWriteBatch: {
      size_t total = 0;
      for (const WriteOp& w : op->batch) {
        MemoryRegion* mr = target->region(w.addr.region);
        if (mr == nullptr || !mr->Contains(w.addr.offset, w.n)) {
          return Status::InvalidArgument("batched write out of region bounds");
        }
        std::memcpy(mr->data() + w.addr.offset, w.src, w.n);
        total += w.n;
      }
      // Doorbell batching: one base latency for the whole batch.
      ChargeOp(ctx, op->verb, target->model().WriteCost(total), total, 0);
      return Status::OK();
    }

    case FabricVerb::kBatch: {
      // All-or-nothing: validate every member before any data moves, so a
      // refused batch leaves the regions untouched (same contract as a
      // single verb's bounds check).
      for (const BatchOp& b : *op->sub) {
        if (b.verb != FabricVerb::kRead && b.verb != FabricVerb::kWrite) {
          return Status::InvalidArgument(
              "op batch members must be one-sided reads/writes");
        }
        MemoryRegion* mr = target->region(b.addr.region);
        if (mr == nullptr || !mr->Contains(b.addr.offset, b.n)) {
          return Status::InvalidArgument("batched op out of region bounds");
        }
      }
      uint64_t read_bytes = 0, write_bytes = 0;
      size_t reads = 0, writes = 0;
      for (BatchOp& b : *op->sub) {
        MemoryRegion* mr = target->region(b.addr.region);
        if (b.verb == FabricVerb::kRead) {
          std::memcpy(b.dst, mr->data() + b.addr.offset, b.n);
          read_bytes += b.n;
          reads++;
        } else {
          std::memcpy(mr->data() + b.addr.offset, b.src, b.n);
          write_bytes += b.n;
          writes++;
        }
        b.status = Status::OK();
      }
      // Doorbell coalescing: one base latency per transfer direction for the
      // whole batch, plus the summed byte costs (the per-member bases and
      // per-op issue charges are what the doorbell amortizes away).
      uint64_t ns = 0;
      if (reads > 0) ns += target->model().ReadCost(read_bytes);
      if (writes > 0) ns += target->model().WriteCost(write_bytes);
      ChargeOp(ctx, op->verb, ns, write_bytes, read_bytes);
      return Status::OK();
    }

    case FabricVerb::kRpc: {
      const RpcHandler* h = target->FindHandler(op->method_id);
      if (h == nullptr) {
        return Status::NotSupported(
            "no handler for '" + (op->method != nullptr ? *op->method : "?") +
            "' on " + target->name());
      }
      RpcServerContext server_ctx;
      server_ctx.request_owner = op->request_owner;
      op->response->clear();
      Status st = (*h)(op->request, op->response, &server_ctx);
      const uint64_t ns =
          target->model().RpcCost(op->request.size(), op->response->size()) +
          static_cast<uint64_t>(static_cast<double>(server_ctx.compute_ns) *
                                target->cpu_scale());
      ChargeOp(ctx, op->verb, ns, op->request.size(), op->response->size());
      ctx->rpcs++;
      return st;
    }
  }
  return Status::InvalidArgument("unknown fabric verb");
}

// ---- Verb wrappers (lower into a FabricOp and Execute) -------------------

Status Fabric::Read(NetContext* ctx, GlobalAddr src, void* dst, size_t n) {
  FabricOp op;
  op.verb = FabricVerb::kRead;
  op.node = src.node;
  op.addr = src;
  op.dst = dst;
  op.n = n;
  return Execute(&op, ctx);
}

Status Fabric::Write(NetContext* ctx, GlobalAddr dst, const void* src,
                     size_t n) {
  FabricOp op;
  op.verb = FabricVerb::kWrite;
  op.node = dst.node;
  op.addr = dst;
  op.src = src;
  op.n = n;
  return Execute(&op, ctx);
}

Result<uint64_t> Fabric::CompareAndSwap(NetContext* ctx, GlobalAddr addr,
                                        uint64_t expected, uint64_t desired) {
  FabricOp op;
  op.verb = FabricVerb::kCas;
  op.node = addr.node;
  op.addr = addr;
  op.arg0 = expected;
  op.arg1 = desired;
  Status st = Execute(&op, ctx);
  if (!st.ok()) return st;
  return op.result;
}

Result<uint64_t> Fabric::FetchAdd(NetContext* ctx, GlobalAddr addr,
                                  uint64_t delta) {
  FabricOp op;
  op.verb = FabricVerb::kFetchAdd;
  op.node = addr.node;
  op.addr = addr;
  op.arg0 = delta;
  Status st = Execute(&op, ctx);
  if (!st.ok()) return st;
  return op.result;
}

Result<uint64_t> Fabric::ReadAtomic64(NetContext* ctx, GlobalAddr addr) {
  FabricOp op;
  op.verb = FabricVerb::kReadAtomic;
  op.node = addr.node;
  op.addr = addr;
  Status st = Execute(&op, ctx);
  if (!st.ok()) return st;
  return op.result;
}

Status Fabric::WriteBatch(NetContext* ctx, NodeId node_id,
                          std::span<const WriteOp> ops) {
  FabricOp op;
  op.verb = FabricVerb::kWriteBatch;
  op.node = node_id;
  op.batch = ops;
  return Execute(&op, ctx);
}

Status Fabric::ExecuteBatch(NetContext* ctx, NodeId node_id,
                            std::vector<BatchOp>* ops) {
  if (ops == nullptr || ops->empty()) return Status::OK();

  FabricOp op;
  op.verb = FabricVerb::kBatch;
  op.node = node_id;
  op.sub = ops;
  Status st = Execute(&op, ctx);
  if (!st.ok()) {
    for (BatchOp& b : *ops) b.status = st;
  }
  return st;
}

Status Fabric::Call(NetContext* ctx, NodeId node_id, const RpcMethod& method,
                    Slice request, std::string* response,
                    const RequestOwner* request_owner) {
  FabricOp op;
  op.verb = FabricVerb::kRpc;
  op.node = node_id;
  op.set_method(method);
  op.request = request;
  op.request_owner = request_owner;
  op.response = response;
  return Execute(&op, ctx);
}

}  // namespace disagg
