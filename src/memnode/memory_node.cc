#include "memnode/memory_node.h"

#include <bit>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kMemAlloc("mem.alloc");

}  // namespace

MemoryNode::MemoryNode(Fabric* fabric, const std::string& name,
                       size_t capacity_bytes, InterconnectModel model)
    : fabric_(fabric) {
  node_ = fabric_->AddNode(name, NodeKind::kMemory, std::move(model));
  Node* n = fabric_->node(node_);
  n->set_cpu_scale(1.5);  // pool-side cores run at lower clocks (Sec. 1)
  region_ = n->AddRegion("pool", capacity_bytes);
  n->RegisterHandler(kMemAlloc, [this](Slice req, std::string* resp,
                                         RpcServerContext* sctx) {
    return HandleAlloc(req, resp, sctx);
  });
}

size_t MemoryNode::allocated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_;
}

ResourceCapacity MemoryNode::ServiceCapacity(uint64_t ns_per_op) const {
  ResourceCapacity cap;
  cap.ns_per_op = ns_per_op;
  cap.ns_per_byte = fabric_->node(node_)->model().ns_per_byte;
  return cap;
}

size_t MemoryNode::SizeClass(size_t bytes) {
  // Round up to the next power of two, minimum 64 bytes (cache line).
  size_t c = 64;
  while (c < bytes) c <<= 1;
  return c;
}

Result<GlobalAddr> MemoryNode::AllocLocal(size_t bytes) {
  if (bytes == 0) return Status::InvalidArgument("zero-size alloc");
  // Checked before rounding: SizeClass doubles past 2^63 to 0 and never
  // returns.
  if (bytes > region_->size()) {
    return Status::Unavailable("memory pool exhausted");
  }
  const size_t cls = SizeClass(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  auto& fl = free_lists_[cls];
  uint64_t offset;
  if (!fl.empty()) {
    offset = fl.back();
    fl.pop_back();
  } else {
    if (bump_ + cls > region_->size()) {
      return Status::Unavailable("memory pool exhausted");
    }
    offset = bump_;
    bump_ += cls;
  }
  allocated_ += cls;
  return GlobalAddr{node_, region_->id(), offset};
}

Status MemoryNode::FreeLocal(GlobalAddr addr, size_t bytes) {
  if (addr.node != node_ || addr.region != region_->id()) {
    return Status::InvalidArgument("address not in this pool");
  }
  const size_t cls = SizeClass(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  free_lists_[cls].push_back(addr.offset);
  allocated_ -= cls;
  return Status::OK();
}

Status MemoryNode::HandleAlloc(Slice req, std::string* resp,
                               RpcServerContext* sctx) {
  uint64_t bytes = 0;
  if (!GetVarint64(&req, &bytes)) {
    return Status::InvalidArgument("malformed mem.alloc");
  }
  auto addr = AllocLocal(bytes);
  if (!addr.ok()) return addr.status();
  sctx->ChargeCompute(300);
  resp->clear();
  PutVarint64(resp, addr->offset);
  return Status::OK();
}

Result<GlobalAddr> RemoteAllocator::Alloc(NetContext* ctx, size_t bytes) {
  std::string req;
  PutVarint64(&req, bytes);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kMemAlloc, req, &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t offset = 0;
  if (!GetVarint64(&in, &offset)) return Status::Corruption("alloc response");
  return GlobalAddr{node_, 0, offset};
}

}  // namespace disagg
