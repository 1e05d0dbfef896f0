#include "memnode/remote_cache.h"

#include <cstring>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kCacheChase("cache.chase");

}  // namespace

RemoteCache::RemoteCache(Fabric* fabric, MemoryNode* pool)
    : fabric_(fabric), pool_(pool) {}

Status RemoteCache::Put(NetContext* ctx, const std::string& key, Slice value) {
  // Overwrite = erase + insert (values are immutable in place).
  auto it = index_.find(key);
  if (it != index_.end()) {
    DISAGG_RETURN_NOT_OK(pool_->FreeLocal(it->second.addr, it->second.len));
    index_.erase(it);
  }
  DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr, pool_->AllocLocal(value.size()));
  DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, value.data(), value.size()));
  index_[key] = Loc{addr, value.size()};
  return Status::OK();
}

Result<std::string> RemoteCache::Get(NetContext* ctx, const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound(key);
  std::string out(it->second.len, '\0');
  Status st = fabric_->Read(ctx, it->second.addr, out.data(), out.size());
  if (!st.ok()) return st;
  return out;
}

Status RemoteCache::Erase(NetContext* ctx, const std::string& key) {
  (void)ctx;
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound(key);
  DISAGG_RETURN_NOT_OK(pool_->FreeLocal(it->second.addr, it->second.len));
  index_.erase(it);
  return Status::OK();
}

Status RemoteCache::MigrateTo(NetContext* ctx, MemoryNode* new_pool) {
  std::unordered_map<std::string, Loc> new_index;
  for (const auto& [key, loc] : index_) {
    std::string buf(loc.len, '\0');
    DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, loc.addr, buf.data(), buf.size()));
    DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr, new_pool->AllocLocal(loc.len));
    DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, buf.data(), buf.size()));
    new_index[key] = Loc{addr, loc.len};
  }
  // Release the reclaimed pool's allocations (best effort: the pool is going
  // away anyway).
  for (const auto& [key, loc] : index_) {
    (void)pool_->FreeLocal(loc.addr, loc.len);
  }
  index_ = std::move(new_index);
  pool_ = new_pool;
  return Status::OK();
}

PointerChain::PointerChain(Fabric* fabric, MemoryNode* pool)
    : fabric_(fabric), pool_(pool) {
  fabric_->node(pool_->node())
      ->RegisterHandler(kCacheChase,
                        [this](Slice req, std::string* resp,
                               RpcServerContext* sctx) {
                          return HandleChase(req, resp, sctx);
                        });
}

Result<GlobalAddr> PointerChain::Build(NetContext* ctx,
                                       const std::vector<std::string>& values) {
  GlobalAddr next{};  // null terminator
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    if (it->size() > kPayload) {
      return Status::InvalidArgument("payload too large for chain node");
    }
    DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr, pool_->AllocLocal(kNodeSize));
    char buf[kNodeSize] = {0};
    EncodeFixed64(buf, next.is_null() ? 0 : next.offset + 1);
    std::memcpy(buf + 8, it->data(), it->size());
    DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, buf, kNodeSize));
    next = addr;
  }
  return next;
}

Result<std::string> PointerChain::ChaseClientSide(NetContext* ctx,
                                                  GlobalAddr head,
                                                  size_t hops) {
  GlobalAddr cur = head;
  char buf[kNodeSize];
  for (size_t i = 0;; i++) {
    DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, cur, buf, kNodeSize));
    if (i == hops) break;
    const uint64_t next_plus1 = DecodeFixed64(buf);
    if (next_plus1 == 0) return Status::NotFound("chain ended early");
    cur = GlobalAddr{head.node, head.region, next_plus1 - 1};
  }
  return std::string(buf + 8, strnlen(buf + 8, kPayload));
}

Result<std::string> PointerChain::ChaseServerSide(NetContext* ctx,
                                                  GlobalAddr head,
                                                  size_t hops) {
  std::string req;
  PutVarint64(&req, head.offset);
  PutVarint64(&req, hops);
  std::string resp;
  Status st = fabric_->Call(ctx, pool_->node(), kCacheChase, req, &resp);
  if (!st.ok()) return st;
  return resp;
}

Status PointerChain::HandleChase(Slice req, std::string* resp,
                                 RpcServerContext* sctx) {
  uint64_t offset = 0, hops = 0;
  if (!GetVarint64(&req, &offset) || !GetVarint64(&req, &hops)) {
    return Status::InvalidArgument("malformed cache.chase");
  }
  MemoryRegion* region = fabric_->node(pool_->node())->region(0);
  for (size_t i = 0;; i++) {
    if (!region->Contains(offset, kNodeSize)) {
      return Status::InvalidArgument("chase ran off the region");
    }
    const char* node_bytes = region->data() + offset;
    // Local memory access on the pool side: cheap but not free.
    sctx->ChargeCompute(150);
    if (i == hops) {
      resp->assign(node_bytes + 8, strnlen(node_bytes + 8, kPayload));
      return Status::OK();
    }
    const uint64_t next_plus1 = DecodeFixed64(node_bytes);
    if (next_plus1 == 0) return Status::NotFound("chain ended early");
    offset = next_plus1 - 1;
  }
}

}  // namespace disagg
