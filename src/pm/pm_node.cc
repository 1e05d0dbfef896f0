#include "pm/pm_node.h"

#include <cstring>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kPmPersistWrite("pm.persist_write");

}  // namespace

PmNode::PmNode(Fabric* fabric, const std::string& name, size_t capacity_bytes)
    : fabric_(fabric),
      pool_(fabric, name, capacity_bytes, InterconnectModel::RdmaToPm()) {
  Node* n = fabric_->node(pool_.node());
  // Unlike DRAM pools, PM servers host strong CPUs (Sec. 2.3: Optane needs
  // recent Xeon hosts) — which is exactly why offloading persistence to the
  // server side is attractive.
  n->set_cpu_scale(1.0);
  n->RegisterHandler(kPmPersistWrite,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandlePersistWrite(req, resp, sctx);
                     });
}

void PmNode::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryRegion* region = fabric_->node(pool_.node())->region(pool_.region());
  // Undo in reverse order so overlapping writes restore correctly.
  for (auto it = staging_.rbegin(); it != staging_.rend(); ++it) {
    std::memcpy(region->data() + it->offset, it->old_bytes.data(),
                it->old_bytes.size());
  }
  staging_.clear();
}

size_t PmNode::staged_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staging_.size();
}

void PmNode::StageWrite(uint64_t offset, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryRegion* region = fabric_->node(pool_.node())->region(pool_.region());
  Staged s;
  s.offset = offset;
  s.old_bytes.assign(region->data() + offset, region->data() + offset + len);
  staging_.push_back(std::move(s));
}

void PmNode::MakeAllDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  staging_.clear();
}

Status PmNode::HandlePersistWrite(Slice req, std::string* resp,
                                  RpcServerContext* sctx) {
  uint64_t offset = 0;
  Slice data;
  if (!GetVarint64(&req, &offset) || !GetLengthPrefixedSlice(&req, &data)) {
    return Status::InvalidArgument("malformed pm.persist_write");
  }
  MemoryRegion* region = fabric_->node(pool_.node())->region(pool_.region());
  if (!region->Contains(offset, data.size())) {
    return Status::InvalidArgument("persist_write out of bounds");
  }
  std::memcpy(region->data() + offset, data.data(), data.size());
  // Server-side ntstore + fence: CPU cost plus the PM media write.
  sctx->ChargeCompute(
      400 + static_cast<uint64_t>(kMediaWriteNsPerByte * data.size()));
  resp->clear();
  return Status::OK();
}

Status PmClient::WriteUnsafe(NetContext* ctx, GlobalAddr addr, Slice data) {
  pm_->StageWrite(addr.offset, data.size());
  DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, data.data(), data.size()));
  // Media write cost is paid asynchronously by the DIMM; the visible latency
  // cost here is the RDMA write itself (already charged by the fabric).
  return Status::OK();
}

Status PmClient::FlushRead(NetContext* ctx, GlobalAddr addr) {
  char scratch;
  DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, addr, &scratch, 1));
  pm_->MakeAllDurable();
  return Status::OK();
}

Status PmClient::WritePersistOneSided(NetContext* ctx, GlobalAddr addr,
                                      Slice data) {
  DISAGG_RETURN_NOT_OK(WriteUnsafe(ctx, addr, data));
  return FlushRead(ctx, addr);
}

Status PmClient::WritePersistRpc(NetContext* ctx, GlobalAddr addr,
                                 Slice data) {
  std::string req;
  PutVarint64(&req, addr.offset);
  PutLengthPrefixedSlice(&req, data);
  std::string resp;
  return fabric_->Call(ctx, pm_->node(), kPmPersistWrite, req, &resp);
}

Status PmClient::ReadRemote(NetContext* ctx, GlobalAddr addr, void* dst,
                            size_t n) {
  DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, addr, dst, n));
  ctx->Charge(static_cast<uint64_t>(PmNode::kMediaReadNsPerByte * n));
  return Status::OK();
}

Status PmClient::ReadLocalViaIoStack(NetContext* ctx, GlobalAddr addr,
                                     void* dst, size_t n) {
  MemoryRegion* region = fabric_->node(pm_->node())->region(addr.region);
  if (region == nullptr || !region->Contains(addr.offset, n)) {
    return Status::InvalidArgument("read out of bounds");
  }
  std::memcpy(dst, region->data() + addr.offset, n);
  // No network, but the full kernel I/O stack plus media: this is what makes
  // local PM *slower* than remote PM (Exadata, Sec. 2.3).
  ctx->Charge(PmNode::kLocalIoStackOverheadNs +
              static_cast<uint64_t>(PmNode::kMediaReadNsPerByte * n));
  return Status::OK();
}

}  // namespace disagg
