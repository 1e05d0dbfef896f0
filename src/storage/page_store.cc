#include "storage/page_store.h"

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kPageApplyLog("page.apply_log");
const RpcMethod kPagePut("page.put");
const RpcMethod kPageGet("page.get");

constexpr uint64_t kApplyNsPerRecord = 250;
constexpr uint64_t kPageLookupNs = 400;
}  // namespace

PageStoreService::PageStoreService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  Node* n = fabric_->node(node_);
  n->RegisterHandler(kPageApplyLog,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleApplyLog(req, resp, sctx);
                     });
  n->RegisterHandler(kPagePut,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandlePut(req, resp, sctx);
                     });
  n->RegisterHandler(kPageGet,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleGet(req, resp, sctx);
                     });
}

Lsn PageStoreService::high_water_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_lsn_;
}

size_t PageStoreService::materialized_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

size_t PageStoreService::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [id, redo] : pending_) n += redo.size();
  return n;
}

size_t PageStoreService::MaterializeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t applied = 0;
  for (const auto& [id, redo] : pending_) {
    Status st = MaterializeLocked(id, &applied);
    (void)st;  // the failing record stays pending; page.get reports it
  }
  return applied;
}

std::map<PageId, Lsn> PageStoreService::PageVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<PageId, Lsn> out;
  for (const auto& [id, page] : pages_) out[id] = page.lsn();
  for (const auto& [id, redo] : pending_) {
    if (!redo.empty()) {
      Lsn last = redo.lsn(redo.size() - 1);
      auto it = out.find(id);
      if (it == out.end() || it->second < last) out[id] = last;
    }
  }
  return out;
}

void PageStoreService::IngestPage(const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(page.page_id());
  if (it == pages_.end() || it->second.lsn() < page.lsn()) {
    pages_.insert_or_assign(page.page_id(), page);
    // Drop pending redo the ingested image already covers.
    auto pit = pending_.find(page.page_id());
    if (pit != pending_.end()) {
      EncodedRecords keep;
      for (size_t i = 0; i < pit->second.size(); i++) {
        if (pit->second.lsn(i) > page.lsn()) keep.Append(pit->second, i);
      }
      pit->second = std::move(keep);
    }
    high_water_lsn_ = std::max(high_water_lsn_, page.lsn());
  }
}

Result<Page> PageStoreService::PeekPage(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) return Status::NotFound("no such page");
  return it->second;
}

Status PageStoreService::MaterializeLocked(PageId id, size_t* applied) {
  auto pit = pending_.find(id);
  if (pit == pending_.end() || pit->second.empty()) return Status::OK();
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    it = pages_.emplace(id, Page(id)).first;
  }
  const std::vector<LogRecord> redo = pit->second.Decode(0);
  size_t done = 0;
  Status st;
  for (; done < redo.size(); done++) {
    st = ApplyRedo(&it->second, redo[done]);
    if (!st.ok()) break;
  }
  // A failing record stays pending with its successors, so every later
  // read retries from it and reports the same status.
  pit->second.EraseFront(done);
  if (applied != nullptr) *applied += done;
  return st;
}

Status PageStoreService::HandleApplyLog(Slice req, std::string* resp,
                                        RpcServerContext* sctx) {
  const auto* indexed = dynamic_cast<const RedoBatch*>(sctx->ExactOwner(req));
  std::lock_guard<std::mutex> lock(mu_);
  if (indexed == nullptr) {
    DISAGG_RETURN_NOT_OK(LogRecord::ScanBatch(req, &scan_));
  }
  const std::vector<LogRecordSpan>& spans =
      indexed != nullptr ? indexed->spans() : scan_;
  SharedBytes batch;  // retained once the first page record is found
  for (const LogRecordSpan& r : spans) {
    if (r.lsn > high_water_lsn_) high_water_lsn_ = r.lsn;
    if (r.page_id == kInvalidPageId) continue;  // txn control records
    if (batch == nullptr) batch = sctx->RetainRequest(req);
    pending_[r.page_id].Append(r.lsn, batch, r.bytes.data() - req.data(),
                               r.bytes.size());
  }
  // Receiving/queueing is cheap; replay cost is paid at materialization.
  sctx->ChargeCompute(30 * spans.size());
  resp->clear();
  PutVarint64(resp, high_water_lsn_);
  return Status::OK();
}

Status PageStoreService::HandlePut(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  auto page = Page::FromBytes(req);
  if (!page.ok()) return page.status();
  if (!page->VerifyChecksum()) {
    return Status::Corruption("page checksum mismatch on put");
  }
  IngestPage(*page);
  sctx->ChargeCompute(kPageLookupNs);
  resp->clear();
  return Status::OK();
}

Status PageStoreService::HandleGet(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  uint64_t id = 0;
  if (!GetVarint64(&req, &id)) return Status::InvalidArgument("page.get");
  std::lock_guard<std::mutex> lock(mu_);
  size_t pending_count = 0;
  auto pit = pending_.find(id);
  if (pit != pending_.end()) pending_count = pit->second.size();
  DISAGG_RETURN_NOT_OK(MaterializeLocked(id));
  auto it = pages_.find(id);
  if (it == pages_.end()) return Status::NotFound("no such page");
  it->second.Seal();
  resp->assign(it->second.data(), kPageSize);
  sctx->ChargeCompute(kPageLookupNs + kApplyNsPerRecord * pending_count);
  return Status::OK();
}

Result<Lsn> PageStoreClient::ApplyLog(NetContext* ctx,
                                      const RedoBatch& batch) {
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kPageApplyLog, batch.request(),
                            &resp, &batch);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t lsn = 0;
  if (!GetVarint64(&in, &lsn)) return Status::Corruption("apply_log response");
  return lsn;
}

Status PageStoreClient::PutPage(NetContext* ctx, const Page& page) {
  Page copy = page;
  copy.Seal();
  std::string resp;
  return fabric_->Call(ctx, node_, kPagePut, Slice(copy.data(), kPageSize),
                       &resp);
}

Result<Page> PageStoreClient::GetPage(NetContext* ctx, PageId id) {
  std::string req;
  PutVarint64(&req, id);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kPageGet, req, &resp);
  if (!st.ok()) return st;
  auto page = Page::FromBytes(resp);
  if (!page.ok()) return page.status();
  if (!page->VerifyChecksum()) {
    return Status::Corruption("page checksum mismatch on get");
  }
  return page;
}

Result<Page> GetFreshestPage(Fabric* fabric, NetContext* ctx,
                             std::span<const NodeId> stores, PageId id,
                             Status none) {
  Result<Page> best = std::move(none);
  (void)FanOut(ctx, stores, [&](NodeId node, NetContext* branch) {
    auto page = PageStoreClient(fabric, node).GetPage(branch, id);
    if (page.ok() && (!best.ok() || page->lsn() > best->lsn())) {
      best = std::move(page);
    }
    return Status::OK();
  });
  return best;
}

}  // namespace disagg
