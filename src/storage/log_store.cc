#include "storage/log_store.h"

#include <algorithm>

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kLogAppend("log.append");
const RpcMethod kLogRead("log.read");
const RpcMethod kLogTail("log.tail");

// Modeled CPU cost of durably appending / scanning one log record on the
// storage-side CPU.
constexpr uint64_t kAppendNsPerRecord = 150;
constexpr uint64_t kScanNsPerRecord = 40;
}  // namespace

LogStoreService::LogStoreService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  Node* n = fabric_->node(node_);
  n->RegisterHandler(kLogAppend,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleAppend(req, resp, sctx);
                     });
  n->RegisterHandler(kLogRead,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleRead(req, resp, sctx);
                     });
  n->RegisterHandler(kLogTail,
                     [this](Slice req, std::string* resp,
                            RpcServerContext* sctx) {
                       return HandleTail(req, resp, sctx);
                     });
}

Lsn LogStoreService::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

size_t LogStoreService::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

std::vector<LogRecord> LogStoreService::SnapshotFrom(Lsn from_exclusive) const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.Decode(log_.FirstAfter(from_exclusive));
}

Status LogStoreService::HandleAppend(Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
  const auto* indexed = dynamic_cast<const RedoBatch*>(sctx->ExactOwner(req));
  std::lock_guard<std::mutex> lock(mu_);
  if (indexed == nullptr) {
    DISAGG_RETURN_NOT_OK(LogRecord::ScanBatch(req, &scan_));
  }
  const std::vector<LogRecordSpan>& spans =
      indexed != nullptr ? indexed->spans() : scan_;
  SharedBytes batch;  // retained once the first new record is found
  for (const LogRecordSpan& r : spans) {
    if (r.lsn <= durable_lsn_) continue;  // idempotent re-send
    if (batch == nullptr) batch = sctx->RetainRequest(req);
    durable_lsn_ = r.lsn;
    log_.Append(r.lsn, batch, r.bytes.data() - req.data(), r.bytes.size());
  }
  sctx->ChargeCompute(kAppendNsPerRecord * spans.size());
  resp->clear();
  PutVarint64(resp, durable_lsn_);
  return Status::OK();
}

Status LogStoreService::HandleRead(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  uint64_t from = 0, max_records = 0;
  if (!GetVarint64(&req, &from) || !GetVarint64(&req, &max_records)) {
    return Status::InvalidArgument("malformed log.read");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A bound of 0 reads as 1: the scan checks the bound only after taking a
  // record.
  const size_t first = log_.FirstAfter(from);
  const size_t count = static_cast<size_t>(std::min<uint64_t>(
      std::max<uint64_t>(max_records, 1), log_.size() - first));
  *resp = log_.Batch(first, count);
  sctx->ChargeCompute(kScanNsPerRecord * log_.size());
  return Status::OK();
}

Status LogStoreService::HandleTail(Slice req, std::string* resp,
                                   RpcServerContext* sctx) {
  (void)req;
  std::lock_guard<std::mutex> lock(mu_);
  sctx->ChargeCompute(kScanNsPerRecord);  // one index probe, no scan
  resp->clear();
  PutVarint64(resp, durable_lsn_);
  return Status::OK();
}

Result<Lsn> LogStoreClient::Append(NetContext* ctx, const RedoBatch& batch) {
  std::string resp;
  Status st =
      fabric_->Call(ctx, node_, kLogAppend, batch.request(), &resp, &batch);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t lsn = 0;
  if (!GetVarint64(&in, &lsn)) return Status::Corruption("append response");
  return lsn;
}

Result<std::vector<LogRecord>> LogStoreClient::ReadFrom(NetContext* ctx,
                                                        Lsn from_exclusive,
                                                        uint64_t max_records) {
  std::string req;
  PutVarint64(&req, from_exclusive);
  PutVarint64(&req, max_records);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kLogRead, req, &resp);
  if (!st.ok()) return st;
  return LogRecord::DecodeBatch(resp);
}

Result<Lsn> LogStoreClient::DurableLsn(NetContext* ctx) {
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kLogTail, "", &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t lsn = 0;
  if (!GetVarint64(&in, &lsn)) return Status::Corruption("tail response");
  return lsn;
}

}  // namespace disagg
