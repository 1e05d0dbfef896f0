#include "pm/pilot_log.h"

#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

namespace {

const RpcMethod kPilotAppend("pilot.append");

}  // namespace

PilotLog::PilotLog(Fabric* fabric, PmNode* pm, size_t log_capacity_bytes,
                   size_t max_pages)
    : fabric_(fabric),
      pm_(pm),
      pm_client_(fabric, pm),
      log_capacity_(log_capacity_bytes),
      max_pages_(max_pages) {
  auto control = pm_->AllocLocal(16);
  DISAGG_CHECK(control.ok());
  control_offset_ = control->offset;
  auto log = pm_->AllocLocal(log_capacity_);
  DISAGG_CHECK(log.ok());
  log_offset_ = log->offset;
  auto pages = pm_->AllocLocal(max_pages_ * kPageSize);
  DISAGG_CHECK(pages.ok());
  pages_offset_ = pages->offset;

  fabric_->node(pm_->node())
      ->RegisterHandler(kPilotAppend,
                        [this](Slice req, std::string* resp,
                               RpcServerContext* sctx) {
                          return HandleRpcAppend(req, resp, sctx);
                        });
}

Status PilotLog::CreatePage(NetContext* ctx, const Page& page) {
  uint64_t frame_offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (page_dir_.count(page.page_id())) {
      return Status::InvalidArgument("page already exists");
    }
    if (page_dir_.size() >= max_pages_) {
      return Status::Unavailable("PM page area full");
    }
    frame_offset = pages_offset_ + page_dir_.size() * kPageSize;
    page_dir_[page.page_id()] = frame_offset;
  }
  return pm_client_.WritePersistRpc(ctx, At(frame_offset),
                                    Slice(page.data(), kPageSize));
}

Status PilotLog::ReadControl(NetContext* ctx, uint64_t* tail,
                             uint64_t* applied) {
  char buf[16];
  DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, At(control_offset_), buf, 16));
  *tail = DecodeFixed64(buf);
  *applied = DecodeFixed64(buf + 8);
  return Status::OK();
}

Status PilotLog::AppendLog(NetContext* ctx,
                           const std::vector<LogRecord>& records,
                           LogMode mode) {
  std::string payload;
  for (const LogRecord& r : records) {
    std::string one;
    r.EncodeTo(&one);
    PutFixed32(&payload, static_cast<uint32_t>(one.size()));
    payload += one;
  }
  stats_.appends++;

  if (mode == LogMode::kRpc) {
    std::string resp;
    return fabric_->Call(ctx, pm_->node(), kPilotAppend, payload, &resp);
  }

  // Compute-driven logging: FAA reserves space, one-sided WRITE lands the
  // records, flush-read persists them. The PM server CPU never runs.
  auto prev = fabric_->FetchAdd(ctx, At(control_offset_), payload.size());
  if (!prev.ok()) return prev.status();
  if (*prev + payload.size() > log_capacity_) {
    return Status::Unavailable("PM log full");
  }
  PmClient client(fabric_, pm_);
  DISAGG_RETURN_NOT_OK(
      client.WriteUnsafe(ctx, At(log_offset_ + *prev), payload));
  return client.FlushRead(ctx, At(log_offset_ + *prev));
}

Status PilotLog::HandleRpcAppend(Slice req, std::string* resp,
                                 RpcServerContext* sctx) {
  MemoryRegion* region = fabric_->node(pm_->node())->region(pm_->region());
  char* base = region->data();
  uint64_t tail = DecodeFixed64(base + control_offset_);
  if (tail + req.size() > log_capacity_) {
    return Status::Unavailable("PM log full");
  }
  std::memcpy(base + log_offset_ + tail, req.data(), req.size());
  EncodeFixed64(base + control_offset_, tail + req.size());
  sctx->ChargeCompute(
      400 + static_cast<uint64_t>(PmNode::kMediaWriteNsPerByte * req.size()));
  resp->clear();
  return Status::OK();
}

Result<Page> PilotLog::ReadPage(NetContext* ctx, PageId id, Lsn expected_lsn) {
  uint64_t frame_offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_dir_.find(id);
    if (it == page_dir_.end()) return Status::NotFound("no such PM page");
    frame_offset = it->second;
  }
  Page page(id);
  DISAGG_RETURN_NOT_OK(
      pm_client_.ReadRemote(ctx, At(frame_offset), page.data(), kPageSize));
  if (page.lsn() >= expected_lsn) {
    stats_.fast_reads++;
    return page;
  }

  // Optimistic read failed validation: pull the unapplied log suffix and
  // replay it locally.
  stats_.replay_reads++;
  uint64_t tail = 0, applied = 0;
  DISAGG_RETURN_NOT_OK(ReadControl(ctx, &tail, &applied));
  if (tail > applied) {
    std::string buf(tail - applied, '\0');
    DISAGG_RETURN_NOT_OK(pm_client_.ReadRemote(
        ctx, At(log_offset_ + applied), buf.data(), buf.size()));
    Slice in(buf);
    while (in.size() >= 4) {
      uint32_t len = 0;
      DISAGG_CHECK(GetFixed32(&in, &len));
      if (in.size() < len) break;  // torn tail (concurrent append)
      Slice rec_bytes(in.data(), len);
      in.remove_prefix(len);
      auto rec = LogRecord::DecodeFrom(&rec_bytes);
      if (!rec.ok()) return rec.status();
      if (rec->page_id != id) continue;
      DISAGG_RETURN_NOT_OK(ApplyRedo(&page, *rec));
      stats_.replayed_records++;
      // Local replay CPU cost.
      ctx->Charge(250);
    }
  }
  if (page.lsn() < expected_lsn) {
    return Status::Unavailable("log replay did not reach the expected LSN");
  }
  return page;
}

size_t PilotLog::ApplyOnPmSide(size_t max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryRegion* region = fabric_->node(pm_->node())->region(pm_->region());
  char* base = region->data();
  uint64_t tail = DecodeFixed64(base + control_offset_);
  uint64_t applied = DecodeFixed64(base + control_offset_ + 8);
  size_t count = 0;
  while (applied < tail && count < max_records) {
    if (tail - applied < 4) break;
    const uint32_t len = DecodeFixed32(base + log_offset_ + applied);
    if (tail - applied - 4 < len) break;  // record not fully written yet
    Slice rec_bytes(base + log_offset_ + applied + 4, len);
    auto rec = LogRecord::DecodeFrom(&rec_bytes);
    if (!rec.ok()) break;
    auto it = page_dir_.find(rec->page_id);
    if (it != page_dir_.end()) {
      // Apply in place on the PM-resident frame.
      Page page(rec->page_id);
      std::memcpy(page.data(), base + it->second, kPageSize);
      if (ApplyRedo(&page, *rec).ok()) {
        std::memcpy(base + it->second, page.data(), kPageSize);
      }
    }
    applied += 4 + len;
    count++;
  }
  EncodeFixed64(base + control_offset_ + 8, applied);
  return count;
}

uint64_t PilotLog::UnappliedBytes() const {
  MemoryRegion* region = fabric_->node(pm_->node())->region(pm_->region());
  const char* base = region->data();
  return DecodeFixed64(base + control_offset_) -
         DecodeFixed64(base + control_offset_ + 8);
}

}  // namespace disagg
