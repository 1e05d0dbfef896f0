#include "txn/two_tier_aries.h"

namespace disagg {

TwoTierAries::TwoTierAries(Fabric* fabric, MemoryNode* pool,
                           PageSource* storage, LogBackend* log)
    : fabric_(fabric), pool_(pool), storage_(storage), log_(log) {}

Status TwoTierAries::Checkpoint(NetContext* ctx,
                                const std::map<PageId, Page>& pages, Lsn lsn) {
  // Fast tier: page images into the remote memory pool.
  CheckpointMeta meta;
  meta.lsn = lsn;
  for (const auto& [id, page] : pages) {
    GlobalAddr addr;
    auto it = meta_.remote_pages.find(id);
    if (it != meta_.remote_pages.end()) {
      addr = it->second;  // overwrite the previous checkpoint frame
    } else {
      DISAGG_ASSIGN_OR_RETURN(addr, pool_->AllocLocal(kPageSize));
    }
    DISAGG_RETURN_NOT_OK(fabric_->Write(ctx, addr, page.data(), kPageSize));
    meta.remote_pages[id] = addr;
  }
  meta.remote_valid = true;

  // Slow durable tier: same images into disaggregated storage.
  for (const auto& [id, page] : pages) {
    DISAGG_RETURN_NOT_OK(storage_->WritePage(ctx, page));
    storage_checkpoint_[id] = page;
  }
  storage_checkpoint_lsn_ = lsn;
  meta_ = std::move(meta);
  return Status::OK();
}

Result<AriesRecovery::Outcome> TwoTierAries::Recover(NetContext* ctx,
                                                     bool* used_remote) {
  std::map<PageId, Page> base;
  Lsn base_lsn = kInvalidLsn;
  if (meta_.remote_valid) {
    *used_remote = true;
    for (const auto& [id, addr] : meta_.remote_pages) {
      Page page(id);
      DISAGG_RETURN_NOT_OK(fabric_->Read(ctx, addr, page.data(), kPageSize));
      base.emplace(id, std::move(page));
    }
    base_lsn = meta_.lsn;
  } else {
    *used_remote = false;
    for (const auto& [id, snapshot] : storage_checkpoint_) {
      (void)snapshot;
      DISAGG_ASSIGN_OR_RETURN(Page page, storage_->FetchPage(ctx, id));
      base.emplace(id, std::move(page));
    }
    base_lsn = storage_checkpoint_lsn_;
  }

  DISAGG_ASSIGN_OR_RETURN(std::vector<LogRecord> log, log_->ReadAll(ctx));
  // Only the tail beyond the checkpoint needs replay.
  std::vector<LogRecord> tail;
  for (const LogRecord& r : log) {
    if (r.lsn > base_lsn || r.type == LogType::kTxnBegin ||
        r.type == LogType::kTxnCommit || r.type == LogType::kTxnAbort) {
      tail.push_back(r);
    }
  }
  // Local replay CPU cost.
  ctx->Charge(250 * tail.size());
  return AriesRecovery::Recover(tail, std::move(base));
}

}  // namespace disagg
