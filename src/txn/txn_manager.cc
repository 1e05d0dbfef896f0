#include "txn/txn_manager.h"

namespace disagg {

TxnId TxnManager::Begin() {
  const TxnId txn = next_txn_.fetch_add(1);
  LogRecord begin;
  begin.txn_id = txn;
  begin.type = LogType::kTxnBegin;
  begin.page_id = kInvalidPageId;
  wal_->Append(std::move(begin));
  std::lock_guard<std::mutex> lock(mu_);
  undo_[txn] = {};
  return txn;
}

Lsn TxnManager::LogAndTrack(TxnId txn, LogRecord record) {
  const Lsn lsn = wal_->Append(&record);  // stamps lsn/prev_lsn
  {
    std::lock_guard<std::mutex> lock(mu_);
    undo_[txn].push_back(std::move(record));
  }
  return lsn;
}

Lsn TxnManager::LogInsert(TxnId txn, PageId page, uint16_t slot, Slice after,
                          uint64_t row_key) {
  LogRecord r;
  r.txn_id = txn;
  r.type = LogType::kInsert;
  r.page_id = page;
  r.slot = slot;
  r.row_key = row_key;
  r.payload = after.ToString();
  return LogAndTrack(txn, std::move(r));
}

Lsn TxnManager::LogUpdate(TxnId txn, PageId page, uint16_t slot, Slice before,
                          Slice after, uint64_t row_key) {
  LogRecord r;
  r.txn_id = txn;
  r.type = LogType::kUpdate;
  r.page_id = page;
  r.slot = slot;
  r.row_key = row_key;
  r.payload = after.ToString();
  r.undo_payload = before.ToString();
  return LogAndTrack(txn, std::move(r));
}

Lsn TxnManager::LogDelete(TxnId txn, PageId page, uint16_t slot, Slice before,
                          uint64_t row_key) {
  LogRecord r;
  r.txn_id = txn;
  r.type = LogType::kDelete;
  r.page_id = page;
  r.slot = slot;
  r.row_key = row_key;
  r.undo_payload = before.ToString();
  return LogAndTrack(txn, std::move(r));
}

Status TxnManager::Commit(NetContext* ctx, TxnId txn,
                          std::vector<LogRecord>* records) {
  LogRecord commit;
  commit.txn_id = txn;
  commit.type = LogType::kTxnCommit;
  commit.page_id = kInvalidPageId;
  wal_->Append(std::move(commit));
  wal_->EndTxn(txn);
  Status st = wal_->Flush(ctx);  // durability point
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = undo_.find(txn);
    if (it != undo_.end()) {
      if (records != nullptr) *records = std::move(it->second);
      undo_.erase(it);
    }
  }
  locks_->ReleaseAllLocks(ctx, txn);
  return st;
}

std::vector<LogRecord> TxnManager::Abort(NetContext* ctx, TxnId txn) {
  std::vector<LogRecord> updates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = undo_.find(txn);
    if (it != undo_.end()) {
      updates.assign(it->second.rbegin(), it->second.rend());
      undo_.erase(it);
    }
  }
  // ARIES: a runtime rollback logs compensation records so that recovery
  // REDOES the rollback instead of replaying the aborted work. Insert/update
  // CLRs are fully determined here; delete-undo CLRs need the fresh slot the
  // engine re-inserts into, so the engine logs those via LogClr.
  for (const LogRecord& r : updates) {
    if (r.type == LogType::kInsert) {
      LogClr(txn, r.page_id, r.slot, "", r.lsn);
    } else if (r.type == LogType::kUpdate) {
      LogClr(txn, r.page_id, r.slot, r.undo_payload, r.lsn);
    }
  }
  LogRecord abort;
  abort.txn_id = txn;
  abort.type = LogType::kTxnAbort;
  abort.page_id = kInvalidPageId;
  wal_->Append(std::move(abort));
  locks_->ReleaseAllLocks(ctx, txn);
  return updates;
}

void TxnManager::EndReadOnly(NetContext* ctx, TxnId txn) {
  wal_->EndTxn(txn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    undo_.erase(txn);
  }
  locks_->ReleaseAllLocks(ctx, txn);
}

Lsn TxnManager::LogClr(TxnId txn, PageId page, uint16_t slot,
                       Slice restored_image, Lsn compensated_lsn) {
  LogRecord clr;
  clr.txn_id = txn;
  clr.type = LogType::kClr;
  clr.page_id = page;
  clr.slot = slot;
  clr.payload = restored_image.ToString();
  clr.compensates_lsn = compensated_lsn;
  return wal_->Append(&clr);
}

size_t TxnManager::active_txns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return undo_.size();
}

}  // namespace disagg
