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
  LogOfLocked(txn);
  return txn;
}

TxnManager::TxnLog* TxnManager::LogOfLocked(TxnId txn) {
  auto [log, fresh] = active_.TryEmplace(txn);
  if (fresh) {
    if (pool_.empty()) {
      *log = std::make_unique<TxnLog>();
    } else {
      *log = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  return log->get();
}

LogRecord* TxnManager::NextRecord(TxnId txn, LogType type, PageId page,
                                  uint16_t slot, uint64_t row_key) {
  TxnLog* log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log = LogOfLocked(txn);
  }
  if (log->used == log->slots.size()) log->slots.emplace_back();
  LogRecord* r = &log->slots[log->used++];
  r->txn_id = txn;
  r->type = type;
  r->page_id = page;
  r->slot = slot;
  r->row_key = row_key;
  r->compensates_lsn = kInvalidLsn;
  r->payload.clear();
  r->undo_payload.clear();
  return r;
}

Lsn TxnManager::LogInsert(TxnId txn, PageId page, uint16_t slot, Slice after,
                          uint64_t row_key) {
  LogRecord* r = NextRecord(txn, LogType::kInsert, page, slot, row_key);
  r->payload.assign(after.data(), after.size());
  return wal_->Append(r);  // stamps lsn/prev_lsn
}

Lsn TxnManager::LogUpdate(TxnId txn, PageId page, uint16_t slot, Slice before,
                          Slice after, uint64_t row_key) {
  LogRecord* r = NextRecord(txn, LogType::kUpdate, page, slot, row_key);
  r->payload.assign(after.data(), after.size());
  r->undo_payload.assign(before.data(), before.size());
  return wal_->Append(r);
}

Lsn TxnManager::LogDelete(TxnId txn, PageId page, uint16_t slot, Slice before,
                          uint64_t row_key) {
  LogRecord* r = NextRecord(txn, LogType::kDelete, page, slot, row_key);
  r->undo_payload.assign(before.data(), before.size());
  return wal_->Append(r);
}

std::span<const LogRecord> TxnManager::RecordsOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::unique_ptr<TxnLog>* log = active_.Find(txn);
  return log == nullptr ? std::span<const LogRecord>() : (*log)->records();
}

void TxnManager::Retire(TxnId txn, std::vector<LogRecord>* undo) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<TxnLog>* log = active_.Find(txn);
  if (log == nullptr) return;
  if (undo != nullptr) {
    const std::span<const LogRecord> records = (*log)->records();
    undo->assign(records.rbegin(), records.rend());
  }
  (*log)->used = 0;
  pool_.push_back(std::move(*log));
  active_.Erase(txn);
}

Status TxnManager::CommitDurable(NetContext* ctx, TxnId txn) {
  LogRecord commit;
  commit.txn_id = txn;
  commit.type = LogType::kTxnCommit;
  commit.page_id = kInvalidPageId;
  wal_->Append(std::move(commit));  // ends the transaction's LSN chain
  Status st = wal_->Flush(ctx);  // durability point
  locks_->ReleaseAllLocks(ctx, txn);
  return st;
}

std::vector<LogRecord> TxnManager::Abort(NetContext* ctx, TxnId txn) {
  std::vector<LogRecord> updates;
  Retire(txn, &updates);
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
  Retire(txn, nullptr);
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
  return active_.size();
}

}  // namespace disagg
