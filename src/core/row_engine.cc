#include "core/row_engine.h"

#include "common/logging.h"
#include "log/shared_log.h"
#include "memnode/executor.h"
#include "txn/recovery.h"

namespace disagg {

RowEngine::RowEngine(std::unique_ptr<LogBackend> sink)
    : sink_(std::move(sink)), wal_(sink_.get()), tm_(&wal_, &locks_) {}

RowEngine::~RowEngine() = default;

void RowEngine::AdoptSharedLog(std::unique_ptr<SharedLogService> shared_log) {
  owned_shared_log_ = std::move(shared_log);
}

void RowEngine::AdoptConcurrencyOffload(
    std::unique_ptr<ConcurrencyOffload> offload) {
  owned_offload_ = std::move(offload);
  tm_.set_lock_backend(owned_offload_->lock_client());
}

Result<Page*> RowEngine::GetPage(NetContext* ctx, PageId id) {
  auto it = buffer_.find(id);
  if (it != buffer_.end()) {
    ctx->Charge(InterconnectModel::LocalDram().ReadCost(kPageSize));
    return &it->second;
  }
  stats_.page_fetches++;
  DISAGG_ASSIGN_OR_RETURN(Page page, FetchPage(ctx, id));
  auto [nit, inserted] = buffer_.emplace(id, std::move(page));
  return &nit->second;
}

Result<Page*> RowEngine::GetPageForRead(NetContext* ctx, PageId id) {
  auto page = GetPage(ctx, id);
  if (page.ok() || !degrade_.enabled || !DegradeEligible(page.status())) {
    return page;
  }
  auto stale = FetchPageDegraded(ctx, id);
  if (!stale.ok()) return page.status();  // ladder exhausted: original error
  const Lsn required = RequiredPageLsn(id);
  const Lsn have = stale->lsn();
  const uint64_t staleness = required > have ? required - have : 0;
  if (staleness > degrade_.max_staleness_lsn) return page.status();
  ctx->degraded_ops++;
  ctx->staleness_lsn += staleness;
  stats_.degraded_fetches++;
  degraded_scratch_ = std::move(*stale);
  return &*degraded_scratch_;
}

Result<Page*> RowEngine::PageForInsert(NetContext* ctx, size_t bytes) {
  if (insert_page_ != kInvalidPageId) {
    auto page = GetPage(ctx, insert_page_);
    if (page.ok() && (*page)->FreeSpace() >= bytes) return *page;
  }
  insert_page_ = next_page_id_++;
  auto [it, inserted] = buffer_.emplace(insert_page_, Page(insert_page_));
  return &it->second;
}

Status RowEngine::Insert(NetContext* ctx, TxnId txn, uint64_t key, Slice row) {
  DISAGG_RETURN_NOT_OK(tm_.LockExclusive(ctx, txn, key));
  if (index_.Find(key) != nullptr) {
    return Status::InvalidArgument("key exists");
  }
  DISAGG_ASSIGN_OR_RETURN(Page * page, PageForInsert(ctx, row.size()));
  const uint16_t slot = page->slot_count();
  const Lsn lsn = tm_.LogInsert(txn, page->page_id(), slot, row, key);
  auto got = page->Insert(row);
  if (!got.ok()) return got.status();
  DISAGG_CHECK(*got == slot);
  page->set_lsn(lsn);
  dirty_.insert(page->page_id());
  index_[key] = RowLoc{page->page_id(), slot};
  return Status::OK();
}

Status RowEngine::Update(NetContext* ctx, TxnId txn, uint64_t key, Slice row) {
  DISAGG_RETURN_NOT_OK(tm_.LockExclusive(ctx, txn, key));
  RowLoc* loc = index_.Find(key);
  if (loc == nullptr) return Status::NotFound("no such key");
  DISAGG_ASSIGN_OR_RETURN(Page * page, GetPage(ctx, loc->page));
  DISAGG_ASSIGN_OR_RETURN(Slice before, page->Get(loc->slot));
  if (row.size() <= before.size()) {
    const Lsn lsn =
        tm_.LogUpdate(txn, page->page_id(), loc->slot, before, row, key);
    DISAGG_RETURN_NOT_OK(page->Update(loc->slot, row));
    page->set_lsn(lsn);
    dirty_.insert(page->page_id());
    return Status::OK();
  }
  // Grow-update: delete + insert elsewhere.
  const Lsn del_lsn =
      tm_.LogDelete(txn, page->page_id(), loc->slot, before, key);
  DISAGG_RETURN_NOT_OK(page->Delete(loc->slot));
  page->set_lsn(del_lsn);
  dirty_.insert(page->page_id());
  DISAGG_ASSIGN_OR_RETURN(Page * npage, PageForInsert(ctx, row.size()));
  const uint16_t slot = npage->slot_count();
  const Lsn ins_lsn = tm_.LogInsert(txn, npage->page_id(), slot, row, key);
  auto got = npage->Insert(row);
  if (!got.ok()) return got.status();
  npage->set_lsn(ins_lsn);
  dirty_.insert(npage->page_id());
  *loc = RowLoc{npage->page_id(), slot};
  return Status::OK();
}

Status RowEngine::Delete(NetContext* ctx, TxnId txn, uint64_t key) {
  DISAGG_RETURN_NOT_OK(tm_.LockExclusive(ctx, txn, key));
  const RowLoc* loc = index_.Find(key);
  if (loc == nullptr) return Status::NotFound("no such key");
  DISAGG_ASSIGN_OR_RETURN(Page * page, GetPage(ctx, loc->page));
  DISAGG_ASSIGN_OR_RETURN(Slice before, page->Get(loc->slot));
  const Lsn lsn = tm_.LogDelete(txn, page->page_id(), loc->slot, before, key);
  DISAGG_RETURN_NOT_OK(page->Delete(loc->slot));
  page->set_lsn(lsn);
  dirty_.insert(page->page_id());
  index_.Erase(key);
  return Status::OK();
}

Status RowEngine::Read(NetContext* ctx, TxnId txn, uint64_t key,
                       std::string* row) {
  // Explicit-transaction reads are strict: the transaction may go on to
  // write values computed from what it read, and a bounded-staleness input
  // would silently corrupt that write (lost update). Only the autocommit
  // read-only paths (`GetRow` / `GetRowReadOnly`) may use the degrade
  // ladder.
  return ReadImpl(ctx, txn, key, /*allow_degraded=*/false, row);
}

Result<std::string> RowEngine::Read(NetContext* ctx, TxnId txn, uint64_t key) {
  std::string row;
  DISAGG_RETURN_NOT_OK(Read(ctx, txn, key, &row));
  return row;
}

Status RowEngine::ReadImpl(NetContext* ctx, TxnId txn, uint64_t key,
                           bool allow_degraded, std::string* row) {
  DISAGG_RETURN_NOT_OK(tm_.LockShared(ctx, txn, key));
  const RowLoc* loc = index_.Find(key);
  if (loc == nullptr) return Status::NotFound("no such key");
  auto page = allow_degraded ? GetPageForRead(ctx, loc->page)
                             : GetPage(ctx, loc->page);
  if (!page.ok()) return page.status();
  DISAGG_ASSIGN_OR_RETURN(Slice got, (*page)->Get(loc->slot));
  row->assign(got.data(), got.size());
  return Status::OK();
}

Status RowEngine::Commit(NetContext* ctx, TxnId txn) {
  // Durability point; the hook runs only once the commit is durable.
  return tm_.Commit(ctx, txn, [&](std::span<const LogRecord> records) {
    stats_.commits++;
    return OnCommit(ctx, records);
  });
}

Status RowEngine::Abort(NetContext* ctx, TxnId txn) {
  const std::vector<LogRecord> undo = tm_.Abort(ctx, txn);  // newest first
  stats_.aborts++;
  auto rollback = [&]() -> Status {
    for (const LogRecord& r : undo) {
      DISAGG_ASSIGN_OR_RETURN(Page * page, GetPage(ctx, r.page_id));
      switch (r.type) {
        case LogType::kInsert: {
          DISAGG_RETURN_NOT_OK(page->Delete(r.slot));
          const RowLoc* loc = index_.Find(r.row_key);
          if (loc != nullptr && loc->page == r.page_id &&
              loc->slot == r.slot) {
            index_.Erase(r.row_key);
          }
          break;
        }
        case LogType::kUpdate:
          DISAGG_RETURN_NOT_OK(page->Update(r.slot, r.undo_payload));
          break;
        case LogType::kDelete: {
          // Undo of delete restores the row. Page slots are tombstoned and
          // never reused, so the row re-inserts into a fresh slot and the
          // index entry for the logged key is repointed there. The CLR must
          // carry the fresh slot so recovery can redo this exact rollback.
          auto slot = page->Insert(r.undo_payload);
          if (!slot.ok()) return slot.status();
          index_[r.row_key] = RowLoc{r.page_id, *slot};
          tm_.LogClr(txn, r.page_id, *slot, r.undo_payload, r.lsn);
          break;
        }
        default:
          break;
      }
      dirty_.insert(r.page_id);
    }
    return Status::OK();
  };
  const Status st = rollback();
  tm_.FinishRollback(txn);  // after the delete-undo CLRs above
  return st;
}

Status RowEngine::Put(NetContext* ctx, uint64_t key, Slice row) {
  const TxnId txn = Begin();
  Status st = index_.Find(key) != nullptr ? Update(ctx, txn, key, row)
                                          : Insert(ctx, txn, key, row);
  if (!st.ok()) {
    (void)Abort(ctx, txn);
    return st;
  }
  return Commit(ctx, txn);
}

Result<std::string> RowEngine::GetRow(NetContext* ctx, uint64_t key) {
  const TxnId txn = Begin();
  std::string row;
  const Status st = ReadImpl(ctx, txn, key, /*allow_degraded=*/true, &row);
  if (!st.ok()) {
    (void)Abort(ctx, txn);
    return st;
  }
  DISAGG_RETURN_NOT_OK(Commit(ctx, txn));
  return row;
}

Result<std::string> RowEngine::GetRowReadOnly(NetContext* ctx, uint64_t key) {
  const TxnId txn = Begin();
  std::string row;
  const Status st = ReadImpl(ctx, txn, key, /*allow_degraded=*/true, &row);
  tm_.EndReadOnly(ctx, txn);
  if (!st.ok()) return st;
  return row;
}

Lsn RowEngine::PageLsn(PageId id) const {
  auto it = buffer_.find(id);
  return it == buffer_.end() ? kInvalidLsn : it->second.lsn();
}

void RowEngine::DropBuffer() {
  buffer_.clear();
  dirty_.clear();
  insert_page_ = kInvalidPageId;
}

void RowEngine::NoteDurablePageLsns(std::span<const LogRecord> records) {
  for (const LogRecord& r : records) {
    if (r.page_id == kInvalidPageId) continue;
    Lsn& floor = durable_page_lsn_[r.page_id];
    floor = std::max(floor, r.lsn);
  }
}

Status RowEngine::CrashAndRecover(NetContext* ctx) {
  DISAGG_ASSIGN_OR_RETURN(std::vector<LogRecord> log, sink_->ReadAll(ctx));
  // No checkpoint: the simulated log tiers are never truncated, so a full
  // replay reproduces every page.
  auto out = AriesRecovery::Recover(log, {});
  if (!out.ok()) return out.status();
  // The crashed node's unflushed WAL tail (batches re-buffered by failed
  // flushes) is lost with it: pages are rebuilt from the durable log alone.
  wal_.DiscardBuffered();
  DropBuffer();
  for (auto& [id, page] : out->pages) {
    buffer_.emplace(id, std::move(page));
  }
  return Status::OK();
}

}  // namespace disagg
