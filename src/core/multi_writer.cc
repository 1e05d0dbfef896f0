#include "core/multi_writer.h"

#include "common/logging.h"
#include "txn/wal.h"

namespace disagg {

MultiWriterDb::MultiWriterDb(Fabric* fabric, size_t max_pages,
                             ReplicatedSegment::Config storage_config,
                             EngineLogConfig log)
    : fabric_(fabric) {
  pool_ = std::make_unique<MemoryNode>(
      fabric_, "multiwriter-pool",
      (max_pages + 16) * kPageSize + max_pages * 64 + (1 << 20));
  home_ = std::make_unique<SharedBufferPoolHome>(fabric_, pool_.get(),
                                                 max_pages);
  auto locks = pool_->AllocLocal(kLockSlots * 8);
  DISAGG_CHECK(locks.ok());
  lock_table_ = *locks;
  if (log.mode == EngineLogConfig::Mode::kShared) {
    DISAGG_CHECK(log.shared_log != nullptr);
    log_backend_ = std::make_unique<SharedLogBackend>(
        log.shared_log->fabric(), log.shared_log, log.tag);
  } else {
    auto sink = std::make_unique<QuorumSink>(fabric_, storage_config,
                                             "multiwriter-seg");
    segment_ = sink->segment();
    log_backend_ = std::move(sink);
  }
}

std::unique_ptr<MultiWriterDb::Writer> MultiWriterDb::AttachWriter(
    size_t local_cache_pages) {
  return std::make_unique<Writer>(this, local_cache_pages);
}

MultiWriterDb::Writer::Writer(MultiWriterDb* db, size_t local_cache_pages)
    : db_(db),
      pool_client_(db->fabric_, db->home_.get(), local_cache_pages),
      writer_id_(db->next_writer_id_.fetch_add(1)) {}

Status MultiWriterDb::Writer::LockKey(NetContext* ctx, uint64_t key) {
  auto observed =
      db_->fabric_->CompareAndSwap(ctx, db_->LockAddr(key), 0, writer_id_);
  if (!observed.ok()) return observed.status();
  if (*observed != 0) {
    stats_.lock_conflicts++;
    return Status::Busy("row locked by writer " + std::to_string(*observed));
  }
  return Status::OK();
}

Status MultiWriterDb::Writer::UnlockKey(NetContext* ctx, uint64_t key) {
  auto observed = db_->fabric_->CompareAndSwap(ctx, db_->LockAddr(key),
                                               writer_id_, 0);
  if (!observed.ok()) return observed.status();
  return *observed == writer_id_
             ? Status::OK()
             : Status::Corruption("lock word clobbered");
}

Status MultiWriterDb::FenceWriter(NetContext* ctx, uint64_t writer_id) {
  for (size_t slot = 0; slot < kLockSlots; slot++) {
    GlobalAddr addr = lock_table_;
    addr.offset += slot * 8;
    auto observed = fabric_->CompareAndSwap(ctx, addr, writer_id, 0);
    if (!observed.ok()) return observed.status();
  }
  return Status::OK();
}

Status MultiWriterDb::Writer::Put(NetContext* ctx, uint64_t key, Slice row) {
  DISAGG_RETURN_NOT_OK(LockKey(ctx, key));
  Status st = [&]() -> Status {
    // Is the key already placed?
    bool exists = false;
    RowLoc loc{};
    {
      std::lock_guard<std::mutex> lock(db_->index_mu_);
      auto it = db_->index_.find(key);
      if (it != db_->index_.end()) {
        exists = true;
        loc = it->second;
      }
    }

    LogRecord rec;
    rec.lsn = db_->next_lsn_.fetch_add(1);
    rec.txn_id = writer_id_;
    rec.row_key = key;

    bool grow_update = false;
    std::string old_payload;
    if (exists) {
      // Row locks serialize writers per KEY, but distinct keys share pages,
      // so the page read-modify-write must be optimistic: publish only if
      // the page is still at the version we read (Busy -> caller retries).
      uint64_t page_version = 0;
      DISAGG_ASSIGN_OR_RETURN(
          Page page, pool_client_.ReadPage(ctx, loc.page, &page_version));
      auto before = page.Get(loc.slot);
      if (!before.ok()) return before.status();
      if (row.size() <= before->size()) {
        rec.type = LogType::kUpdate;
        rec.page_id = loc.page;
        rec.slot = loc.slot;
        rec.payload = row.ToString();
        DISAGG_RETURN_NOT_OK(
            db_->log_backend_->Append(ctx, EncodedRecords({rec})).status());
        DISAGG_RETURN_NOT_OK(page.Update(loc.slot, row));
        page.set_lsn(rec.lsn);
        return pool_client_.WritePageIf(ctx, page, page_version);
      }
      // Grow-update: insert the larger copy first, repoint the index, THEN
      // tombstone the old slot (below). Tombstoning first would leave the
      // index aimed at a dead slot if any later step aborts with Busy.
      grow_update = true;
      old_payload = before->ToString();
    }

    // Insert into this writer's private insert page. Inserts never contend
    // with other writers' inserts, but other writers can update rows that
    // live on this page, so the publish is version-checked too.
    Page page(kInvalidPageId);
    uint64_t page_version = 0;
    bool fresh = false;
    if (insert_page_ != kInvalidPageId) {
      DISAGG_ASSIGN_OR_RETURN(
          page, pool_client_.ReadPage(ctx, insert_page_, &page_version));
      if (page.FreeSpace() < row.size()) fresh = true;
    } else {
      fresh = true;
    }
    if (fresh) {
      insert_page_ = db_->next_page_id_.fetch_add(1);
      page = Page(insert_page_);
      page_version = 0;  // nobody has published this page yet
    }
    rec.type = LogType::kInsert;
    rec.page_id = page.page_id();
    rec.slot = page.slot_count();
    rec.payload = row.ToString();
    DISAGG_RETURN_NOT_OK(
        db_->log_backend_->Append(ctx, EncodedRecords({rec})).status());
    auto slot = page.Insert(row);
    if (!slot.ok()) return slot.status();
    page.set_lsn(rec.lsn);
    DISAGG_RETURN_NOT_OK(pool_client_.WritePageIf(ctx, page, page_version));
    {
      std::lock_guard<std::mutex> lock(db_->index_mu_);
      db_->index_[key] = RowLoc{page.page_id(), *slot};
    }

    if (grow_update) {
      // The index now points at the new copy; reclaim the old slot. Another
      // writer may publish the old page concurrently, so re-read and retry
      // the version-checked tombstone. On persistent conflict the old slot
      // is left as an unreferenced ghost record — safe, merely unreclaimed.
      LogRecord del;
      del.lsn = db_->next_lsn_.fetch_add(1);
      del.txn_id = writer_id_;
      del.row_key = key;
      del.type = LogType::kDelete;
      del.page_id = loc.page;
      del.slot = loc.slot;
      del.undo_payload = old_payload;
      DISAGG_RETURN_NOT_OK(
          db_->log_backend_->Append(ctx, EncodedRecords({del})).status());
      for (int attempt = 0; attempt < 64; attempt++) {
        uint64_t old_version = 0;
        DISAGG_ASSIGN_OR_RETURN(
            Page old_page, pool_client_.ReadPage(ctx, loc.page, &old_version));
        DISAGG_RETURN_NOT_OK(old_page.Delete(loc.slot));
        old_page.set_lsn(del.lsn);
        Status st = pool_client_.WritePageIf(ctx, old_page, old_version);
        if (!st.IsBusy()) return st;
      }
    }
    return Status::OK();
  }();
  Status unlock = UnlockKey(ctx, key);
  if (st.ok()) {
    st = unlock;
    stats_.commits++;
  }
  return st;
}

Result<std::string> MultiWriterDb::Writer::Get(NetContext* ctx, uint64_t key) {
  RowLoc loc{};
  {
    std::lock_guard<std::mutex> lock(db_->index_mu_);
    auto it = db_->index_.find(key);
    if (it == db_->index_.end()) return Status::NotFound("no such key");
    loc = it->second;
  }
  DISAGG_ASSIGN_OR_RETURN(Page page, pool_client_.ReadPage(ctx, loc.page));
  DISAGG_ASSIGN_OR_RETURN(Slice row, page.Get(loc.slot));
  return row.ToString();
}

}  // namespace disagg
