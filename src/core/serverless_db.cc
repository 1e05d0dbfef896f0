#include "core/serverless_db.h"

namespace disagg {

ServerlessDb::ServerlessDb(Fabric* fabric, size_t max_pages,
                           ReplicatedSegment::Config storage_config)
    : fabric_(fabric) {
  pool_ = std::make_unique<MemoryNode>(fabric_, "serverless-pool",
                                       (max_pages + 16) * kPageSize +
                                           max_pages * 64 + (1 << 20));
  home_ = std::make_unique<SharedBufferPoolHome>(fabric_, pool_.get(),
                                                 max_pages);
  segment_ = std::make_unique<ReplicatedSegment>(fabric_, storage_config,
                                                 "serverless-seg");
}

std::unique_ptr<ServerlessDb::Compute> ServerlessDb::AttachCompute(
    size_t local_cache_pages, bool writer) {
  return std::make_unique<Compute>(this, local_cache_pages, writer);
}

ServerlessDb::Compute::Compute(ServerlessDb* db, size_t local_cache_pages,
                               bool writer)
    : db_(db),
      pool_client_(db->fabric_, db->home_.get(), local_cache_pages),
      writer_(writer) {}

Status ServerlessDb::Compute::Put(NetContext* ctx, uint64_t key, Slice row) {
  if (!writer_) {
    return Status::NotSupported("secondary nodes are read-only");
  }
  // Durability first: redo record to the shared storage quorum.
  LogRecord rec;
  rec.lsn = db_->next_lsn_++;
  rec.txn_id = 1;
  auto it = db_->index_.find(key);
  const bool update = it != db_->index_.end();

  if (update) {
    rec.type = LogType::kUpdate;
    rec.page_id = it->second.page;
    rec.slot = it->second.slot;
    rec.payload = row.ToString();
    DISAGG_RETURN_NOT_OK(
        db_->segment_->AppendLog(ctx, EncodedRecords({rec})).status());
    DISAGG_ASSIGN_OR_RETURN(Page page,
                            pool_client_.ReadPage(ctx, it->second.page));
    DISAGG_RETURN_NOT_OK(page.Update(it->second.slot, row));
    page.set_lsn(rec.lsn);
    return pool_client_.WritePage(ctx, page);
  }

  // Insert: pick/extend the shared insert page.
  Page page(kInvalidPageId);
  bool fresh = false;
  if (db_->insert_page_ != kInvalidPageId) {
    DISAGG_ASSIGN_OR_RETURN(page, pool_client_.ReadPage(ctx,
                                                        db_->insert_page_));
    if (page.FreeSpace() < row.size()) fresh = true;
  } else {
    fresh = true;
  }
  if (fresh) {
    db_->insert_page_ = db_->next_page_id_++;
    page = Page(db_->insert_page_);
  }
  rec.type = LogType::kInsert;
  rec.page_id = page.page_id();
  rec.slot = page.slot_count();
  rec.payload = row.ToString();
  DISAGG_RETURN_NOT_OK(
      db_->segment_->AppendLog(ctx, EncodedRecords({rec})).status());
  auto slot = page.Insert(row);
  if (!slot.ok()) return slot.status();
  page.set_lsn(rec.lsn);
  DISAGG_RETURN_NOT_OK(pool_client_.WritePage(ctx, page));
  db_->index_[key] = RowLoc{page.page_id(), *slot};
  return Status::OK();
}

Result<std::string> ServerlessDb::Compute::Get(NetContext* ctx, uint64_t key) {
  auto it = db_->index_.find(key);
  if (it == db_->index_.end()) return Status::NotFound("no such key");
  DISAGG_ASSIGN_OR_RETURN(Page page,
                          pool_client_.ReadPage(ctx, it->second.page));
  DISAGG_ASSIGN_OR_RETURN(Slice row, page.Get(it->second.slot));
  return row.ToString();
}

}  // namespace disagg
