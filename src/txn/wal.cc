#include "txn/wal.h"

#include <utility>

namespace disagg {

Result<Lsn> LocalDiskSink::Append(NetContext* ctx,
                                  const EncodedRecords& records) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < records.size(); i++) {
    durable_ = std::max(durable_, records.lsn(i));
  }
  records_.Append(records);
  // One fsync'ed sequential write.
  ctx->Charge(model_.WriteCost(records.bytes()));
  ctx->bytes_out += records.bytes();
  return durable_;
}

Result<std::vector<LogRecord>> LocalDiskSink::ReadAll(NetContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx->Charge(model_.ReadCost(records_.bytes()));
  ctx->bytes_in += records_.bytes();
  return records_.Decode(0);
}

Lsn WalManager::Append(LogRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  record->lsn = next_lsn_++;
  Lsn& last = last_lsn_[record->txn_id];
  record->prev_lsn = last;  // kInvalidLsn for the transaction's first record
  last = record->lsn;
  if (record->type == LogType::kTxnCommit) last_lsn_.Erase(record->txn_id);
  buffer_.Append(*record);
  return record->lsn;
}

Status WalManager::Flush(NetContext* ctx) {
  EncodedRecords batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.empty()) return Status::OK();
    std::swap(batch, buffer_);
    std::swap(buffer_, spare_);
  }
  auto lsn = sink_->Append(ctx, batch);
  std::lock_guard<std::mutex> lock(mu_);
  if (!lsn.ok()) {
    // Put the batch back in front of anything appended meanwhile, so a
    // retry does not lose records and ships them in LSN order.
    batch.Append(buffer_);
    std::swap(batch, buffer_);
  } else {
    flushed_lsn_ = std::max(flushed_lsn_, *lsn);
  }
  batch.Clear();
  std::swap(batch, spare_);
  return lsn.status();
}

void WalManager::DiscardBuffered() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.Clear();
}

void WalManager::EndTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  last_lsn_.Erase(txn);
}

size_t WalManager::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

Lsn WalManager::LastLsnOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Lsn* last = last_lsn_.Find(txn);
  return last == nullptr ? kInvalidLsn : *last;
}

}  // namespace disagg
