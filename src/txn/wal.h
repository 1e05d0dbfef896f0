#ifndef DISAGG_TXN_WAL_H_
#define DISAGG_TXN_WAL_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "net/net_context.h"
#include "storage/log_backend.h"
#include "storage/log_record.h"
#include "storage/quorum.h"

namespace disagg {

/// Local-disk sink (the monolithic baseline): records buffered in process,
/// charged at SSD cost per flush.
class LocalDiskSink : public LogBackend {
 public:
  explicit LocalDiskSink(InterconnectModel model = InterconnectModel::Ssd())
      : model_(std::move(model)) {}

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override;
  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override;

  /// Crash helper: everything appended survives (it was fsync'ed).
  size_t record_count() const { return records_.size(); }

 private:
  InterconnectModel model_;
  std::mutex mu_;
  EncodedRecords records_;
  Lsn durable_ = kInvalidLsn;
};

/// Sink writing through an Aurora-style replicated segment quorum. Owns the
/// segment, so the sink's lifetime covers its engine's.
class QuorumSink : public LogBackend {
 public:
  QuorumSink(Fabric* fabric, const ReplicatedSegment::Config& config,
             const std::string& name)
      : segment_(std::make_unique<ReplicatedSegment>(fabric, config, name)) {}

  ReplicatedSegment* segment() { return segment_.get(); }

  Result<Lsn> Append(NetContext* ctx, const EncodedRecords& records) override {
    return segment_->AppendLog(ctx, records);
  }
  Result<std::vector<LogRecord>> ReadAll(NetContext* ctx) override {
    return segment_->ReadLog(ctx);
  }

 private:
  std::unique_ptr<ReplicatedSegment> segment_;
};

/// Write-ahead-log manager on the compute node: allocates LSNs, chains each
/// transaction's records, group-buffers appends, and flushes to the sink at
/// commit (the durability point). Records are encoded once, when appended,
/// and reach the sink as those bytes.
class WalManager {
 public:
  explicit WalManager(LogBackend* sink) : sink_(sink) {}

  /// Stamps `*record` with the next LSN and the transaction's prev_lsn
  /// chain, then buffers its encoding. Returns the assigned LSN. A commit
  /// record is its transaction's last: appending it also ends the chain
  /// (as `EndTxn` does).
  Lsn Append(LogRecord* record);
  Lsn Append(LogRecord&& record) { return Append(&record); }
  Lsn Append(const LogRecord& record) {
    LogRecord r = record;
    return Append(&r);
  }

  /// Flushes all buffered records to the sink (group commit). On failure
  /// they stay buffered, ahead of anything appended meanwhile.
  Status Flush(NetContext* ctx);

  /// Drops every buffered record: a compute-node crash loses the unflushed
  /// tail, so no later flush ships records that recovery never saw. LSNs
  /// are not reused.
  void DiscardBuffered();

  /// Forgets `txn`'s prev_lsn chain once it has logged its last record
  /// (read-only end, or the last CLR of a rollback; a commit record ends
  /// its chain by itself).
  void EndTxn(TxnId txn);

  Lsn next_lsn() const { return next_lsn_; }
  Lsn flushed_lsn() const { return flushed_lsn_; }
  size_t buffered() const;

  /// Last LSN written by `txn` (for prev_lsn chaining); kInvalidLsn if it
  /// has logged nothing or has ended.
  Lsn LastLsnOf(TxnId txn) const;

 private:
  LogBackend* sink_;
  mutable std::mutex mu_;
  Lsn next_lsn_ = 1;
  Lsn flushed_lsn_ = kInvalidLsn;
  EncodedRecords buffer_;
  // The previous flush's buffer, cleared but keeping its chunk, swapped in
  // at the next flush so neither buffer regrows from empty.
  EncodedRecords spare_;
  FlatMap<Lsn> last_lsn_;
};

}  // namespace disagg

#endif  // DISAGG_TXN_WAL_H_
