#ifndef DISAGG_STORAGE_LOG_RECORD_H_
#define DISAGG_STORAGE_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/page.h"

namespace disagg {

using TxnId = uint64_t;

/// Kind of redo/undo record. The physical kinds carry enough state to both
/// redo (after-image) and undo (before-image) a slot operation, which is what
/// ARIES-style recovery and log-as-the-database materialization need.
enum class LogType : uint8_t {
  kInsert = 1,   // payload = after-image; applied as page insert
  kUpdate = 2,   // payload = after-image, undo_payload = before-image
  kDelete = 3,   // undo_payload = before-image
  kTxnBegin = 4,
  kTxnCommit = 5,
  kTxnAbort = 6,
  kCheckpoint = 7,  // payload = serialized checkpoint metadata
  kClr = 8,         // compensation record written during undo
};

/// One record of an encoded batch, located without decoding it: the fields
/// storage routes and orders by, plus the record's exact encoded bytes
/// (pointing into the scanned buffer, which must outlive the span).
struct LogRecordSpan {
  Lsn lsn = kInvalidLsn;
  PageId page_id = kInvalidPageId;
  Slice bytes;
};

/// A single write-ahead-log record. This is the unit Aurora ships over the
/// network instead of pages ("the log is the database") and the unit PilotDB
/// writes to the PM tier with one-sided RDMA.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;  // previous record of the same transaction
  TxnId txn_id = 0;
  LogType type = LogType::kInsert;
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;
  /// Engine-level row key the record concerns (0 when inapplicable); lets
  /// the compute node maintain its key index during rollback/recovery.
  uint64_t row_key = 0;
  /// For CLRs: the LSN of the record this CLR compensates (ARIES's
  /// undoNextLSN role) — recovery skips re-undoing compensated records.
  Lsn compensates_lsn = kInvalidLsn;
  std::string payload;       // after-image (redo)
  std::string undo_payload;  // before-image (undo)

  /// Serialized length in bytes (what gets charged to the network).
  size_t EncodedSize() const;
  void EncodeTo(std::string* dst) const;
  static Result<LogRecord> DecodeFrom(Slice* input);

  /// Encodes a batch of records into one buffer (group shipping):
  /// varint(count) followed by each record's encoding.
  static std::string EncodeBatch(const std::vector<LogRecord>& records);
  static Result<std::vector<LogRecord>> DecodeBatch(Slice input);
  /// Splits an encoded batch into per-record spans without allocating
  /// records. Accepts and rejects exactly the inputs DecodeBatch does, and
  /// DecodeFrom on a span's bytes yields the record DecodeBatch would.
  static Result<std::vector<LogRecordSpan>> ScanBatch(Slice input);
};

/// Log records kept encoded: their encodings back to back, each indexed by
/// LSN and start offset. This is the one form redo takes between the
/// compute node's WAL flush and page materialization — a segment client's
/// append history, a log store's log, and each page's pending redo — so
/// records are encoded once and decoded only when a consumer needs them.
class EncodedRecords {
 public:
  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  Lsn lsn(size_t i) const { return index_[i].lsn; }
  /// Record `i`'s encoding.
  Slice record(size_t i) const;

  /// Appends one record's encoding (e.g. a `LogRecordSpan`'s bytes).
  void Append(Lsn lsn, Slice encoding);
  /// Encodes `record` and appends it.
  void Append(const LogRecord& record);

  /// Records [from, from + count) in `LogRecord::EncodeBatch`'s format.
  std::string Batch(size_t from, size_t count) const;
  /// Decodes records [from, size()).
  std::vector<LogRecord> Decode(size_t from) const;
  /// Position of the first record with an LSN above `lsn`. Requires the
  /// records to be in increasing LSN order.
  size_t FirstAfter(Lsn lsn) const;

  /// Drops the first `n` records.
  void EraseFront(size_t n);
  void Clear();

 private:
  struct Entry {
    Lsn lsn;
    size_t offset;
  };
  // Where record `i` starts; bytes_.size() for i == size().
  size_t OffsetOf(size_t i) const;

  std::string bytes_;
  std::vector<Entry> index_;
};

/// Applies a redo record to a page. Idempotent: records at or below the
/// page's LSN are skipped, so replaying a log prefix any number of times
/// converges to the same page image (tested as a property).
Status ApplyRedo(Page* page, const LogRecord& record);

}  // namespace disagg

#endif  // DISAGG_STORAGE_LOG_RECORD_H_
