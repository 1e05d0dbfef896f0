#ifndef DISAGG_STORAGE_LOG_RECORD_H_
#define DISAGG_STORAGE_LOG_RECORD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
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
  /// Writes the encoding (EncodedSize() bytes) at `dst`; returns its end.
  char* EncodeTo(char* dst) const;
  void EncodeTo(std::string* dst) const;
  static Result<LogRecord> DecodeFrom(Slice* input);

  /// Encodes a batch of records into one buffer (group shipping):
  /// varint(count) followed by each record's encoding. The decoders reject
  /// a batch with bytes after its last counted record.
  static std::string EncodeBatch(const std::vector<LogRecord>& records);
  static Result<std::vector<LogRecord>> DecodeBatch(Slice input);
  /// Splits an encoded batch into per-record spans in `*out` (cleared
  /// first, capacity kept) without allocating records. Accepts and rejects
  /// exactly the inputs DecodeBatch does, and DecodeFrom on a span's bytes
  /// yields the record DecodeBatch would. On failure `*out` is empty.
  static Status ScanBatch(Slice input, std::vector<LogRecordSpan>* out);
};

/// Log records kept encoded, each indexed by LSN as a span of a refcounted
/// buffer. This is the one form redo takes between the compute node's WAL
/// append and page materialization — the WAL buffer, a segment client's
/// append history, a log store's log, and each page's pending redo — so
/// records are encoded once and decoded only when a consumer needs them.
///
/// Records arrive two ways. Owned appends (`Append(record)`) encode into a
/// tail chunk these records own; chunks grow geometrically up to
/// `kMaxChunkBytes`, and a record that does not fit starts a new one, sized
/// to hold it if it is larger than the next step. By-reference appends index
/// a span of a buffer someone else built (a request batch, another
/// `EncodedRecords`' chunk) and keep that buffer alive instead of copying
/// it, so one batch can sit in many stores at once.
///
/// Bytes are immutable once indexed: a `record(i)` slice stays valid until
/// the record is erased, whoever else holds or drops the buffer. `Clear`
/// recycles the tail chunk only when no other holder shares it, so a buffer
/// that is filled and cleared repeatedly (the WAL) stops allocating once it
/// has grown to its working size.
class EncodedRecords {
 public:
  static constexpr size_t kMinChunkBytes = 256;
  static constexpr size_t kMaxChunkBytes = 64 * 1024;

  EncodedRecords() = default;
  /// Encodes `records` in order.
  explicit EncodedRecords(const std::vector<LogRecord>& records);
  // Move-only: two copies would both write into the same tail chunk.
  EncodedRecords(EncodedRecords&&) = default;
  EncodedRecords& operator=(EncodedRecords&&) = default;
  EncodedRecords(const EncodedRecords&) = delete;
  EncodedRecords& operator=(const EncodedRecords&) = delete;

  size_t size() const { return index_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Total encoded bytes of the records held.
  size_t bytes() const { return bytes_; }
  Lsn lsn(size_t i) const { return index_[head_ + i].lsn; }
  /// Record `i`'s encoding.
  Slice record(size_t i) const {
    const Entry& e = index_[head_ + i];
    return Slice(buffers_[e.buffer - first_buffer_].get() + e.offset,
                 e.length);
  }

  /// Encodes `record` and appends it.
  void Append(const LogRecord& record);
  /// Appends, by reference, the record encoded in the `length` bytes at
  /// `offset` of `*buffer`, keeping `buffer` alive (no copy).
  void Append(Lsn lsn, const SharedBytes& buffer, size_t offset,
              size_t length);
  /// Appends record `i` of `records` by reference, sharing its buffer.
  void Append(const EncodedRecords& records, size_t i);
  /// Appends every record of `records`, in order, by reference.
  void Append(const EncodedRecords& records);

  /// Records [from, from + count) in `LogRecord::EncodeBatch`'s format.
  std::string Batch(size_t from, size_t count) const;
  /// Decodes records [from, size()).
  std::vector<LogRecord> Decode(size_t from) const;
  /// Position of the first record with an LSN above `lsn`. Requires the
  /// records to be in increasing LSN order.
  size_t FirstAfter(Lsn lsn) const;

  /// Drops the first `n` records, releasing the buffers that held only
  /// them.
  void EraseFront(size_t n);
  /// Drops every record; keeps the tail chunk for reuse unless another
  /// holder shares it.
  void Clear();

 private:
  // Record bytes are `length` bytes at `offset` of buffer `buffer` (a
  // sequence number: buffers_[buffer - first_buffer_]). Buffer numbers never
  // decrease along the index, so EraseFront releases a prefix of buffers_.
  struct Entry {
    Lsn lsn;
    uint32_t buffer;
    uint32_t offset;
    uint32_t length;
  };
  // Indexes `length` bytes at `offset` of buffers_.back() under `lsn`.
  void Index(Lsn lsn, size_t offset, size_t length);
  // Space for `n` more bytes in the tail chunk, starting a new chunk when
  // they do not fit; indexes a record there under `lsn`.
  char* Place(Lsn lsn, size_t n);

  // Every buffer a live record lies in, each pointing at its first byte and
  // sharing ownership of whatever holds it. The tail chunk appears once per
  // run of owned appends not interrupted by a by-reference one.
  std::vector<std::shared_ptr<const char>> buffers_;
  uint32_t first_buffer_ = 0;  // sequence number of buffers_[0]
  // index_[head_..] are the live records; the erased prefix is compacted
  // away once it outgrows them, so EraseFront is amortized O(n).
  std::vector<Entry> index_;
  size_t head_ = 0;
  size_t bytes_ = 0;
  // The chunk owned appends write into. Only its first `tail_used_` bytes
  // are ever indexed, here or by another holder, and they never change.
  std::shared_ptr<char[]> tail_;
  size_t tail_capacity_ = 0;
  size_t tail_used_ = 0;
};

// Inline: the segment history and every log and page store append each
// record of each commit batch by reference, so these run many times per
// record.
inline void EncodedRecords::Index(Lsn lsn, size_t offset, size_t length) {
  DISAGG_CHECK(offset + length <= UINT32_MAX);  // buffers stay below 4 GiB
  index_.push_back(
      {lsn, first_buffer_ + static_cast<uint32_t>(buffers_.size() - 1),
       static_cast<uint32_t>(offset), static_cast<uint32_t>(length)});
  bytes_ += length;
}

inline void EncodedRecords::Append(Lsn lsn, const SharedBytes& buffer,
                                   size_t offset, size_t length) {
  const char* data = buffer->data();
  if (buffers_.empty() || buffers_.back().get() != data) {
    buffers_.emplace_back(buffer, data);
  }
  Index(lsn, offset, length);
}

/// One redo batch as it ships: bytes in `LogRecord::EncodeBatch`'s format
/// plus the per-record index that one `ScanBatch` of them built, made only
/// by the factories below, so `ScanBatch` stays the one record parser.
///
/// A batch is the request owner of the `log.append` and `page.apply_log`
/// calls that carry it (`LogStoreClient::Append`, `PageStoreClient::
/// ApplyLog`). A handler whose request is exactly the batch's bytes
/// (`RpcServerContext::ExactOwner`) uses the index instead of scanning
/// again, so a commit fanned out to twelve stores is scanned once; any
/// other request is scanned as it arrives. Stores keep the bytes, never
/// the index: the spans live only as long as the batch object.
class RedoBatch final : public RequestOwner {
 public:
  /// Indexes `bytes` with one `ScanBatch`; fails exactly when it does.
  static Result<RedoBatch> Index(SharedBytes bytes);
  /// Encodes `records` into a new batch.
  static RedoBatch Encode(std::span<const LogRecord> records);
  /// Copies records [from, from + count) of `records` into a new batch.
  static RedoBatch Encode(const EncodedRecords& records, size_t from,
                          size_t count);

  /// The batch's bytes as a request.
  Slice request() const { return Slice(*bytes()); }
  /// One span per record, in batch order, each inside `bytes()`.
  const std::vector<LogRecordSpan>& spans() const { return spans_; }

 private:
  RedoBatch(SharedBytes bytes, std::vector<LogRecordSpan> spans);

  std::vector<LogRecordSpan> spans_;
};

/// Applies a redo record to a page. Idempotent: records at or below the
/// page's LSN are skipped, so replaying a log prefix any number of times
/// converges to the same page image (tested as a property).
Status ApplyRedo(Page* page, const LogRecord& record);

}  // namespace disagg

#endif  // DISAGG_STORAGE_LOG_RECORD_H_
