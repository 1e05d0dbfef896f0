#include "storage/log_record.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

namespace {

// The one field parser behind DecodeFrom (kFull) and ScanBatch. Both
// validate every field identically; without kFull only lsn and page_id —
// the fields storage routes and orders by — are decoded, and the rest are
// skipped. Payload and undo payload are left as views into `input`.
template <bool kFull>
bool ParseRecord(Slice* input, LogRecord* rec, Slice* payload, Slice* undo) {
  auto field = [input](uint64_t* value) {
    if constexpr (kFull) {
      return GetVarint64(input, value);
    } else {
      (void)value;
      return SkipVarint64(input);
    }
  };
  uint64_t slot = 0;
  if (!GetVarint64(input, &rec->lsn) || !field(&rec->prev_lsn) ||
      !field(&rec->txn_id) || input->empty()) {
    return false;
  }
  if constexpr (kFull) rec->type = static_cast<LogType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &rec->page_id) || !field(&slot) ||
      !field(&rec->row_key) || !field(&rec->compensates_lsn)) {
    return false;
  }
  if constexpr (kFull) rec->slot = static_cast<uint16_t>(slot);
  return GetLengthPrefixedSlice(input, payload) &&
         GetLengthPrefixedSlice(input, undo);
}

// Smallest encoding of a record: eight one-byte varints, the type byte and
// two empty length prefixes.
constexpr uint64_t kMinRecordBytes = 10;

// A hostile count prefix must not drive an allocation: every record takes
// at least kMinRecordBytes, so the remaining input bounds the reservation.
size_t ReserveFor(uint64_t count, Slice rest) {
  return static_cast<size_t>(
      std::min<uint64_t>(count, rest.size() / kMinRecordBytes));
}

char* EncodeLengthPrefixed(char* dst, const std::string& bytes) {
  dst = EncodeVarint64(dst, bytes.size());
  std::memcpy(dst, bytes.data(), bytes.size());
  return dst + bytes.size();
}

// EncodeBatch's format over any contiguous records. EncodeBatch keeps its
// vector parameter so brace-list calls (`EncodeBatch({a, b})`) still bind.
std::string EncodeRecordBatch(std::span<const LogRecord> records) {
  std::string out;
  PutVarint64(&out, records.size());
  for (const LogRecord& r : records) r.EncodeTo(&out);
  return out;
}

}  // namespace

size_t LogRecord::EncodedSize() const {
  return VarintLength(lsn) + VarintLength(prev_lsn) + VarintLength(txn_id) +
         1 + VarintLength(page_id) + VarintLength(slot) +
         VarintLength(row_key) + VarintLength(compensates_lsn) +
         VarintLength(payload.size()) + payload.size() +
         VarintLength(undo_payload.size()) + undo_payload.size();
}

char* LogRecord::EncodeTo(char* dst) const {
  dst = EncodeVarint64(dst, lsn);
  dst = EncodeVarint64(dst, prev_lsn);
  dst = EncodeVarint64(dst, txn_id);
  *dst++ = static_cast<char>(type);
  dst = EncodeVarint64(dst, page_id);
  dst = EncodeVarint64(dst, slot);
  dst = EncodeVarint64(dst, row_key);
  dst = EncodeVarint64(dst, compensates_lsn);
  dst = EncodeLengthPrefixed(dst, payload);
  return EncodeLengthPrefixed(dst, undo_payload);
}

void LogRecord::EncodeTo(std::string* dst) const {
  const size_t old = dst->size();
  dst->resize(old + EncodedSize());
  EncodeTo(dst->data() + old);
}

Result<LogRecord> LogRecord::DecodeFrom(Slice* input) {
  LogRecord rec;
  Slice payload, undo;
  if (!ParseRecord<true>(input, &rec, &payload, &undo)) {
    return Status::Corruption("log record");
  }
  rec.payload = payload.ToString();
  rec.undo_payload = undo.ToString();
  return rec;
}

std::string LogRecord::EncodeBatch(const std::vector<LogRecord>& records) {
  return EncodeRecordBatch(records);
}

Result<std::vector<LogRecord>> LogRecord::DecodeBatch(Slice input) {
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("batch count");
  std::vector<LogRecord> out;
  out.reserve(ReserveFor(n, input));
  for (uint64_t i = 0; i < n; i++) {
    auto rec = DecodeFrom(&input);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(rec).value());
  }
  if (!input.empty()) return Status::Corruption("bytes after batch");
  return out;
}

Status LogRecord::ScanBatch(Slice input, std::vector<LogRecordSpan>* out) {
  out->clear();
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("batch count");
  out->reserve(ReserveFor(n, input));
  LogRecord fields;  // lsn and page_id only; the rest stays default
  for (uint64_t i = 0; i < n; i++) {
    const char* start = input.data();
    Slice payload, undo;
    if (!ParseRecord<false>(&input, &fields, &payload, &undo)) {
      out->clear();
      return Status::Corruption("log record");
    }
    out->push_back({fields.lsn, fields.page_id,
                    Slice(start, static_cast<size_t>(input.data() - start))});
  }
  if (!input.empty()) {
    out->clear();
    return Status::Corruption("bytes after batch");
  }
  return Status::OK();
}

EncodedRecords::EncodedRecords(const std::vector<LogRecord>& records) {
  for (const LogRecord& r : records) Append(r);
}

char* EncodedRecords::Place(Lsn lsn, size_t n) {
  if (tail_ == nullptr || tail_capacity_ - tail_used_ < n) {
    const size_t step = tail_ == nullptr
                            ? kMinChunkBytes
                            : std::min(kMaxChunkBytes, 2 * tail_capacity_);
    tail_capacity_ = std::max(step, n);
    tail_ = std::make_shared_for_overwrite<char[]>(tail_capacity_);
    tail_used_ = 0;
  }
  if (buffers_.empty() || buffers_.back().get() != tail_.get()) {
    buffers_.emplace_back(tail_, tail_.get());
  }
  Index(lsn, tail_used_, n);
  char* dst = tail_.get() + tail_used_;
  tail_used_ += n;
  return dst;
}

void EncodedRecords::Append(const LogRecord& record) {
  record.EncodeTo(Place(record.lsn, record.EncodedSize()));
}

void EncodedRecords::Append(const EncodedRecords& records, size_t i) {
  const Entry e = records.index_[records.head_ + i];  // `records` may be *this
  const std::shared_ptr<const char>& buffer =
      records.buffers_[e.buffer - records.first_buffer_];
  if (buffers_.empty() || buffers_.back() != buffer) buffers_.push_back(buffer);
  Index(e.lsn, e.offset, e.length);
}

void EncodedRecords::Append(const EncodedRecords& records) {
  const size_t n = records.size();  // fixed up front: `records` may be *this
  for (size_t i = 0; i < n; i++) Append(records, i);
}

std::string EncodedRecords::Batch(size_t from, size_t count) const {
  std::string out;
  PutVarint64(&out, count);
  const size_t first = head_ + from;
  const size_t last = first + count;
  size_t total = out.size();
  for (size_t i = first; i < last; i++) total += index_[i].length;
  out.reserve(total);
  // Records adjacent in one buffer (a chunk's owned appends, a batch's
  // spans) go out in one copy.
  for (size_t i = first; i < last;) {
    const Entry& e = index_[i];
    size_t end = e.offset + e.length;
    for (i++; i < last && index_[i].buffer == e.buffer &&
              index_[i].offset == end;
         i++) {
      end += index_[i].length;
    }
    out.append(buffers_[e.buffer - first_buffer_].get() + e.offset,
               end - e.offset);
  }
  return out;
}

std::vector<LogRecord> EncodedRecords::Decode(size_t from) const {
  std::vector<LogRecord> out;
  out.reserve(size() - from);
  for (size_t i = from; i < size(); i++) {
    Slice in = record(i);
    auto rec = LogRecord::DecodeFrom(&in);
    DISAGG_CHECK(rec.ok());  // only whole, validated encodings are appended
    out.push_back(std::move(rec).value());
  }
  return out;
}

size_t EncodedRecords::FirstAfter(Lsn lsn) const {
  return std::upper_bound(
             index_.begin() + static_cast<ptrdiff_t>(head_), index_.end(),
             lsn, [](Lsn l, const Entry& e) { return l < e.lsn; }) -
         index_.begin() - static_cast<ptrdiff_t>(head_);
}

void EncodedRecords::EraseFront(size_t n) {
  if (n == 0) return;
  if (n >= size()) {
    Clear();
    return;
  }
  for (size_t i = head_; i < head_ + n; i++) bytes_ -= index_[i].length;
  head_ += n;
  const uint32_t keep = index_[head_].buffer;
  buffers_.erase(buffers_.begin(),
                 buffers_.begin() + static_cast<ptrdiff_t>(keep - first_buffer_));
  first_buffer_ = keep;
  if (head_ > index_.size() - head_) {
    index_.erase(index_.begin(),
                 index_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

void EncodedRecords::Clear() {
  buffers_.clear();
  first_buffer_ = 0;
  index_.clear();
  head_ = 0;
  bytes_ = 0;
  // Refilling a chunk another holder still indexes would rewrite its
  // records under it: reuse the tail only when this is its last reference.
  if (tail_.use_count() == 1) {
    tail_used_ = 0;
  } else {
    tail_ = nullptr;
  }
}

RedoBatch::RedoBatch(SharedBytes bytes, std::vector<LogRecordSpan> spans)
    : RequestOwner(std::move(bytes)), spans_(std::move(spans)) {}

Result<RedoBatch> RedoBatch::Index(SharedBytes bytes) {
  std::vector<LogRecordSpan> spans;
  DISAGG_RETURN_NOT_OK(LogRecord::ScanBatch(*bytes, &spans));
  return RedoBatch(std::move(bytes), std::move(spans));
}

RedoBatch RedoBatch::Encode(std::span<const LogRecord> records) {
  auto batch = Index(
      std::make_shared<const std::string>(EncodeRecordBatch(records)));
  DISAGG_CHECK(batch.ok());  // a fresh encoding always scans
  return std::move(batch).value();
}

RedoBatch RedoBatch::Encode(const EncodedRecords& records, size_t from,
                            size_t count) {
  auto batch =
      Index(std::make_shared<const std::string>(records.Batch(from, count)));
  DISAGG_CHECK(batch.ok());  // indexed records are whole, valid encodings
  return std::move(batch).value();
}

Status ApplyRedo(Page* page, const LogRecord& record) {
  if (record.lsn <= page->lsn()) return Status::OK();  // already applied
  switch (record.type) {
    case LogType::kInsert: {
      auto slot = page->Insert(record.payload);
      if (!slot.ok()) return slot.status();
      if (*slot != record.slot) {
        return Status::Corruption("redo insert landed in unexpected slot");
      }
      break;
    }
    case LogType::kUpdate:
      DISAGG_RETURN_NOT_OK(page->Update(record.slot, record.payload));
      break;
    case LogType::kDelete:
      DISAGG_RETURN_NOT_OK(page->Delete(record.slot));
      break;
    case LogType::kClr: {
      // A CLR redoes an undo action: empty payload = the slot was deleted
      // again; otherwise the payload is the restored image (an in-place
      // restore, or a re-insert when it targets a fresh slot). Tolerant of
      // already-compensated state so re-replay stays idempotent.
      if (record.payload.empty()) {
        Status st = page->Delete(record.slot);
        if (!st.ok() && !st.IsNotFound()) return st;
      } else if (record.slot >= page->slot_count()) {
        auto slot = page->Insert(record.payload);
        if (!slot.ok()) return slot.status();
        if (*slot != record.slot) {
          return Status::Corruption("CLR re-insert landed in wrong slot");
        }
      } else {
        Status st = page->Update(record.slot, record.payload);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      break;
    }
    case LogType::kTxnBegin:
    case LogType::kTxnCommit:
    case LogType::kTxnAbort:
    case LogType::kCheckpoint:
      return Status::OK();  // no page effect
  }
  page->set_lsn(record.lsn);
  return Status::OK();
}

}  // namespace disagg
