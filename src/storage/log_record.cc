#include "storage/log_record.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace disagg {

namespace {

// Parses one record's fields, leaving payload and undo payload as views into
// `input`. The single validation path behind DecodeFrom and ScanBatch.
Status ParseRecord(Slice* input, LogRecord* rec, Slice* payload, Slice* undo) {
  uint64_t tmp = 0;
  if (!GetVarint64(input, &rec->lsn)) return Status::Corruption("lsn");
  if (!GetVarint64(input, &rec->prev_lsn)) return Status::Corruption("prev");
  if (!GetVarint64(input, &rec->txn_id)) return Status::Corruption("txn");
  if (input->empty()) return Status::Corruption("type");
  rec->type = static_cast<LogType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &rec->page_id)) return Status::Corruption("page");
  if (!GetVarint64(input, &tmp)) return Status::Corruption("slot");
  rec->slot = static_cast<uint16_t>(tmp);
  if (!GetVarint64(input, &rec->row_key)) return Status::Corruption("row_key");
  if (!GetVarint64(input, &rec->compensates_lsn)) {
    return Status::Corruption("compensates_lsn");
  }
  if (!GetLengthPrefixedSlice(input, payload)) {
    return Status::Corruption("payload");
  }
  if (!GetLengthPrefixedSlice(input, undo)) return Status::Corruption("undo");
  return Status::OK();
}

// A hostile count prefix must not drive an allocation: every record takes
// at least one byte, so the remaining input bounds the reservation.
size_t ReserveFor(uint64_t count, Slice rest) {
  return static_cast<size_t>(std::min<uint64_t>(count, rest.size()));
}

}  // namespace

size_t LogRecord::EncodedSize() const {
  return VarintLength(lsn) + VarintLength(prev_lsn) + VarintLength(txn_id) +
         1 + VarintLength(page_id) + VarintLength(slot) +
         VarintLength(row_key) + VarintLength(compensates_lsn) +
         VarintLength(payload.size()) + payload.size() +
         VarintLength(undo_payload.size()) + undo_payload.size();
}

void LogRecord::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lsn);
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, txn_id);
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, page_id);
  PutVarint64(dst, slot);
  PutVarint64(dst, row_key);
  PutVarint64(dst, compensates_lsn);
  PutLengthPrefixedSlice(dst, payload);
  PutLengthPrefixedSlice(dst, undo_payload);
}

Result<LogRecord> LogRecord::DecodeFrom(Slice* input) {
  LogRecord rec;
  Slice payload, undo;
  DISAGG_RETURN_NOT_OK(ParseRecord(input, &rec, &payload, &undo));
  rec.payload = payload.ToString();
  rec.undo_payload = undo.ToString();
  return rec;
}

std::string LogRecord::EncodeBatch(const std::vector<LogRecord>& records) {
  std::string out;
  PutVarint64(&out, records.size());
  for (const LogRecord& r : records) r.EncodeTo(&out);
  return out;
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
  return out;
}

Result<std::vector<LogRecordSpan>> LogRecord::ScanBatch(Slice input) {
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("batch count");
  std::vector<LogRecordSpan> out;
  out.reserve(ReserveFor(n, input));
  LogRecord fields;  // numeric fields only; its strings stay empty
  for (uint64_t i = 0; i < n; i++) {
    const char* start = input.data();
    Slice payload, undo;
    DISAGG_RETURN_NOT_OK(ParseRecord(&input, &fields, &payload, &undo));
    out.push_back({fields.lsn, fields.page_id,
                   Slice(start, static_cast<size_t>(input.data() - start))});
  }
  return out;
}

Slice EncodedRecords::record(size_t i) const {
  return Slice(bytes_.data() + index_[i].offset,
               OffsetOf(i + 1) - index_[i].offset);
}

size_t EncodedRecords::OffsetOf(size_t i) const {
  return i < index_.size() ? index_[i].offset : bytes_.size();
}

void EncodedRecords::Append(Lsn lsn, Slice encoding) {
  index_.push_back({lsn, bytes_.size()});
  bytes_.append(encoding.data(), encoding.size());
}

void EncodedRecords::Append(const LogRecord& record) {
  index_.push_back({record.lsn, bytes_.size()});
  record.EncodeTo(&bytes_);
}

std::string EncodedRecords::Batch(size_t from, size_t count) const {
  std::string out;
  PutVarint64(&out, count);
  const size_t begin = OffsetOf(from);
  out.append(bytes_, begin, OffsetOf(from + count) - begin);
  return out;
}

std::vector<LogRecord> EncodedRecords::Decode(size_t from) const {
  std::vector<LogRecord> out;
  out.reserve(size() - from);
  const size_t begin = OffsetOf(from);
  Slice in(bytes_.data() + begin, bytes_.size() - begin);
  while (!in.empty()) {
    auto rec = LogRecord::DecodeFrom(&in);
    DISAGG_CHECK(rec.ok());  // only whole, validated encodings are appended
    out.push_back(std::move(rec).value());
  }
  return out;
}

size_t EncodedRecords::FirstAfter(Lsn lsn) const {
  return std::upper_bound(
             index_.begin(), index_.end(), lsn,
             [](Lsn l, const Entry& e) { return l < e.lsn; }) -
         index_.begin();
}

void EncodedRecords::EraseFront(size_t n) {
  const size_t cut = OffsetOf(n);
  bytes_.erase(0, cut);
  index_.erase(index_.begin(), index_.begin() + n);
  for (Entry& e : index_) e.offset -= cut;
}

void EncodedRecords::Clear() {
  bytes_.clear();
  index_.clear();
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
