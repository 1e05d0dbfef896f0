#include "storage/page.h"

#include <cstddef>

#include "common/crc32.h"

namespace disagg {

namespace {
constexpr uint16_t kTombstone = 0xFFFF;
}  // namespace

Page::Page() : Page(kInvalidPageId) {}

Page::Page(PageId id) : data_(kPageSize, 0) {
  Header* h = mutable_header();
  h->page_id = id;
  h->lsn = kInvalidLsn;
  h->checksum = 0;
  h->slot_count = 0;
  h->free_start = static_cast<uint16_t>(kHeaderSize);
  h->free_end = static_cast<uint16_t>(kPageSize);
  h->padding = 0;
}

size_t Page::FreeSpace() const {
  const Header& h = header();
  const size_t gap = h.free_end - h.free_start;
  return gap > kSlotSize ? gap - kSlotSize : 0;
}

Result<uint16_t> Page::Insert(const Slice& record) {
  Header* h = mutable_header();
  if (record.size() > 0xFFFE) {
    return Status::InvalidArgument("record too large for a page slot");
  }
  if (FreeSpace() < record.size()) {
    return Status::Busy("page full");
  }
  const uint16_t slot = h->slot_count;
  h->free_end = static_cast<uint16_t>(h->free_end - record.size());
  std::memcpy(data_.data() + h->free_end, record.data(), record.size());
  h->slot_count++;
  h->free_start = static_cast<uint16_t>(h->free_start + kSlotSize);
  SetSlot(slot, h->free_end, static_cast<uint16_t>(record.size()));
  return slot;
}

Result<Slice> Page::Get(uint16_t slot) const {
  if (slot >= header().slot_count) {
    return Status::NotFound("slot out of range");
  }
  const uint16_t len = SlotLength(slot);
  if (len == kTombstone) return Status::NotFound("slot deleted");
  return Slice(data_.data() + SlotOffset(slot), len);
}

Status Page::Update(uint16_t slot, const Slice& record) {
  if (slot >= header().slot_count) return Status::NotFound("slot out of range");
  const uint16_t len = SlotLength(slot);
  if (len == kTombstone) return Status::NotFound("slot deleted");
  if (record.size() > len) {
    return Status::InvalidArgument("in-place update cannot grow a record");
  }
  std::memcpy(data_.data() + SlotOffset(slot), record.data(), record.size());
  SetSlot(slot, SlotOffset(slot), static_cast<uint16_t>(record.size()));
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  if (slot >= header().slot_count) return Status::NotFound("slot out of range");
  if (SlotLength(slot) == kTombstone) return Status::NotFound("slot deleted");
  SetSlot(slot, SlotOffset(slot), kTombstone);
  return Status::OK();
}

void Page::Seal() {
  Header* h = mutable_header();
  h->checksum = 0;
  h->checksum = Crc32c(data_.data(), data_.size());
}

bool Page::VerifyChecksum() const {
  // The CRC Seal computed, with the checksum field read as zero: the bytes
  // before the field, four zero bytes, then the bytes after it (the seed
  // chains one range's CRC into the next).
  constexpr size_t kField = offsetof(Header, checksum);
  constexpr size_t kAfter = kField + sizeof(uint32_t);
  static constexpr char kZero[sizeof(uint32_t)] = {};
  uint32_t crc = Crc32c(data_.data(), kField);
  crc = Crc32c(kZero, sizeof(kZero), crc);
  crc = Crc32c(data_.data() + kAfter, data_.size() - kAfter, crc);
  return crc == header().checksum;
}

Result<Page> Page::FromBytes(const Slice& bytes) {
  if (bytes.size() != kPageSize) {
    return Status::InvalidArgument("page must be exactly kPageSize bytes");
  }
  Page p;
  std::memcpy(p.data_.data(), bytes.data(), kPageSize);
  return p;
}

}  // namespace disagg
