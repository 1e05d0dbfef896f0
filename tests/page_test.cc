#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "storage/log_record.h"
#include "storage/page.h"

// Counts calls to the global allocation functions, so a case can show that
// a call allocates nothing.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace disagg {
namespace {

TEST(PageTest, InsertAndGet) {
  Page page(42);
  EXPECT_EQ(page.page_id(), 42u);
  auto s0 = page.Insert("alpha");
  auto s1 = page.Insert("bravo");
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s0, 0);
  EXPECT_EQ(*s1, 1);
  EXPECT_EQ(page.Get(0)->ToString(), "alpha");
  EXPECT_EQ(page.Get(1)->ToString(), "bravo");
  EXPECT_EQ(page.slot_count(), 2);
}

TEST(PageTest, GetOutOfRangeIsNotFound) {
  Page page(1);
  EXPECT_TRUE(page.Get(0).status().IsNotFound());
}

TEST(PageTest, UpdateInPlace) {
  Page page(1);
  auto slot = page.Insert("hello world");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.Update(*slot, "HELLO WORLD").ok());
  EXPECT_EQ(page.Get(*slot)->ToString(), "HELLO WORLD");
  // Shrinking updates are fine; growing ones are rejected.
  ASSERT_TRUE(page.Update(*slot, "tiny").ok());
  EXPECT_EQ(page.Get(*slot)->ToString(), "tiny");
  EXPECT_TRUE(page.Update(*slot, "way too long now").IsInvalidArgument());
}

TEST(PageTest, DeleteTombstones) {
  Page page(1);
  auto s0 = page.Insert("a");
  auto s1 = page.Insert("b");
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_TRUE(page.Delete(*s0).ok());
  EXPECT_TRUE(page.Get(*s0).status().IsNotFound());
  EXPECT_EQ(page.Get(*s1)->ToString(), "b");  // slot numbers stable
  EXPECT_TRUE(page.Delete(*s0).IsNotFound());  // double delete
}

TEST(PageTest, FillsUntilBusy) {
  Page page(1);
  const std::string record(100, 'x');
  int inserted = 0;
  while (true) {
    auto s = page.Insert(record);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsBusy());
      break;
    }
    inserted++;
  }
  // 8 KB page, 100-byte records + 4-byte slots: expect roughly 78 inserts.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_LT(page.FreeSpace(), record.size());
}

TEST(PageTest, ChecksumRoundTripAndCorruptionDetection) {
  Page page(9);
  ASSERT_TRUE(page.Insert("payload").ok());
  page.Seal();
  EXPECT_TRUE(page.VerifyChecksum());
  auto restored = Page::FromBytes(Slice(page.data(), kPageSize));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->VerifyChecksum());
  restored->data()[kPageSize - 1] ^= 0x5A;
  EXPECT_FALSE(restored->VerifyChecksum());
}

// Every single-byte flip of a sealed page fails verification, including
// flips inside the checksum field itself, and verifying copies nothing.
TEST(PageTest, ChecksumCatchesEveryByteFlipWithoutAllocating) {
  Page page(3);
  ASSERT_TRUE(page.Insert("alpha").ok());
  ASSERT_TRUE(page.Insert(std::string(300, 'b')).ok());
  page.set_lsn(41);
  page.Seal();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const bool sealed_verifies = page.VerifyChecksum();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_TRUE(sealed_verifies);

  size_t undetected = 0;
  for (size_t i = 0; i < kPageSize; i++) {
    page.data()[i] ^= 0x01;
    undetected += page.VerifyChecksum();
    page.data()[i] ^= 0x01;
  }
  EXPECT_EQ(undetected, 0u);
  const size_t field = offsetof(Page::Header, checksum);
  for (size_t i = field; i < field + sizeof(uint32_t); i++) {
    page.data()[i] ^= static_cast<char>(0x80);
    EXPECT_FALSE(page.VerifyChecksum()) << "checksum byte " << i - field;
    page.data()[i] ^= static_cast<char>(0x80);
  }
  EXPECT_TRUE(page.VerifyChecksum());
}

TEST(PageTest, FromBytesRejectsWrongSize) {
  EXPECT_TRUE(Page::FromBytes("short").status().IsInvalidArgument());
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.lsn = 77;
  rec.prev_lsn = 42;
  rec.txn_id = 5;
  rec.type = LogType::kUpdate;
  rec.page_id = 1234;
  rec.slot = 3;
  rec.payload = "after";
  rec.undo_payload = "before";
  std::string buf;
  rec.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), rec.EncodedSize());
  Slice in(buf);
  auto decoded = LogRecord::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 77u);
  EXPECT_EQ(decoded->prev_lsn, 42u);
  EXPECT_EQ(decoded->txn_id, 5u);
  EXPECT_EQ(decoded->type, LogType::kUpdate);
  EXPECT_EQ(decoded->page_id, 1234u);
  EXPECT_EQ(decoded->slot, 3);
  EXPECT_EQ(decoded->payload, "after");
  EXPECT_EQ(decoded->undo_payload, "before");
}

TEST(LogRecordTest, BatchRoundTrip) {
  std::vector<LogRecord> batch;
  for (uint64_t i = 1; i <= 5; i++) {
    LogRecord r;
    r.lsn = i;
    r.type = LogType::kInsert;
    r.page_id = i * 10;
    r.payload = "rec" + std::to_string(i);
    batch.push_back(r);
  }
  auto decoded = LogRecord::DecodeBatch(LogRecord::EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 5u);
  EXPECT_EQ((*decoded)[4].payload, "rec5");
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  Slice garbage("\x01\x02", 2);
  EXPECT_FALSE(LogRecord::DecodeFrom(&garbage).ok());
}

TEST(ApplyRedoTest, InsertUpdateDelete) {
  Page page(10);
  LogRecord ins;
  ins.lsn = 1;
  ins.type = LogType::kInsert;
  ins.page_id = 10;
  ins.slot = 0;
  ins.payload = "v1";
  ASSERT_TRUE(ApplyRedo(&page, ins).ok());
  EXPECT_EQ(page.lsn(), 1u);
  EXPECT_EQ(page.Get(0)->ToString(), "v1");

  LogRecord upd;
  upd.lsn = 2;
  upd.type = LogType::kUpdate;
  upd.page_id = 10;
  upd.slot = 0;
  upd.payload = "v2";
  ASSERT_TRUE(ApplyRedo(&page, upd).ok());
  EXPECT_EQ(page.Get(0)->ToString(), "v2");

  LogRecord del;
  del.lsn = 3;
  del.type = LogType::kDelete;
  del.page_id = 10;
  del.slot = 0;
  ASSERT_TRUE(ApplyRedo(&page, del).ok());
  EXPECT_TRUE(page.Get(0).status().IsNotFound());
  EXPECT_EQ(page.lsn(), 3u);
}

TEST(ApplyRedoTest, IdempotentReplay) {
  // Replaying any prefix repeatedly must converge to the same image — the
  // property log-as-the-database materialization depends on.
  Page once(10);
  Page twice(10);
  std::vector<LogRecord> log;
  for (uint64_t i = 1; i <= 6; i++) {
    LogRecord r;
    r.lsn = i;
    r.page_id = 10;
    if (i % 2 == 1) {
      r.type = LogType::kInsert;
      r.slot = static_cast<uint16_t>((i - 1) / 2);
      r.payload = "val" + std::to_string(i);
    } else {
      r.type = LogType::kUpdate;
      r.slot = static_cast<uint16_t>((i - 2) / 2);
      r.payload = "upd" + std::to_string(i);
    }
    log.push_back(r);
  }
  for (const auto& r : log) ASSERT_TRUE(ApplyRedo(&once, r).ok());
  for (int rep = 0; rep < 3; rep++) {
    for (const auto& r : log) ASSERT_TRUE(ApplyRedo(&twice, r).ok());
  }
  EXPECT_EQ(once.lsn(), twice.lsn());
  for (uint16_t s = 0; s < once.slot_count(); s++) {
    EXPECT_EQ(once.Get(s)->ToString(), twice.Get(s)->ToString());
  }
}

TEST(ApplyRedoTest, CommitRecordsDoNotTouchPages) {
  Page page(10);
  LogRecord commit;
  commit.lsn = 5;
  commit.type = LogType::kTxnCommit;
  commit.txn_id = 1;
  commit.page_id = kInvalidPageId;
  ASSERT_TRUE(ApplyRedo(&page, commit).ok());
  EXPECT_EQ(page.lsn(), kInvalidLsn);
  EXPECT_EQ(page.slot_count(), 0);
}

}  // namespace
}  // namespace disagg
