#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/coding.h"
#include "net/fabric.h"
#include "storage/log_record.h"
#include "storage/log_store.h"
#include "storage/page_store.h"

namespace disagg {
namespace {

// Seeded generators for the redo codec: random records cover every varint
// width (including full 64-bit LSNs), empty payloads and payloads whose
// length prefix needs more than one byte.

uint64_t RandomWidth(std::mt19937_64* rng) {
  const int bits = static_cast<int>((*rng)() % 65);  // 0..64
  if (bits == 0) return 0;
  const uint64_t v = (*rng)();
  return bits == 64 ? v : v & ((uint64_t{1} << bits) - 1);
}

std::string RandomPayload(std::mt19937_64* rng) {
  static constexpr size_t kLengths[] = {0, 1, 5, 127, 128, 200, 300, 16384};
  const size_t len = kLengths[(*rng)() % std::size(kLengths)];
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>((*rng)());
  return s;
}

LogRecord RandomRecord(std::mt19937_64* rng) {
  LogRecord r;
  r.lsn = RandomWidth(rng);
  r.prev_lsn = RandomWidth(rng);
  r.txn_id = RandomWidth(rng);
  r.type = static_cast<LogType>(1 + (*rng)() % 8);
  r.page_id = (*rng)() % 4 == 0 ? kInvalidPageId : RandomWidth(rng);
  r.slot = static_cast<uint16_t>((*rng)());
  r.row_key = RandomWidth(rng);
  r.compensates_lsn = RandomWidth(rng);
  r.payload = RandomPayload(rng);
  r.undo_payload = RandomPayload(rng);
  return r;
}

std::string Encoded(const LogRecord& r) {
  std::string s;
  r.EncodeTo(&s);
  return s;
}

TEST(LogCodecTest, EncodedSizeMatchesEncoding) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 2000; i++) {
    const LogRecord r = RandomRecord(&rng);
    ASSERT_EQ(r.EncodedSize(), Encoded(r).size()) << "record " << i;
  }
  LogRecord extremes;
  extremes.lsn = extremes.prev_lsn = extremes.txn_id = ~uint64_t{0};
  extremes.page_id = extremes.row_key = extremes.compensates_lsn = ~uint64_t{0};
  extremes.slot = 0xFFFF;
  EXPECT_EQ(extremes.EncodedSize(), Encoded(extremes).size());
  EXPECT_EQ(LogRecord{}.EncodedSize(), Encoded(LogRecord{}).size());
}

// A batch of real records with small, increasing LSNs, as the WAL ships.
std::vector<LogRecord> WalBatch(std::mt19937_64* rng, Lsn first) {
  std::vector<LogRecord> batch;
  const size_t n = 1 + (*rng)() % 5;
  for (size_t i = 0; i < n; i++) {
    LogRecord r = RandomRecord(rng);
    r.lsn = first + i;
    // Keep batches small: the corpus holds every truncated prefix.
    r.payload.resize(r.payload.size() % 300);
    r.undo_payload.resize(r.undo_payload.size() % 300);
    batch.push_back(std::move(r));
  }
  return batch;
}

// Hostile variants of an encoded batch: every truncated prefix, single-bit
// flips, and oversized count / payload-length prefixes.
std::vector<std::string> HostileCorpus(const std::string& good,
                                       std::mt19937_64* rng) {
  std::vector<std::string> corpus;
  for (size_t len = 0; len < good.size(); len++) {
    corpus.push_back(good.substr(0, len));
  }
  for (int i = 0; i < 64; i++) {
    std::string flipped = good;
    const size_t bit = (*rng)() % (flipped.size() * 8);
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    corpus.push_back(std::move(flipped));
  }
  // Oversized count prefixes in front of the real records.
  Slice records(good);
  uint64_t count = 0;
  EXPECT_TRUE(GetVarint64(&records, &count));
  for (uint64_t bogus : {count + 1, uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string s;
    PutVarint64(&s, bogus);
    s.append(records.data(), records.size());
    corpus.push_back(std::move(s));
  }
  // A record whose payload length prefix claims far more than follows.
  for (uint64_t claimed : {uint64_t{1000}, uint64_t{1} << 62}) {
    std::string s;
    PutVarint64(&s, 1);
    LogRecord r;
    r.lsn = 1;
    r.page_id = 3;
    std::string body;
    r.EncodeTo(&body);
    body.resize(body.size() - 2);  // drop the empty payload + undo prefixes
    s += body;
    PutVarint64(&s, claimed);
    s += "short";
    corpus.push_back(std::move(s));
  }
  // Overlong varints (11 continuation bytes) in the count position.
  corpus.push_back(std::string(11, '\x80'));
  return corpus;
}

TEST(LogCodecTest, ScanBatchAgreesWithDecodeBatchOnHostileInputs) {
  std::mt19937_64 rng(0x5eed0002);
  size_t accepted = 0, rejected = 0;
  for (int round = 0; round < 12; round++) {
    const std::string good =
        LogRecord::EncodeBatch(WalBatch(&rng, 1 + round * 8));
    for (const std::string& input : HostileCorpus(good, &rng)) {
      auto decoded = LogRecord::DecodeBatch(input);
      auto spans = LogRecord::ScanBatch(input);
      ASSERT_EQ(decoded.ok(), spans.ok()) << "round " << round;
      if (!decoded.ok()) {
        rejected++;
        continue;
      }
      accepted++;
      ASSERT_EQ(decoded->size(), spans->size());
      for (size_t i = 0; i < spans->size(); i++) {
        const LogRecordSpan& span = (*spans)[i];
        const LogRecord& rec = (*decoded)[i];
        EXPECT_EQ(span.lsn, rec.lsn);
        EXPECT_EQ(span.page_id, rec.page_id);
        Slice in = span.bytes;
        auto again = LogRecord::DecodeFrom(&in);
        ASSERT_TRUE(again.ok());
        EXPECT_TRUE(in.empty()) << "span must hold exactly one record";
        EXPECT_EQ(Encoded(*again), Encoded(rec));
      }
    }
  }
  // The corpus exercises both sides of the contract.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Every rejected payload must fail log.append and page.apply_log with a
// status and leave both stores exactly as they were.
TEST(LogCodecTest, StoreHandlersRejectHostileBatchesWithoutSideEffects) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("s0", NodeKind::kStorage, InterconnectModel::Ssd());
  LogStoreService log(&fabric, node);
  PageStoreService pages(&fabric, node);
  std::mt19937_64 rng(0x5eed0003);
  NetContext ctx;
  const std::vector<LogRecord> seed = WalBatch(&rng, 1);
  ASSERT_TRUE(LogStoreClient(&fabric, node).Append(&ctx, seed).ok());
  ASSERT_TRUE(PageStoreClient(&fabric, node).ApplyLog(&ctx, seed).ok());

  auto read_all = [&] {
    std::string req, resp;
    PutVarint64(&req, 0);
    PutVarint64(&req, ~uint64_t{0});
    EXPECT_TRUE(fabric.Call(&ctx, node, "log.read", req, &resp).ok());
    return resp;
  };
  const std::string log_bytes = read_all();
  const Lsn durable = log.durable_lsn();
  const size_t pending = pages.pending_records();
  const Lsn high_water = pages.high_water_lsn();
  const auto versions = pages.PageVersions();

  size_t rejected = 0;
  for (int round = 0; round < 8; round++) {
    const std::string good =
        LogRecord::EncodeBatch(WalBatch(&rng, 100 + round * 8));
    for (const std::string& input : HostileCorpus(good, &rng)) {
      if (LogRecord::DecodeBatch(input).ok()) continue;
      rejected++;
      std::string resp;
      EXPECT_FALSE(fabric.Call(&ctx, node, "log.append", input, &resp).ok());
      EXPECT_FALSE(
          fabric.Call(&ctx, node, "page.apply_log", input, &resp).ok());
    }
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_EQ(read_all(), log_bytes);
  EXPECT_EQ(log.durable_lsn(), durable);
  EXPECT_EQ(pages.pending_records(), pending);
  EXPECT_EQ(pages.high_water_lsn(), high_water);
  EXPECT_EQ(pages.PageVersions(), versions);
}

}  // namespace
}  // namespace disagg
