#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

const RpcMethod kLogRead("log.read");

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
  std::vector<LogRecordSpan> spans;  // reused, as the store handlers do
  for (int round = 0; round < 12; round++) {
    const std::string good =
        LogRecord::EncodeBatch(WalBatch(&rng, 1 + round * 8));
    for (const std::string& input : HostileCorpus(good, &rng)) {
      auto decoded = LogRecord::DecodeBatch(input);
      const Status scanned = LogRecord::ScanBatch(input, &spans);
      ASSERT_EQ(decoded.ok(), scanned.ok()) << "round " << round;
      if (!decoded.ok()) {
        rejected++;
        EXPECT_TRUE(scanned.IsCorruption());
        EXPECT_TRUE(spans.empty());
        continue;
      }
      accepted++;
      ASSERT_EQ(decoded->size(), spans.size());
      for (size_t i = 0; i < spans.size(); i++) {
        const LogRecordSpan& span = spans[i];
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

// A count prefix claiming 2^40 records in front of 1 MiB must not reserve
// for the claim: every record takes at least 10 bytes, so a scan buffer
// never grows past input.size() / 10 spans — and a store's reused buffer
// does not keep a hostile request's capacity.
TEST(LogCodecTest, HostileBatchCountBoundsTheReservation) {
  std::string input;
  PutVarint64(&input, uint64_t{1} << 40);
  // 104857 all-zero minimal records, then 6 stray bytes.
  input.append(size_t{1} << 20, '\0');
  std::vector<LogRecordSpan> spans;
  EXPECT_TRUE(LogRecord::ScanBatch(input, &spans).IsCorruption());
  EXPECT_TRUE(spans.empty());
  EXPECT_LE(spans.capacity(), input.size() / 10);
  EXPECT_TRUE(LogRecord::DecodeBatch(input).status().IsCorruption());
}

// Every rejected payload must fail log.append and page.apply_log with a
// status and leave both stores exactly as they were — sent bare; with a
// shared owner of exactly its bytes; with an owner of other (valid) bytes,
// plain or indexed, which a handler must neither trust nor retain. Every
// strict prefix of an indexed batch's own bytes (same address, shorter
// size) is rejected too: the index describes bytes that are not the
// request.
TEST(LogCodecTest, StoreHandlersRejectHostileBatchesWithoutSideEffects) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("s0", NodeKind::kStorage, InterconnectModel::Ssd());
  LogStoreService log(&fabric, node);
  PageStoreService pages(&fabric, node);
  std::mt19937_64 rng(0x5eed0003);
  NetContext ctx;
  const RedoBatch seed = RedoBatch::Encode(WalBatch(&rng, 1));
  ASSERT_TRUE(LogStoreClient(&fabric, node).Append(&ctx, seed).ok());
  ASSERT_TRUE(PageStoreClient(&fabric, node).ApplyLog(&ctx, seed).ok());

  auto read_all = [&] {
    std::string req, resp;
    PutVarint64(&req, 0);
    PutVarint64(&req, ~uint64_t{0});
    EXPECT_TRUE(fabric.Call(&ctx, node, kLogRead, req, &resp).ok());
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
    const RequestOwner other(std::make_shared<const std::string>(good));
    auto indexed = RedoBatch::Index(std::make_shared<const std::string>(good));
    ASSERT_TRUE(indexed.ok());
    std::vector<std::string> inputs;
    for (std::string& input : HostileCorpus(good, &rng)) {
      if (LogRecord::DecodeBatch(input).ok()) continue;
      inputs.push_back(std::move(input));
    }
    // A valid batch followed by bytes its count does not cover.
    for (const std::string& tail : {std::string(1, '\0'), good}) {
      inputs.push_back(good + tail);
      EXPECT_FALSE(LogRecord::DecodeBatch(inputs.back()).ok());
      EXPECT_FALSE(
          RedoBatch::Index(std::make_shared<const std::string>(inputs.back()))
              .ok());
    }
    for (const std::string& input : inputs) {
      rejected++;
      const RequestOwner owned(std::make_shared<const std::string>(input));
      const long refs[] = {owned.bytes().use_count(),
                           other.bytes().use_count(),
                           indexed->bytes().use_count()};
      std::string resp;
      for (const std::string method : {"log.append", "page.apply_log"}) {
        const RpcMethod rpc(method);
        EXPECT_FALSE(fabric.Call(&ctx, node, rpc, input, &resp).ok());
        EXPECT_FALSE(fabric.Call(&ctx, node, rpc, *owned.bytes(), &resp,
                                 &owned)
                         .ok());
        EXPECT_FALSE(
            fabric.Call(&ctx, node, rpc, input, &resp, &other).ok());
        EXPECT_FALSE(
            fabric.Call(&ctx, node, rpc, input, &resp, &*indexed).ok());
      }
      EXPECT_EQ(owned.bytes().use_count(), refs[0]);
      EXPECT_EQ(other.bytes().use_count(), refs[1]);
      EXPECT_EQ(indexed->bytes().use_count(), refs[2]);
    }
    const long refs = indexed->bytes().use_count();
    std::string resp;
    for (size_t k = 0; k < good.size(); k++) {
      const Slice prefix(indexed->bytes()->data(), k);
      for (const std::string method : {"log.append", "page.apply_log"}) {
        const RpcMethod rpc(method);
        EXPECT_FALSE(
            fabric.Call(&ctx, node, rpc, prefix, &resp, &*indexed).ok())
            << method << " accepted a " << k << "-byte prefix of a "
            << good.size() << "-byte batch";
      }
    }
    EXPECT_EQ(indexed->bytes().use_count(), refs);
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_EQ(read_all(), log_bytes);
  EXPECT_EQ(log.durable_lsn(), durable);
  EXPECT_EQ(pages.pending_records(), pending);
  EXPECT_EQ(pages.high_water_lsn(), high_water);
  EXPECT_EQ(pages.PageVersions(), versions);
}

// Redo for a handful of pages that materializes cleanly: inserts take each
// page's next slot, updates rewrite a slot that exists with a payload of
// the same size, and control records carry no page.
class PageRedoGen {
 public:
  explicit PageRedoGen(uint64_t seed) : rng_(seed) {}

  LogRecord Next(Lsn lsn) {
    LogRecord r;
    r.lsn = lsn;
    r.txn_id = 1 + rng_() % 4;
    const uint64_t kind = rng_() % 6;
    if (kind == 0) {
      r.type = rng_() % 2 == 0 ? LogType::kTxnBegin : LogType::kTxnCommit;
      return r;
    }
    r.page_id = rng_() % kPages;
    uint16_t& slots = slots_[r.page_id];
    // Fixed width: an in-place update cannot grow a record.
    r.payload = std::to_string(lsn);
    r.payload.insert(0, 24 - r.payload.size(), 'v');
    if (kind < 3 && slots > 0) {
      r.type = LogType::kUpdate;
      r.slot = static_cast<uint16_t>(rng_() % slots);
    } else {
      r.type = LogType::kInsert;
      r.slot = slots++;
    }
    return r;
  }

  // `n` records with LSNs first, first + 1, ...
  std::vector<LogRecord> Batch(Lsn first, size_t n) {
    std::vector<LogRecord> out;
    for (size_t i = 0; i < n; i++) out.push_back(Next(first + i));
    return out;
  }

  std::mt19937_64* rng() { return &rng_; }

 private:
  static constexpr PageId kPages = 6;
  std::mt19937_64 rng_;
  std::map<PageId, uint16_t> slots_;
};

// A log store and a page store fed through the indexed path (a RedoBatch
// owner of exactly the request) end in the same state as a twin pair fed
// the same bytes with no owner, which scans every request: the same
// responses and charges, log.read bytes, durable LSN, page versions,
// pending redo and materialized pages. The batches include fresh WAL
// batches, re-sent duplicates, a lagging replica's resync suffix (old
// records in front of new ones), control records only, and LSNs that do
// not increase.
TEST(LogCodecTest, IndexedBatchesLeaveStoresAsScannedBatchesDo) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    SCOPED_TRACE(seed);
    PageRedoGen gen(0x5eed0200 + seed);
    std::mt19937_64& rng = *gen.rng();
    Fabric fabric;
    const NodeId indexed_node =
        fabric.AddNode("indexed", NodeKind::kStorage, InterconnectModel::Ssd());
    const NodeId scanned_node =
        fabric.AddNode("scanned", NodeKind::kStorage, InterconnectModel::Ssd());
    LogStoreService indexed_log(&fabric, indexed_node);
    LogStoreService scanned_log(&fabric, scanned_node);
    PageStoreService indexed_pages(&fabric, indexed_node);
    PageStoreService scanned_pages(&fabric, scanned_node);
    NetContext indexed_ctx, scanned_ctx;

    auto send = [&](const RedoBatch& batch) {
      const std::string copy = *batch.bytes();  // same bytes, no owner
      for (const std::string method : {"log.append", "page.apply_log"}) {
        const RpcMethod rpc(method);
        std::string indexed_resp, scanned_resp;
        ASSERT_TRUE(fabric
                        .Call(&indexed_ctx, indexed_node, rpc,
                              batch.request(), &indexed_resp, &batch)
                        .ok());
        ASSERT_TRUE(fabric
                        .Call(&scanned_ctx, scanned_node, rpc, copy,
                              &scanned_resp)
                        .ok());
        ASSERT_EQ(indexed_resp, scanned_resp) << method;
      }
    };
    auto read_all = [&](NodeId node, NetContext* ctx) {
      std::string req, resp;
      PutVarint64(&req, 0);
      PutVarint64(&req, ~uint64_t{0});
      EXPECT_TRUE(fabric.Call(ctx, node, kLogRead, req, &resp).ok());
      return resp;
    };
    auto expect_twins = [&] {
      EXPECT_EQ(read_all(indexed_node, &indexed_ctx),
                read_all(scanned_node, &scanned_ctx));
      EXPECT_EQ(indexed_log.durable_lsn(), scanned_log.durable_lsn());
      EXPECT_EQ(indexed_pages.PageVersions(), scanned_pages.PageVersions());
      EXPECT_EQ(indexed_pages.pending_records(),
                scanned_pages.pending_records());
      EXPECT_EQ(indexed_pages.high_water_lsn(),
                scanned_pages.high_water_lsn());
      EXPECT_EQ(indexed_ctx.sim_ns, scanned_ctx.sim_ns);
    };

    Lsn next = 1;
    EncodedRecords history;  // everything shipped, for resync suffixes
    std::vector<RedoBatch> sent;
    auto fresh = [&](size_t n) {
      const std::vector<LogRecord> records = gen.Batch(next, n);
      next += n;
      for (const LogRecord& r : records) history.Append(r);
      return RedoBatch::Encode(records);
    };
    for (int step = 0; step < 40; step++) {
      switch (rng() % 6) {
        case 0:
        case 1: {  // a fresh WAL batch
          sent.push_back(fresh(1 + rng() % 6));
          send(sent.back());
          break;
        }
        case 2: {  // a re-sent duplicate
          if (!sent.empty()) send(sent[rng() % sent.size()]);
          break;
        }
        case 3: {  // a lagging replica's resync suffix: records it missed
                   // (never sent here) behind some it already holds
          const size_t shipped = history.size();
          for (int missed = 1 + rng() % 2; missed > 0; missed--) {
            (void)fresh(1 + rng() % 4);
          }
          const size_t from = rng() % (shipped + 1);
          const RedoBatch resync =
              RedoBatch::Encode(history, from, history.size() - from);
          send(resync);
          break;
        }
        case 4: {  // control records only: no page id at all
          std::vector<LogRecord> control(1 + rng() % 3);
          for (LogRecord& r : control) {
            r.lsn = next++;
            r.type = LogType::kTxnCommit;
          }
          for (const LogRecord& r : control) history.Append(r);
          send(RedoBatch::Encode(control));
          break;
        }
        case 5: {  // LSNs that do not increase: a later record first, an
                   // old LSN at the end (the page record keeps its page's
                   // redo in LSN order, so pages still materialize)
          std::vector<LogRecord> records(4);
          records[0].lsn = next + 2;
          records[1] = gen.Next(next);
          records[2].lsn = next + 1;
          records[3].lsn = 1 + rng() % next;
          for (size_t i : {0, 2, 3}) records[i].type = LogType::kTxnAbort;
          next += 3;
          const RedoBatch batch = RedoBatch::Encode(records);
          send(batch);
          break;
        }
      }
      expect_twins();
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(indexed_pages.MaterializeAll(), scanned_pages.MaterializeAll());
    EXPECT_EQ(indexed_pages.pending_records(), 0u);  // every page applied
    expect_twins();
    const auto versions = indexed_pages.PageVersions();
    ASSERT_FALSE(versions.empty());
    for (const auto& [id, lsn] : versions) {
      auto a = indexed_pages.PeekPage(id);
      auto b = scanned_pages.PeekPage(id);
      ASSERT_EQ(a.ok(), b.ok()) << "page " << id;
      if (a.ok()) {
        EXPECT_EQ(Slice(a->data(), kPageSize), Slice(b->data(), kPageSize));
      }
    }
  }
}

// EncodedRecords against a reference vector under seeded random sequences
// of encoded-record appends, by-reference appends (of raw spans from 0 bytes
// up to several maximum chunks; of another EncodedRecords, whose owner is
// then dropped; of spans of a shared batch, whose handle the caller drops;
// of a WAL-side buffer's records, whose chunk is then cleared and refilled),
// front erasures and clears. A slice taken earlier must keep its bytes for
// as long as its record lives: buffers never move, and a shared chunk is
// never reused under a record (the sanitizer build checks that freed
// buffers are never read).
TEST(EncodedRecordsTest, MatchesReferenceUnderRandomOps) {
  constexpr size_t kMaxChunk = EncodedRecords::kMaxChunkBytes;
  struct Ref {
    Lsn lsn;
    std::string bytes;
    bool real;  // a whole record encoding (Decode-able)
    uint64_t seq;
  };
  struct Held {
    uint64_t seq;
    Slice slice;
    std::string bytes;
  };
  for (uint64_t seed = 1; seed <= 6; seed++) {
    std::mt19937_64 rng(0x5eed0100 + seed);
    EncodedRecords store;
    EncodedRecords wal;  // encodes like the WAL; `store` may share its chunk
    std::vector<Ref> ref;
    std::vector<Held> held;
    uint64_t next_seq = 0;
    Lsn next_lsn = 1;
    auto random_record = [&] {
      LogRecord r = RandomRecord(&rng);
      r.lsn = next_lsn++;
      return r;
    };
    for (int op = 0; op < 300; op++) {
      switch (rng() % 12) {
        case 0:
        case 1:
        case 2: {
          const size_t n =
              rng() % 12 == 0 ? rng() % (3 * kMaxChunk + 1) : rng() % 300;
          std::string bytes(n, '\0');
          for (char& c : bytes) c = static_cast<char>(rng());
          const Lsn lsn = next_lsn++;
          const size_t pad = rng() % 3;  // the span need not start at 0
          store.Append(lsn,
                       std::make_shared<const std::string>(
                           std::string(pad, 'p') + bytes + "tail"),
                       pad, n);
          ref.push_back({lsn, std::move(bytes), false, next_seq++});
          break;
        }
        case 3:
        case 4:
        case 5: {
          const LogRecord r = random_record();
          store.Append(r);
          ref.push_back({r.lsn, Encoded(r), true, next_seq++});
          break;
        }
        case 6: {
          EncodedRecords batch;
          for (size_t n = rng() % 5; n > 0; n--) {
            const LogRecord r = random_record();
            batch.Append(r);
            ref.push_back({r.lsn, Encoded(r), true, next_seq++});
          }
          store.Append(batch);
          break;
        }
        case 9: {
          // Spans of an indexed batch; the batch object dies at the end of
          // this block and the store alone keeps its bytes alive (its index
          // dies with it).
          std::vector<LogRecord> records;
          for (size_t n = 1 + rng() % 4; n > 0; n--) {
            records.push_back(random_record());
          }
          const RedoBatch batch = RedoBatch::Encode(records);
          for (const LogRecordSpan& r : batch.spans()) {
            store.Append(r.lsn, batch.bytes(),
                         r.bytes.data() - batch.bytes()->data(),
                         r.bytes.size());
          }
          for (const LogRecord& r : records) {
            ref.push_back({r.lsn, Encoded(r), true, next_seq++});
          }
          break;
        }
        case 10: {
          // The chunk-reuse trap: `store` takes the WAL-side records by
          // reference, then the WAL side is cleared and refilled. Its chunk
          // is shared, so the refill must not land on the shared bytes.
          wal.Clear();
          std::vector<std::string> encodings;
          for (size_t n = 1 + rng() % 4; n > 0; n--) {
            const LogRecord r = random_record();
            wal.Append(r);
            encodings.push_back(Encoded(r));
          }
          const size_t first = store.size();
          const bool whole = rng() % 2 == 0;
          if (whole) store.Append(wal);
          for (size_t i = 0; i < wal.size(); i++) {
            if (!whole) {
              if (rng() % 2 == 0) continue;
              store.Append(wal, i);
            }
            ref.push_back({wal.lsn(i), encodings[i], true, next_seq++});
            const size_t at = whole ? first + i : store.size() - 1;
            held.push_back({ref.back().seq, store.record(at), encodings[i]});
          }
          wal.Clear();
          for (size_t n = 1 + rng() % 4; n > 0; n--) {
            wal.Append(RandomRecord(&rng));
          }
          break;
        }
        case 7:
        case 8: {
          const size_t n = rng() % (ref.size() + 1);
          store.EraseFront(n);
          ref.erase(ref.begin(), ref.begin() + static_cast<ptrdiff_t>(n));
          break;
        }
        default:
          if (rng() % 4 == 0) {
            store.Clear();
            ref.clear();
          }
          break;
      }
      ASSERT_EQ(store.size(), ref.size()) << "seed " << seed << " op " << op;
      size_t total = 0;
      for (const Ref& r : ref) total += r.bytes.size();
      ASSERT_EQ(store.bytes(), total);

      // Slices held across later operations keep their bytes.
      if (!ref.empty()) {
        const size_t i = rng() % ref.size();
        held.push_back({ref[i].seq, store.record(i), ref[i].bytes});
      }
      const uint64_t first_live = ref.empty() ? next_seq : ref.front().seq;
      std::erase_if(held, [&](const Held& h) { return h.seq < first_live; });
      for (const Held& h : held) ASSERT_EQ(h.slice, Slice(h.bytes));

      if (op % 10 == 0) {
        for (size_t i = 0; i < ref.size(); i++) {
          ASSERT_EQ(store.lsn(i), ref[i].lsn);
          ASSERT_EQ(store.record(i), Slice(ref[i].bytes));
        }
      }
      const Lsn probe = rng() % (next_lsn + 1);
      const size_t after =
          std::upper_bound(ref.begin(), ref.end(), probe,
                           [](Lsn l, const Ref& r) { return l < r.lsn; }) -
          ref.begin();
      ASSERT_EQ(store.FirstAfter(probe), after);

      const size_t from = rng() % (ref.size() + 1);
      const size_t count = rng() % (ref.size() - from + 1);
      std::string want;
      PutVarint64(&want, count);
      for (size_t i = from; i < from + count; i++) want += ref[i].bytes;
      ASSERT_EQ(store.Batch(from, count), want);

      // The suffix of whole encodings decodes back to EncodeBatch's bytes.
      size_t real_from = ref.size();
      while (real_from > 0 && ref[real_from - 1].real) real_from--;
      const std::vector<LogRecord> decoded = store.Decode(real_from);
      ASSERT_EQ(decoded.size(), ref.size() - real_from);
      ASSERT_EQ(LogRecord::EncodeBatch(decoded),
                store.Batch(real_from, decoded.size()));
    }
  }
}

}  // namespace
}  // namespace disagg
