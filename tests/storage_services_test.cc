#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "net/fabric.h"
#include "storage/gossip.h"
#include "storage/log_store.h"
#include "storage/object_store.h"
#include "storage/page_store.h"
#include "storage/quorum.h"
#include "storage/raft_lite.h"
#include "test_util.h"

namespace disagg {
namespace {

const RpcMethod kLogRead("log.read");
const RpcMethod kLogAppend("log.append");
const RpcMethod kPageApplyLog("page.apply_log");

RedoBatch Redo(const std::vector<LogRecord>& records) {
  return RedoBatch::Encode(records);
}

LogRecord MakeInsert(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload, TxnId txn = 1) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = txn;
  r.type = LogType::kInsert;
  r.page_id = page;
  r.slot = slot;
  r.payload = payload;
  return r;
}

LogRecord MakeUpdate(Lsn lsn, PageId page, uint16_t slot,
                     const std::string& payload, TxnId txn = 1) {
  LogRecord r = MakeInsert(lsn, page, slot, payload, txn);
  r.type = LogType::kUpdate;
  return r;
}

// Captures the request bytes of every log.append / page.apply_log RPC, and
// can refuse one method on one node to simulate a replica that took the
// log append but missed the page-store copy.
class RedoTap : public FabricInterceptor {
 public:
  struct Sent {
    NodeId node;
    std::string method;
    std::string request;
  };
  const char* name() const override { return "redo-tap"; }
  Status Intercept(Fabric*, FabricOp* op, NetContext* ctx,
                   const FabricOpInvoker& next) override {
    if (op->verb != FabricVerb::kRpc ||
        (*op->method != "log.append" && *op->method != "page.apply_log")) {
      return next(op, ctx);
    }
    sent.push_back({op->node, *op->method, op->request.ToString()});
    if (refuse_node == op->node && refuse_method == *op->method) {
      refuse_method.clear();
      return Status::Unavailable("refused by test");
    }
    return next(op, ctx);
  }

  std::vector<Sent> sent;
  NodeId refuse_node = 0;
  std::string refuse_method;
};

std::string ReadAllBytes(Fabric* fabric, NetContext* ctx, NodeId node,
                         Lsn from = 0, uint64_t max = ~uint64_t{0}) {
  std::string req, resp;
  PutVarint64(&req, from);
  PutVarint64(&req, max);
  EXPECT_TRUE(fabric->Call(ctx, node, kLogRead, req, &resp).ok());
  return resp;
}

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("log0", NodeKind::kLog, InterconnectModel::Ssd());
    service_ = std::make_unique<LogStoreService>(&fabric_, node_);
    client_ = std::make_unique<LogStoreClient>(&fabric_, node_);
  }

  Fabric fabric_;
  NodeId node_ = 0;
  std::unique_ptr<LogStoreService> service_;
  std::unique_ptr<LogStoreClient> client_;
  NetContext ctx_;
};

TEST_F(LogStoreTest, AppendAdvancesDurableLsn) {
  auto lsn = client_->Append(&ctx_, Redo({MakeInsert(1, 7, 0, "a"),
                                     MakeInsert(2, 7, 1, "b")}));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  EXPECT_EQ(service_->durable_lsn(), 2u);
  EXPECT_EQ(service_->record_count(), 2u);
}

TEST_F(LogStoreTest, AppendIsIdempotentOnResend) {
  const RedoBatch batch = Redo({MakeInsert(1, 7, 0, "a")});
  ASSERT_TRUE(client_->Append(&ctx_, batch).ok());
  ASSERT_TRUE(client_->Append(&ctx_, batch).ok());  // duplicate send
  EXPECT_EQ(service_->record_count(), 1u);
}

TEST_F(LogStoreTest, ReadFromReturnsSuffix) {
  ASSERT_TRUE(client_->Append(&ctx_, Redo({MakeInsert(1, 7, 0, "a"),
                                      MakeInsert(2, 7, 1, "b"),
                                      MakeInsert(3, 7, 2, "c")}))
                  .ok());
  auto recs = client_->ReadFrom(&ctx_, 1);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].lsn, 2u);
  EXPECT_EQ((*recs)[1].lsn, 3u);
}

TEST_F(LogStoreTest, ReadReturnsTheAppendedEncodings) {
  const std::vector<LogRecord> first = {MakeInsert(1, 7, 0, "a"),
                                        MakeInsert(2, 8, 0, std::string(200, 'b'))};
  std::vector<LogRecord> second = {MakeUpdate(3, 7, 0, ""),
                                   MakeInsert(4, 9, 0, "d")};
  second[0].undo_payload = "a";
  ASSERT_TRUE(client_->Append(&ctx_, Redo(first)).ok());
  ASSERT_TRUE(client_->Append(&ctx_, Redo(first)).ok());
  ASSERT_TRUE(client_->Append(&ctx_, Redo(second)).ok());
  std::vector<LogRecord> all = first;
  all.insert(all.end(), second.begin(), second.end());

  EXPECT_EQ(ReadAllBytes(&fabric_, &ctx_, node_), LogRecord::EncodeBatch(all));
  EXPECT_EQ(ReadAllBytes(&fabric_, &ctx_, node_, 1, 2),
            LogRecord::EncodeBatch({all[1], all[2]}));
  EXPECT_EQ(ReadAllBytes(&fabric_, &ctx_, node_, 4),
            LogRecord::EncodeBatch({}));
  // A bound of 0 still returns the first match.
  EXPECT_EQ(ReadAllBytes(&fabric_, &ctx_, node_, 0, 0),
            LogRecord::EncodeBatch({all[0]}));
  EXPECT_EQ(LogRecord::EncodeBatch(service_->SnapshotFrom(2)),
            LogRecord::EncodeBatch({all[2], all[3]}));

  ASSERT_TRUE(client_->Append(&ctx_, Redo({MakeInsert(5, 9, 1, "e")})).ok());
  EXPECT_EQ(ReadAllBytes(&fabric_, &ctx_, node_, 3),
            LogRecord::EncodeBatch({all[3], MakeInsert(5, 9, 1, "e")}));
}

// A store keeps the caller's batch by reference only when the request
// owner holds exactly the request bytes, indexed or not: the log store takes
// one reference, the page store one per page with pending redo, and
// materializing a page releases its reference. With no owner, or an owner
// of another buffer (even with equal bytes), the stores copy the request
// once and neither buffer gains a holder. What the stores hold reads back
// the same in every case.
TEST(SharedRedoTest, StoresReferenceTheCallersBatchOnlyWhenItIsTheRequest) {
  LogRecord commit;
  commit.lsn = 4;
  commit.type = LogType::kTxnCommit;
  const std::vector<LogRecord> records = {
      MakeInsert(1, 5, 0, "a"), MakeInsert(2, 6, 0, std::string(300, 'b')),
      MakeInsert(3, 5, 1, "c"), commit};
  enum class Owner { kIndexed, kBytes, kNone, kOtherBuffer };
  for (const Owner mode :
       {Owner::kIndexed, Owner::kBytes, Owner::kNone, Owner::kOtherBuffer}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Fabric fabric;
    const NodeId node =
        fabric.AddNode("s0", NodeKind::kStorage, InterconnectModel::Ssd());
    LogStoreService log(&fabric, node);
    PageStoreService pages(&fabric, node);
    NetContext ctx;
    const RedoBatch indexed = RedoBatch::Encode(records);
    const SharedBytes& batch = indexed.bytes();
    const RequestOwner bytes(batch);
    const RequestOwner other(std::make_shared<const std::string>(*batch));
    const RequestOwner* owner = mode == Owner::kIndexed ? &indexed
                                : mode == Owner::kBytes ? &bytes
                                : mode == Owner::kOtherBuffer ? &other
                                                              : nullptr;
    const bool exact = mode == Owner::kIndexed || mode == Owner::kBytes;
    const long base = batch.use_count();
    std::string resp;
    ASSERT_TRUE(
        fabric.Call(&ctx, node, kLogAppend, *batch, &resp, owner).ok());
    EXPECT_EQ(batch.use_count(), base + (exact ? 1 : 0));
    ASSERT_TRUE(
        fabric.Call(&ctx, node, kPageApplyLog, *batch, &resp, owner).ok());
    // Pages 5 and 6 each queue redo; the commit record queues none.
    EXPECT_EQ(batch.use_count(), base + (exact ? 3 : 0));
    EXPECT_EQ(other.bytes().use_count(), 1);

    EXPECT_EQ(ReadAllBytes(&fabric, &ctx, node), *batch);
    EXPECT_EQ(ReadAllBytes(&fabric, &ctx, node, 2),
              LogRecord::EncodeBatch({records[2], records[3]}));
    PageStoreClient client(&fabric, node);
    auto page = client.GetPage(&ctx, 5);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(1)->ToString(), "c");
    EXPECT_EQ(batch.use_count(), base + (exact ? 2 : 0));
    ASSERT_TRUE(client.GetPage(&ctx, 6).ok());
    EXPECT_EQ(batch.use_count(), base + (exact ? 1 : 0));
  }
}

// Four writers append through one segment while two readers call log.read
// and page.get on its replicas. Each batch is shared by the segment history
// and all twelve stores, and its references drop on whichever thread
// materializes a page or finishes a fan-out. Under ThreadSanitizer this
// checks the refcounted buffers; everywhere it checks that every replica
// ends with every record.
TEST(SharedRedoTest, ConcurrentWritersAndReadersShareBatches) {
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 150;
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  std::mutex lsn_mu;  // LSN order must match append order across writers
  Lsn next_lsn = 1;
  std::atomic<int> writers_left{kWriters};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      NetContext ctx;
      const PageId page = static_cast<PageId>(w + 1);  // one writer per page
      for (int i = 0; i < kAppendsPerWriter; i++) {
        std::lock_guard<std::mutex> lock(lsn_mu);
        LogRecord commit;
        commit.lsn = next_lsn + 1;
        commit.type = LogType::kTxnCommit;
        const EncodedRecords records(
            {MakeInsert(next_lsn, page, static_cast<uint16_t>(i),
                        std::to_string(i)),
             commit});
        next_lsn += 2;
        EXPECT_TRUE(segment.AppendLog(&ctx, records).ok());
      }
      writers_left--;
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r] {
      NetContext ctx;
      for (uint64_t n = 0; writers_left.load() > 0; n++) {
        const NodeId node = segment.replica((n + r) % 6).node;
        ReadAllBytes(&fabric, &ctx, node, n % 50);
        PageStoreClient pages(&fabric, node);
        auto page = pages.GetPage(&ctx, 1 + (n % kWriters));
        EXPECT_TRUE(page.ok() || page.status().IsNotFound());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Lsn last = 2 * kWriters * kAppendsPerWriter;
  EXPECT_EQ(segment.CountDurable(last), 6);
  NetContext ctx;
  for (size_t i = 0; i < segment.replica_count(); i++) {
    const NodeId node = segment.replica(i).node;
    auto records = LogRecord::DecodeBatch(ReadAllBytes(&fabric, &ctx, node));
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), last);
    for (size_t k = 0; k < records->size(); k++) {
      EXPECT_EQ((*records)[k].lsn, k + 1);
    }
    PageStoreClient pages(&fabric, node);
    for (PageId id = 1; id <= kWriters; id++) {
      auto page = pages.GetPage(&ctx, id);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ(page->slot_count(), kAppendsPerWriter);
      EXPECT_EQ(page->Get(kAppendsPerWriter - 1)->ToString(),
                std::to_string(kAppendsPerWriter - 1));
    }
  }
}

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = fabric_.AddNode("ps0", NodeKind::kStorage,
                            InterconnectModel::Ssd());
    service_ = std::make_unique<PageStoreService>(&fabric_, node_);
    client_ = std::make_unique<PageStoreClient>(&fabric_, node_);
  }

  Fabric fabric_;
  NodeId node_ = 0;
  std::unique_ptr<PageStoreService> service_;
  std::unique_ptr<PageStoreClient> client_;
  NetContext ctx_;
};

TEST_F(PageStoreTest, LogShippingMaterializesOnRead) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(1, 5, 0, "hello"),
                                        MakeUpdate(2, 5, 0, "world")}))
                  .ok());
  EXPECT_EQ(service_->pending_records(), 2u);
  EXPECT_EQ(service_->materialized_pages(), 0u);  // asynchronous
  auto page = client_->GetPage(&ctx_, 5);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->lsn(), 2u);
  EXPECT_EQ(page->Get(0)->ToString(), "world");
  EXPECT_EQ(service_->pending_records(), 0u);
}

TEST_F(PageStoreTest, PageShippingStoresImages) {
  Page page(8);
  ASSERT_TRUE(page.Insert("direct").ok());
  page.set_lsn(3);
  ASSERT_TRUE(client_->PutPage(&ctx_, page).ok());
  auto got = client_->GetPage(&ctx_, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Get(0)->ToString(), "direct");
}

TEST_F(PageStoreTest, StalePutDoesNotRegress) {
  Page newer(8);
  ASSERT_TRUE(newer.Insert("new").ok());
  newer.set_lsn(10);
  ASSERT_TRUE(client_->PutPage(&ctx_, newer).ok());
  Page older(8);
  ASSERT_TRUE(older.Insert("old").ok());
  older.set_lsn(4);
  ASSERT_TRUE(client_->PutPage(&ctx_, older).ok());
  auto got = client_->GetPage(&ctx_, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->lsn(), 10u);
  EXPECT_EQ(got->Get(0)->ToString(), "new");
}

TEST_F(PageStoreTest, MissingPageIsNotFound) {
  EXPECT_TRUE(client_->GetPage(&ctx_, 999).status().IsNotFound());
}

TEST_F(PageStoreTest, HighWaterTracksControlRecords) {
  LogRecord commit;
  commit.lsn = 9;
  commit.type = LogType::kTxnCommit;
  commit.page_id = kInvalidPageId;
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({commit})).ok());
  EXPECT_EQ(service_->high_water_lsn(), 9u);
  EXPECT_EQ(service_->pending_records(), 0u);
}

// Pending redo is queued per page in arrival order, duplicates included
// (the page store does not dedup re-sends; materialization skips records
// at or below the page LSN).
TEST_F(PageStoreTest, PendingRedoKeepsArrivalOrderCountsAndLsns) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(5, 1, 0, "a"),
                                        MakeInsert(6, 2, 0, "x"),
                                        MakeUpdate(7, 1, 0, "b")}))
                  .ok());
  // A resync re-sends LSN 5 after 7: the last queued record for page 1 is
  // now the LSN-5 duplicate.
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(5, 1, 0, "a")})).ok());
  EXPECT_EQ(service_->pending_records(), 4u);
  EXPECT_EQ(service_->PageVersions(),
            (std::map<PageId, Lsn>{{1, 5}, {2, 6}}));

  // Ingesting an image at LSN 5 drops exactly the records it covers.
  Page image(1);
  ASSERT_TRUE(image.Insert("a").ok());
  image.set_lsn(5);
  service_->IngestPage(image);
  EXPECT_EQ(service_->pending_records(), 2u);  // page 1's LSN 7, page 2's 6
  EXPECT_EQ(service_->PageVersions(),
            (std::map<PageId, Lsn>{{1, 7}, {2, 6}}));

  EXPECT_EQ(service_->MaterializeAll(), 2u);
  EXPECT_EQ(service_->pending_records(), 0u);
  auto p1 = service_->PeekPage(1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->lsn(), 7u);
  EXPECT_EQ(p1->Get(0)->ToString(), "b");
  auto p2 = client_->GetPage(&ctx_, 2);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->Get(0)->ToString(), "x");
}

TEST_F(PageStoreTest, GetChargesPerPendingRecordIncludingDuplicates) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(1, 4, 0, "a")})).ok());
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(1, 4, 0, "a")})).ok());
  NetContext two;
  ASSERT_TRUE(client_->GetPage(&two, 4).ok());
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeUpdate(2, 4, 0, "b")})).ok());
  NetContext one;
  ASSERT_TRUE(client_->GetPage(&one, 4).ok());
  // Same request and response sizes; only the replayed-record count differs.
  EXPECT_GT(two.sim_ns, one.sim_ns);
}

// An unappliable record (an update that grows its slot) stops
// materialization there: the applied prefix leaves the pending list, the
// failing record and its successors stay, and every read reports the same
// status instead of re-running the prefix.
TEST_F(PageStoreTest, UnappliableRedoKeepsItselfAndItsSuccessorsPending) {
  ASSERT_TRUE(client_->ApplyLog(&ctx_, Redo({MakeInsert(1, 6, 0, "a"),
                                        MakeUpdate(2, 6, 0, "grown"),
                                        MakeInsert(3, 6, 1, "b")}))
                  .ok());
  EXPECT_EQ(service_->MaterializeAll(), 1u);
  EXPECT_EQ(service_->pending_records(), 2u);

  // A second attempt applies nothing twice and stops at the same record.
  EXPECT_EQ(service_->MaterializeAll(), 0u);
  EXPECT_EQ(service_->pending_records(), 2u);
  const Status first = client_->GetPage(&ctx_, 6).status();
  const Status second = client_->GetPage(&ctx_, 6).status();
  EXPECT_TRUE(first.IsInvalidArgument()) << first.ToString();
  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(service_->pending_records(), 2u);

  auto page = service_->PeekPage(6);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->lsn(), 1u);
  EXPECT_EQ(page->slot_count(), 1u);
  EXPECT_EQ(page->Get(0)->ToString(), "a");
}

// log.read, log.tail, page.get and page.put on one storage node (a log store
// and a page store, as on every quorum replica): a hostile payload fails with
// a status and moves nothing. log.tail ignores its request, so every payload
// gets the same answer.
TEST(StorageNodeTest, HostilePayloadsFailWithoutSideEffects) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("st0", NodeKind::kStorage, InterconnectModel::Ssd());
  LogStoreService log(&fabric, node);
  PageStoreService pages(&fabric, node);
  LogStoreClient log_client(&fabric, node);
  PageStoreClient page_client(&fabric, node);
  NetContext ctx;
  const RedoBatch redo = Redo({MakeInsert(1, 5, 0, "a"),
                               MakeInsert(2, 300, 0, "b")});
  ASSERT_TRUE(log_client.Append(&ctx, redo).ok());
  ASSERT_TRUE(page_client.ApplyLog(&ctx, redo).ok());
  ASSERT_TRUE(page_client.GetPage(&ctx, 5).ok());  // page 300 stays pending
  const Lsn durable = log.durable_lsn();
  const size_t records = log.record_count();
  const size_t materialized = pages.materialized_pages();
  const size_t pending = pages.pending_records();
  ASSERT_EQ(materialized, 1u);
  ASSERT_EQ(pending, 1u);

  // Two-byte varints, so no strict prefix decodes; the extra overlong
  // varint runs ten continuation bytes before a terminator.
  std::string read;
  PutVarint64(&read, 300);
  PutVarint64(&read, 300);
  std::vector<std::string> reads = testutil::MalformedPayloads(read, {});
  reads.push_back(std::string(10, '\xff') + '\x01');
  std::string get;
  PutVarint64(&get, 300);  // the pending page: a decode would materialize it
  std::vector<std::string> gets = testutil::MalformedPayloads(get, {});
  gets.push_back(std::string(10, '\xff') + '\x01');

  // page.put: a sealed image of a new page, cut short or with one byte
  // flipped (header, checksum, slot directory, record bytes, tail).
  Page image(8);
  ASSERT_TRUE(image.Insert("direct").ok());
  image.set_lsn(3);
  image.Seal();
  const std::string put(image.data(), kPageSize);
  std::vector<std::string> truncated = {std::string(11, '\x80')};
  for (size_t len : {size_t{0}, size_t{1}, Page::kHeaderSize,
                     kPageSize / 2, kPageSize - 1}) {
    truncated.push_back(put.substr(0, len));
  }
  truncated.push_back(put + '\0');
  std::vector<std::string> flipped;
  for (size_t at : {size_t{0}, size_t{8}, offsetof(Page::Header, checksum),
                    Page::kHeaderSize, kPageSize / 2, kPageSize - 1}) {
    std::string bad = put;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    flipped.push_back(std::move(bad));
  }

  const std::pair<const char*, std::vector<std::string>> corpora[] = {
      {"log.read", reads},
      {"page.get", gets},
      {"page.put", truncated},
      {"page.put", flipped},
  };
  for (const auto& [method, hostile] : corpora) {
    const RpcMethod rpc(method);
    for (const std::string& req : hostile) {
      std::string resp;
      const Status st = fabric.Call(&ctx, node, rpc, req, &resp);
      EXPECT_FALSE(st.ok()) << method << ", request of " << req.size()
                            << " bytes";
      if (&hostile == &flipped) {
        EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      }
    }
  }

  const RpcMethod tail("log.tail");
  std::string expected;
  ASSERT_TRUE(fabric.Call(&ctx, node, tail, "", &expected).ok());
  for (const std::vector<std::string>* corpus : {&reads, &gets, &truncated}) {
    for (const std::string& req : *corpus) {
      std::string resp;
      EXPECT_TRUE(fabric.Call(&ctx, node, tail, req, &resp).ok());
      EXPECT_EQ(resp, expected) << "request of " << req.size() << " bytes";
    }
  }

  EXPECT_EQ(log.durable_lsn(), durable);
  EXPECT_EQ(log.record_count(), records);
  EXPECT_EQ(pages.materialized_pages(), materialized);
  EXPECT_EQ(pages.pending_records(), pending);
  EXPECT_TRUE(pages.PeekPage(8).status().IsNotFound());
  // The well-formed requests still work.
  std::string resp;
  EXPECT_TRUE(fabric.Call(&ctx, node, kLogRead, read, &resp).ok());
  EXPECT_TRUE(fabric.Call(&ctx, node, RpcMethod("page.put"), put, &resp).ok());
  EXPECT_EQ(pages.materialized_pages(), materialized + 1);
}

TEST(QuorumTest, AuroraQuorumSurvivesAzFailure) {
  Fabric fabric;
  ReplicatedSegment::Config cfg;  // 6 replicas / 3 AZs / W=4 / R=3
  ReplicatedSegment segment(&fabric, cfg);
  NetContext ctx;

  ASSERT_TRUE(
      segment.AppendLog(&ctx, EncodedRecords({MakeInsert(1, 1, 0, "a")}))
          .ok());
  EXPECT_EQ(segment.CountDurable(1), 6);

  segment.FailAz(0);  // lose 2 of 6 replicas
  auto lsn =
      segment.AppendLog(&ctx, EncodedRecords({MakeInsert(2, 1, 1, "b")}));
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(segment.CountDurable(2), 4);

  // Losing one more node blocks writes (3 < W=4)...
  fabric.node(segment.replica(1).node)->Fail();
  EXPECT_TRUE(
      segment.AppendLog(&ctx, EncodedRecords({MakeInsert(3, 1, 2, "c")}))
          .status()
          .IsUnavailable());
  // ...but the read quorum still sees every committed write: the recovered
  // LSN is never below the quorum-committed LSN 2 (it may exceed it when an
  // incomplete write reached some replicas; Aurora completes or truncates
  // such writes during repair).
  auto durable = segment.RecoverDurableLsn(&ctx);
  ASSERT_TRUE(durable.ok());
  EXPECT_GE(*durable, 2u);
}

TEST(QuorumTest, ReadPagePrefersCurrentReplica) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  ASSERT_TRUE(
      segment.AppendLog(&ctx, EncodedRecords({MakeInsert(1, 3, 0, "x")}))
          .ok());
  auto page = segment.ReadPage(&ctx, 3, /*min_lsn=*/1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "x");
  // A future LSN no replica has acked yet is unavailable.
  EXPECT_TRUE(segment.ReadPage(&ctx, 3, /*min_lsn=*/99).status()
                  .IsUnavailable());
}

TEST(QuorumTest, ParallelFanOutChargesMaxNotSum) {
  Fabric fabric;
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  ASSERT_TRUE(
      segment.AppendLog(&ctx, EncodedRecords({MakeInsert(1, 1, 0, "a")}))
          .ok());
  // One append = log.append + page.apply_log to ONE replica's worth of
  // simulated time (fan-out is parallel), so well under 6x a single RPC pair.
  NetContext single;
  LogStoreClient one(&fabric, segment.replica(0).node);
  ASSERT_TRUE(one.Append(&single, Redo({MakeInsert(2, 1, 1, "b")})).ok());
  EXPECT_LT(ctx.sim_ns, 4 * single.sim_ns);
  EXPECT_GT(ctx.bytes_out, 5 * single.bytes_out);  // but 6x the traffic
}

TEST(QuorumTest, FaultFreeRequestIsTheEncodedBatch) {
  Fabric fabric;
  auto tap = std::make_shared<RedoTap>();
  fabric.AddInterceptor(tap);
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  const std::vector<std::vector<LogRecord>> batches = {
      {MakeInsert(1, 1, 0, "a"), MakeInsert(2, 2, 0, std::string(300, 'z'))},
      {MakeUpdate(3, 1, 0, "b")}};
  for (const auto& batch : batches) {
    tap->sent.clear();
    ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords(batch)).ok());
    // One log.append and one page.apply_log per replica, all carrying
    // exactly EncodeBatch(batch).
    ASSERT_EQ(tap->sent.size(), 2 * segment.replica_count());
    for (const RedoTap::Sent& s : tap->sent) {
      EXPECT_EQ(s.request, LogRecord::EncodeBatch(batch)) << s.method;
    }
  }
}

TEST(QuorumTest, LaggingReplicaRequestIsTheEncodedHistorySuffix) {
  Fabric fabric;
  auto tap = std::make_shared<RedoTap>();
  fabric.AddInterceptor(tap);
  ReplicatedSegment segment(&fabric, {});
  NetContext ctx;
  const NodeId down = segment.replica(0).node;
  const NodeId half = segment.replica(1).node;
  const std::vector<LogRecord> a = {MakeInsert(1, 1, 0, "a")};
  const std::vector<LogRecord> b = {MakeInsert(2, 1, 1, "b"),
                                    MakeInsert(3, 2, 0, "c")};
  const std::vector<LogRecord> c = {MakeUpdate(4, 1, 0, "A")};
  auto request_to = [&](NodeId node, const std::string& method) {
    for (const RedoTap::Sent& s : tap->sent) {
      if (s.node == node && s.method == method) return s.request;
    }
    ADD_FAILURE() << "no " << method << " sent to node " << node;
    return std::string();
  };

  // Replica 0 misses `a` entirely; replica 1 takes a's log append but its
  // page-store copy is refused, so it has not acked `a` either.
  fabric.node(down)->Fail();
  tap->refuse_node = half;
  tap->refuse_method = "page.apply_log";
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords(a)).ok());
  tap->sent.clear();
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords(b)).ok());
  std::vector<LogRecord> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(request_to(half, "log.append"), LogRecord::EncodeBatch(ab));
  EXPECT_EQ(request_to(half, "page.apply_log"), LogRecord::EncodeBatch(ab));
  EXPECT_EQ(request_to(segment.replica(2).node, "log.append"),
            LogRecord::EncodeBatch(b));

  fabric.node(down)->Revive();
  tap->sent.clear();
  ASSERT_TRUE(segment.AppendLog(&ctx, EncodedRecords(c)).ok());
  std::vector<LogRecord> abc = ab;
  abc.insert(abc.end(), c.begin(), c.end());
  EXPECT_EQ(request_to(down, "log.append"), LogRecord::EncodeBatch(abc));
  EXPECT_EQ(request_to(down, "page.apply_log"), LogRecord::EncodeBatch(abc));
  EXPECT_EQ(request_to(half, "log.append"), LogRecord::EncodeBatch(c));
  EXPECT_EQ(segment.CountDurable(4), 6);

  // Every replica's log now holds exactly the history, and the replica
  // whose page-store copy was refused materializes the same page.
  for (size_t i = 0; i < segment.replica_count(); i++) {
    EXPECT_EQ(ReadAllBytes(&fabric, &ctx, segment.replica(i).node),
              LogRecord::EncodeBatch(abc))
        << "replica " << i;
  }
  auto page = segment.ReadPage(&ctx, 1, 4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "A");
  EXPECT_EQ(page->Get(1)->ToString(), "b");
  PageStoreClient half_pages(&fabric, half);
  auto half_page = half_pages.GetPage(&ctx, 1);
  ASSERT_TRUE(half_page.ok());
  EXPECT_EQ(half_page->lsn(), 4u);
  EXPECT_EQ(half_page->Get(0)->ToString(), "A");
}

TEST(RaftLiteTest, AppendCommitsOnMajority) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  auto idx = group.Append(&ctx, "write-1");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  auto entry = group.ReadCommitted(0);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "write-1");
  // All three replicas hold the entry.
  for (int i = 0; i < group.size(); i++) {
    EXPECT_EQ(group.replica(i)->log_size(), 1u);
  }
}

TEST(RaftLiteTest, ToleratesOneFailureOfThree) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  ASSERT_TRUE(group.Append(&ctx, "a").ok());
  ASSERT_TRUE(group.Append(&ctx, "b").ok());
  // Two failures => no majority.
  fabric.node(group.replica_node(1))->Fail();
  EXPECT_TRUE(group.Append(&ctx, "c").status().IsUnavailable());
}

TEST(RaftLiteTest, FailoverPreservesCommittedAndCatchesUpLaggards) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  ASSERT_TRUE(group.Append(&ctx, "a").ok());
  ASSERT_TRUE(group.Append(&ctx, "b").ok());

  // Old leader dies; the lagging replica revives.
  fabric.node(group.replica_node(0))->Fail();
  fabric.node(group.replica_node(2))->Revive();
  auto leader = group.ElectLeader(&ctx);
  ASSERT_TRUE(leader.ok());
  EXPECT_EQ(*leader, 1);  // the only up-to-date live replica

  // New leader retains both entries and catches up replica 2.
  EXPECT_EQ(group.replica(1)->log_size(), 2u);
  EXPECT_EQ(group.replica(2)->log_size(), 2u);
  ASSERT_TRUE(group.Append(&ctx, "c").ok());
  auto e = group.ReadCommitted(2);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->payload, "c");
}

TEST(RaftLiteTest, LagHintCatchesUpFollowerWithoutIndexWalk) {
  // A follower that is merely far behind must converge in O(1) rounds: the
  // reject response's log-size hint jumps next_index to the follower's end
  // instead of probing back one index per round.
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  fabric.node(group.replica_node(2))->Fail();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(group.Append(&ctx, "e" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(group.ElectLeader(&ctx, 0).ok());  // next_index = 100 for all
  fabric.node(group.replica_node(2))->Revive();
  ASSERT_TRUE(group.SyncFollower(&ctx, 2).ok());  // one reject + one send
  EXPECT_EQ(group.replica(2)->log_size(), 100u);
}

TEST(RaftLiteTest, NonConvergenceIsBusyAndResumes) {
  // Regression: non-convergence within one call's round budget used to
  // surface as TimedOut, which the status contract reserves for simulated
  // infrastructure failures; it is retryable contention (Busy), and the
  // match point found so far must persist so a second call converges.
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  // While replica 2 is partitioned away, fabricate a same-length divergent
  // log on it (a stale regime's garbage: alien terms at every index), and
  // commit 100 real entries on the live majority.
  fabric.node(group.replica_node(2))->Fail();
  for (int i = 0; i < 100; i++) {
    group.replica(2)->AppendLocal(RaftEntry{/*term=*/99, "junk"});
    ASSERT_TRUE(group.Append(&ctx, "e" + std::to_string(i)).ok());
  }
  // Re-assert leadership while 2 is still down: next_index starts at the
  // optimistic 100 and the dead follower consumes no probe rounds.
  ASSERT_TRUE(group.ElectLeader(&ctx, 0).ok());
  fabric.node(group.replica_node(2))->Revive();

  // Every probe hits an alien term, the hint (log size 100) never helps, so
  // one call's budget (64 rounds) cannot reach index 0.
  Status st = group.SyncFollower(&ctx, 2);
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  EXPECT_FALSE(st.IsTimedOut());

  // The walk resumes from the stalled match point and converges.
  ASSERT_TRUE(group.SyncFollower(&ctx, 2).ok());
  ASSERT_EQ(group.replica(2)->log_size(), 100u);
  auto e = group.replica(2)->entry(0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->term, 1u);  // the real log replaced the junk
}

TEST(RaftLiteTest, HostilePayloadsFailWithoutSideEffects) {
  Fabric fabric;
  RaftLiteGroup group(&fabric, 3);
  NetContext ctx;
  ASSERT_TRUE(group.Append(&ctx, "a").ok());
  const NodeId follower = group.replica_node(1);
  const uint64_t commit_before = group.replica(1)->commit_index();

  // A well-formed append_entries carrying the follower's next entry: term,
  // prev_index, prev_term, leader_commit, entry count, then each entry's
  // term and length-prefixed payload.
  std::string append;
  for (uint64_t v : {group.term(), uint64_t{1}, group.term(), uint64_t{1},
                     uint64_t{1}, group.term()}) {
    PutVarint64(&append, v);
  }
  const size_t count_prefix = 4;
  const size_t payload_prefix = append.size();
  PutLengthPrefixedSlice(&append, "b");
  std::vector<std::string> appends =
      testutil::MalformedPayloads(append, {count_prefix, payload_prefix});
  // Entry counts far beyond the bytes that follow (2^60 used to size an
  // allocation and abort the process).
  for (uint64_t n : {uint64_t{2}, uint64_t{1} << 60, ~uint64_t{0}}) {
    std::string req = append.substr(0, count_prefix);
    PutVarint64(&req, n);
    req += append.substr(count_prefix + 1);
    appends.push_back(std::move(req));
  }
  std::string read;
  PutVarint64(&read, 300);  // two varint bytes: both strict prefixes fail
  std::vector<std::string> reads = testutil::MalformedPayloads(read, {});
  for (uint64_t index : {uint64_t{1}, ~uint64_t{0}}) {  // not committed
    std::string req;
    PutVarint64(&req, index);
    reads.push_back(std::move(req));
  }
  const std::pair<const char*, std::vector<std::string>> corpora[] = {
      {"raft.append_entries", appends},
      {"raft.read", reads},
  };
  for (const auto& [method, hostile] : corpora) {
    const RpcMethod rpc(method);
    for (const std::string& req : hostile) {
      std::string resp;
      EXPECT_FALSE(fabric.Call(&ctx, follower, rpc, req, &resp).ok())
          << method << ", request of " << req.size() << " bytes";
    }
  }
  EXPECT_EQ(group.replica(1)->log_size(), 1u);
  EXPECT_EQ(group.replica(1)->commit_index(), commit_before);
  // The follower's term did not move either: the leader still replicates.
  ASSERT_TRUE(group.Append(&ctx, "b").ok());
  EXPECT_EQ(group.replica(1)->log_size(), 2u);
}

TEST(ObjectStoreTest, ImmutablePutGetList) {
  Fabric fabric;
  NodeId node = fabric.AddNode("s3", NodeKind::kObject,
                               InterconnectModel::ObjectStore());
  ObjectStoreService service(&fabric, node);
  ObjectStoreClient client(&fabric, node);
  NetContext ctx;

  ASSERT_TRUE(client.Put(&ctx, "tbl/part-0", "AAAA").ok());
  ASSERT_TRUE(client.Put(&ctx, "tbl/part-1", "BBBB").ok());
  EXPECT_TRUE(client.Put(&ctx, "tbl/part-0", "CCCC").IsInvalidArgument());

  auto blob = client.Get(&ctx, "tbl/part-1");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "BBBB");
  EXPECT_TRUE(client.Get(&ctx, "missing").status().IsNotFound());

  auto keys = client.List(&ctx, "tbl/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
  EXPECT_EQ(service.object_count(), 2u);
}

TEST(ObjectStoreTest, HostilePayloadsFailWithoutSideEffects) {
  Fabric fabric;
  NodeId node = fabric.AddNode("s3", NodeKind::kObject,
                               InterconnectModel::ObjectStore());
  ObjectStoreService service(&fabric, node);
  ObjectStoreClient client(&fabric, node);
  NetContext ctx;
  ASSERT_TRUE(client.Put(&ctx, "tbl/part-0", "AAAA").ok());

  // obj.put of a new key: key prefix at byte 0, value prefix after the key.
  std::string put;
  PutLengthPrefixedSlice(&put, "tbl/part-1");
  const size_t value_prefix = put.size();
  PutLengthPrefixedSlice(&put, "BBBB");
  std::vector<std::string> puts =
      testutil::MalformedPayloads(put, {0, value_prefix});
  for (uint64_t claimed : {uint64_t{1000}, uint64_t{1} << 62}) {
    std::string req;
    PutLengthPrefixedSlice(&req, "tbl/part-2");
    PutVarint64(&req, claimed);
    req += "short";
    puts.push_back(std::move(req));
  }
  // obj.get and obj.list: one length-prefixed key or prefix.
  std::string get;
  PutLengthPrefixedSlice(&get, "tbl/part-0");
  std::string list;
  PutLengthPrefixedSlice(&list, "tbl/");
  const std::pair<const char*, std::vector<std::string>> corpora[] = {
      {"obj.put", puts},
      {"obj.get", testutil::MalformedPayloads(get, {0})},
      {"obj.list", testutil::MalformedPayloads(list, {0})},
  };
  for (const auto& [method, hostile] : corpora) {
    const RpcMethod rpc(method);
    for (const std::string& req : hostile) {
      std::string resp;
      EXPECT_FALSE(fabric.Call(&ctx, node, rpc, req, &resp).ok())
          << method << ", request of " << req.size() << " bytes";
    }
  }
  EXPECT_EQ(service.object_count(), 1u);
  auto blob = client.Get(&ctx, "tbl/part-0");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "AAAA");
}

TEST(ObjectStoreTest, ObjectStoreIsSlowestTier) {
  Fabric fabric;
  NodeId obj = fabric.AddNode("s3", NodeKind::kObject,
                              InterconnectModel::ObjectStore());
  ObjectStoreService service(&fabric, obj);
  ObjectStoreClient client(&fabric, obj);
  NetContext ctx;
  ASSERT_TRUE(client.Put(&ctx, "k", "v").ok());
  EXPECT_GT(ctx.sim_ns, 1'000'000u);  // multi-millisecond
}

class GossipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; i++) {
      NodeId n = fabric_.AddNode("ps" + std::to_string(i),
                                 NodeKind::kStorage, InterconnectModel::Ssd());
      services_.push_back(std::make_unique<PageStoreService>(&fabric_, n));
    }
    std::vector<PageStoreService*> ptrs;
    for (auto& s : services_) ptrs.push_back(s.get());
    group_ = std::make_unique<GossipGroup>(&fabric_, ptrs);
  }

  Fabric fabric_;
  std::vector<std::unique_ptr<PageStoreService>> services_;
  std::unique_ptr<GossipGroup> group_;
  NetContext ctx_;
};

TEST_F(GossipTest, SpreadsPagesToAllStores) {
  // Taurus: the writer sends the page to ONE store only.
  PageStoreClient writer(&fabric_, services_[0]->node());
  ASSERT_TRUE(writer.ApplyLog(&ctx_, Redo({MakeInsert(1, 11, 0, "gossip-me")}))
                  .ok());
  EXPECT_FALSE(group_->Converged());
  const size_t rounds = group_->RunUntilConverged(&ctx_);
  EXPECT_LE(rounds, 16u);
  EXPECT_TRUE(group_->Converged());
  for (auto& s : services_) {
    s->MaterializeAll();
    auto page = s->PeekPage(11);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(0)->ToString(), "gossip-me");
  }
}

TEST_F(GossipTest, StalenessDropsMonotonically) {
  PageStoreClient writer(&fabric_, services_[0]->node());
  ASSERT_TRUE(writer.ApplyLog(&ctx_, Redo({MakeInsert(1, 11, 0, "v0")})).ok());
  for (Lsn lsn = 2; lsn <= 8; lsn++) {
    ASSERT_TRUE(
        writer.ApplyLog(&ctx_, Redo({MakeUpdate(lsn, 11, 0, "v")})).ok());
  }
  services_[0]->MaterializeAll();
  uint64_t prev = group_->MaxStaleness();
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 10 && !group_->Converged(); i++) {
    group_->RunRound(&ctx_);
    const uint64_t now = group_->MaxStaleness();
    EXPECT_LE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace disagg
