#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "common/logging.h"
#include "memnode/memory_node.h"
#include "memnode/page_source.h"
#include "memnode/remote_cache.h"
#include "memnode/shared_buffer_pool.h"
#include "memnode/two_tier_cache.h"
#include "test_util.h"

namespace disagg {
namespace {

const RpcMethod kMemAlloc("mem.alloc");
const RpcMethod kCacheChase("cache.chase");

Page MakePage(PageId id, const std::string& payload, Lsn lsn = 1) {
  Page p(id);
  DISAGG_CHECK(p.Insert(payload).ok());
  p.set_lsn(lsn);
  return p;
}

TEST(MemoryNodeTest, AllocFreeReuse) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  auto a = pool.AllocLocal(100);
  ASSERT_TRUE(a.ok());
  EXPECT_GE(a->offset, 64u);
  EXPECT_EQ(pool.allocated_bytes(), 128u);  // size-class rounding
  ASSERT_TRUE(pool.FreeLocal(*a, 100).ok());
  EXPECT_EQ(pool.allocated_bytes(), 0u);
  auto b = pool.AllocLocal(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offset, a->offset);  // free-list reuse
}

TEST(MemoryNodeTest, ExhaustionIsUnavailable) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 4096);
  ASSERT_TRUE(pool.AllocLocal(2048).ok());
  EXPECT_TRUE(pool.AllocLocal(4096).status().IsUnavailable());
  // Above 2^63 the size class cannot be rounded up to a power of two; the
  // request is refused, not looped on.
  EXPECT_TRUE(pool.AllocLocal((uint64_t{1} << 63) + 1).status()
                  .IsUnavailable());
  EXPECT_TRUE(pool.AllocLocal(~uint64_t{0}).status().IsUnavailable());
  EXPECT_EQ(pool.allocated_bytes(), 2048u);
}

TEST(MemoryNodeTest, HostileAllocRequestsFailWithoutSideEffects) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  NetContext ctx;
  std::string good;
  PutVarint64(&good, 300);  // two varint bytes: both strict prefixes fail
  std::vector<std::string> hostile = testutil::MalformedPayloads(good, {});
  for (uint64_t bytes : {uint64_t{0}, uint64_t{(1 << 20) + 1},
                         (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    std::string req;
    PutVarint64(&req, bytes);
    hostile.push_back(std::move(req));
  }
  for (const std::string& req : hostile) {
    std::string resp;
    EXPECT_FALSE(fabric.Call(&ctx, pool.node(), kMemAlloc, req, &resp).ok())
        << "request of " << req.size() << " bytes";
  }
  EXPECT_EQ(pool.allocated_bytes(), 0u);
  // The bump pointer never moved: the first real allocation takes the
  // first offset past the reserved null line.
  auto first = pool.AllocLocal(64);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->offset, 64u);
}

TEST(MemoryNodeTest, RemoteAllocatorRpc) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  RemoteAllocator alloc(&fabric, pool.node());
  NetContext ctx;
  auto addr = alloc.Alloc(&ctx, 256);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(ctx.rpcs, 1u);
  // The allocation is usable for one-sided I/O.
  const std::string data = "remote!";
  ASSERT_TRUE(fabric.Write(&ctx, *addr, data.data(), data.size()).ok());
  char buf[16] = {0};
  ASSERT_TRUE(fabric.Read(&ctx, *addr, buf, data.size()).ok());
  EXPECT_EQ(std::string(buf, data.size()), data);
  EXPECT_EQ(pool.allocated_bytes(), 256u);
}

class TwoTierCacheTest : public ::testing::Test {
 protected:
  TwoTierCacheTest()
      : pool_(&fabric_, "mem0", 64 << 20),
        cache_(&fabric_, &pool_, &storage_, /*l1=*/2, /*l2=*/4) {}

  Fabric fabric_;
  MemoryNode pool_;
  InMemoryPageSource storage_;
  TwoTierCache cache_;
  NetContext ctx_;
};

TEST_F(TwoTierCacheTest, MissThenL1Hit) {
  storage_.Seed(MakePage(1, "one"));
  auto p = cache_.Get(&ctx_, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->Get(0)->ToString(), "one");
  EXPECT_EQ(cache_.stats().misses, 1u);
  ASSERT_TRUE(cache_.Get(&ctx_, 1).ok());
  EXPECT_EQ(cache_.stats().l1_hits, 1u);
  EXPECT_EQ(storage_.fetches(), 1u);
}

TEST_F(TwoTierCacheTest, DemotionToL2AndPromotionBack) {
  for (PageId id = 1; id <= 3; id++) {
    storage_.Seed(MakePage(id, "p" + std::to_string(id)));
  }
  ASSERT_TRUE(cache_.Get(&ctx_, 1).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 2).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 3).ok());  // L1 full -> page 1 demoted
  EXPECT_EQ(cache_.stats().demotions, 1u);
  EXPECT_EQ(cache_.l2_size(), 1u);
  // Page 1 now hits in L2, not storage.
  auto p = cache_.Get(&ctx_, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->Get(0)->ToString(), "p1");
  EXPECT_EQ(cache_.stats().l2_hits, 1u);
  EXPECT_EQ(storage_.fetches(), 3u);  // no extra storage fetch
}

TEST_F(TwoTierCacheTest, L2HitIsCheaperThanStorageMiss) {
  storage_.Seed(MakePage(1, "x"));
  storage_.Seed(MakePage(2, "y"));
  storage_.Seed(MakePage(3, "z"));
  NetContext miss_ctx;
  ASSERT_TRUE(cache_.Get(&miss_ctx, 1).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 2).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 3).ok());  // demotes 1 to L2
  NetContext l2_ctx;
  ASSERT_TRUE(cache_.Get(&l2_ctx, 1).ok());
  EXPECT_LT(l2_ctx.sim_ns, miss_ctx.sim_ns);  // RDMA read < SSD fetch
}

TEST_F(TwoTierCacheTest, DirtyWritebackOnL2Eviction) {
  for (PageId id = 1; id <= 8; id++) {
    storage_.Seed(MakePage(id, "seed"));
  }
  auto p = cache_.Get(&ctx_, 1);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->Update(0, "MOD!").ok());
  ASSERT_TRUE(cache_.MarkDirty(1).ok());
  // Touch enough pages to push page 1 through L1 and out of L2.
  for (PageId id = 2; id <= 8; id++) {
    ASSERT_TRUE(cache_.Get(&ctx_, id).ok());
  }
  EXPECT_GE(cache_.stats().writebacks, 1u);
  auto stored = storage_.FetchPage(&ctx_, 1);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->Get(0)->ToString(), "MOD!");
}

TEST_F(TwoTierCacheTest, FlushAllPersistsDirtyPages) {
  storage_.Seed(MakePage(1, "aaaa"));
  auto p = cache_.Get(&ctx_, 1);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->Update(0, "bbbb").ok());
  ASSERT_TRUE(cache_.MarkDirty(1).ok());
  ASSERT_TRUE(cache_.FlushAll(&ctx_).ok());
  auto stored = storage_.FetchPage(&ctx_, 1);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->Get(0)->ToString(), "bbbb");
}

TEST_F(TwoTierCacheTest, CrashDropsL1ButL2Survives) {
  // LegoBase's fast-recovery property: remote memory outlives the compute
  // node's crash.
  storage_.Seed(MakePage(1, "x"));
  storage_.Seed(MakePage(2, "y"));
  storage_.Seed(MakePage(3, "z"));
  ASSERT_TRUE(cache_.Get(&ctx_, 1).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 2).ok());
  ASSERT_TRUE(cache_.Get(&ctx_, 3).ok());
  const size_t l2_before = cache_.l2_size();
  cache_.DropL1();
  EXPECT_EQ(cache_.l1_size(), 0u);
  EXPECT_EQ(cache_.l2_size(), l2_before);
  const uint64_t storage_fetches_before = storage_.fetches();
  ASSERT_TRUE(cache_.Get(&ctx_, 1).ok());
  EXPECT_EQ(storage_.fetches(), storage_fetches_before);  // served from L2
}

class SharedPoolTest : public ::testing::Test {
 protected:
  SharedPoolTest()
      : pool_(&fabric_, "mem0", 64 << 20),
        home_(&fabric_, &pool_, /*max_pages=*/32),
        writer_(&fabric_, &home_, /*local_cache_pages=*/4),
        reader_(&fabric_, &home_, /*local_cache_pages=*/4) {}

  Fabric fabric_;
  MemoryNode pool_;
  SharedBufferPoolHome home_;
  SharedBufferPoolClient writer_;
  SharedBufferPoolClient reader_;
  NetContext ctx_;
};

TEST_F(SharedPoolTest, WriteOnOneNodeVisibleOnAnother) {
  ASSERT_TRUE(writer_.WritePage(&ctx_, MakePage(7, "shared", 5)).ok());
  auto page = reader_.ReadPage(&ctx_, 7);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "shared");
  EXPECT_EQ(page->lsn(), 5u);
}

TEST_F(SharedPoolTest, MissingPageIsNotFound) {
  EXPECT_TRUE(reader_.ReadPage(&ctx_, 99).status().IsNotFound());
}

TEST_F(SharedPoolTest, UpdateInvalidatesStaleLocalCopies) {
  ASSERT_TRUE(writer_.WritePage(&ctx_, MakePage(7, "v1", 1)).ok());
  ASSERT_TRUE(reader_.ReadPage(&ctx_, 7).ok());  // caches v1
  ASSERT_TRUE(writer_.WritePage(&ctx_, MakePage(7, "v2", 2)).ok());
  auto page = reader_.ReadPage(&ctx_, 7);  // revalidation detects change
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0)->ToString(), "v2");
  EXPECT_EQ(reader_.stats().frame_reads, 2u);
}

TEST_F(SharedPoolTest, LocalCacheAvoidsFrameTransfer) {
  ASSERT_TRUE(writer_.WritePage(&ctx_, MakePage(7, "stable", 1)).ok());
  ASSERT_TRUE(reader_.ReadPage(&ctx_, 7).ok());
  NetContext revalidate;
  ASSERT_TRUE(reader_.ReadPage(&revalidate, 7).ok());
  EXPECT_EQ(reader_.stats().local_hits, 1u);
  // Revalidation moved only directory metadata, far below a page.
  EXPECT_LT(revalidate.bytes_in, 128u);
}

TEST_F(SharedPoolTest, ManyPagesNoCollisionLoss) {
  for (PageId id = 1; id <= 20; id++) {
    ASSERT_TRUE(
        writer_.WritePage(&ctx_, MakePage(id, "p" + std::to_string(id), id))
            .ok());
  }
  for (PageId id = 1; id <= 20; id++) {
    auto page = reader_.ReadPage(&ctx_, id);
    ASSERT_TRUE(page.ok()) << "page " << id;
    EXPECT_EQ(page->Get(0)->ToString(), "p" + std::to_string(id));
  }
}

TEST(RemoteCacheTest, PutGetEraseAndLatency) {
  Fabric fabric;
  MemoryNode pool(&fabric, "stranded0", 1 << 20);
  RemoteCache cache(&fabric, &pool);
  NetContext ctx;
  ASSERT_TRUE(cache.Put(&ctx, "k1", "value-1").ok());
  auto v = cache.Get(&ctx, "k1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value-1");
  // Remote-memory GET must be far cheaper than an SSD read (Redy's pitch).
  NetContext get_ctx;
  ASSERT_TRUE(cache.Get(&get_ctx, "k1").ok());
  EXPECT_LT(get_ctx.sim_ns, InterconnectModel::Ssd().read_base_ns);
  ASSERT_TRUE(cache.Erase(&ctx, "k1").ok());
  EXPECT_TRUE(cache.Get(&ctx, "k1").status().IsNotFound());
}

TEST(RemoteCacheTest, OverwriteReplacesValue) {
  Fabric fabric;
  MemoryNode pool(&fabric, "stranded0", 1 << 20);
  RemoteCache cache(&fabric, &pool);
  NetContext ctx;
  ASSERT_TRUE(cache.Put(&ctx, "k", "old").ok());
  ASSERT_TRUE(cache.Put(&ctx, "k", "new-longer-value").ok());
  auto v = cache.Get(&ctx, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new-longer-value");
}

TEST(RemoteCacheTest, MigrationPreservesContents) {
  Fabric fabric;
  MemoryNode old_pool(&fabric, "stranded0", 1 << 20);
  MemoryNode new_pool(&fabric, "stranded1", 1 << 20);
  RemoteCache cache(&fabric, &old_pool);
  NetContext ctx;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(cache.Put(&ctx, "key" + std::to_string(i),
                          "val" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(cache.MigrateTo(&ctx, &new_pool).ok());
  EXPECT_EQ(cache.pool_node(), new_pool.node());
  for (int i = 0; i < 10; i++) {
    auto v = cache.Get(&ctx, "key" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "val" + std::to_string(i));
  }
  // Old pool memory was released.
  EXPECT_EQ(old_pool.allocated_bytes(), 0u);
}

TEST(PointerChainTest, ClientAndServerChaseAgree) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  PointerChain chain(&fabric, &pool);
  NetContext ctx;
  auto head = chain.Build(&ctx, {"n0", "n1", "n2", "n3", "n4"});
  ASSERT_TRUE(head.ok());
  for (size_t hops = 0; hops < 5; hops++) {
    auto c = chain.ChaseClientSide(&ctx, *head, hops);
    auto s = chain.ChaseServerSide(&ctx, *head, hops);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*c, *s);
    EXPECT_EQ(*c, "n" + std::to_string(hops));
  }
}

TEST(PointerChainTest, ServerSideIsOneRoundTrip) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  PointerChain chain(&fabric, &pool);
  NetContext build_ctx;
  auto head = chain.Build(&build_ctx, {"a", "b", "c", "d", "e", "f"});
  ASSERT_TRUE(head.ok());
  NetContext client_ctx, server_ctx;
  ASSERT_TRUE(chain.ChaseClientSide(&client_ctx, *head, 5).ok());
  ASSERT_TRUE(chain.ChaseServerSide(&server_ctx, *head, 5).ok());
  EXPECT_EQ(client_ctx.round_trips, 6u);
  EXPECT_EQ(server_ctx.round_trips, 1u);
  EXPECT_LT(server_ctx.sim_ns, client_ctx.sim_ns);  // CompuCache's win
}

TEST(PointerChainTest, ChaseBeyondEndFails) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  PointerChain chain(&fabric, &pool);
  NetContext ctx;
  auto head = chain.Build(&ctx, {"only"});
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(chain.ChaseClientSide(&ctx, *head, 3).status().IsNotFound());
  EXPECT_TRUE(chain.ChaseServerSide(&ctx, *head, 3).status().IsNotFound());
}

TEST(PointerChainTest, HostileChaseRequestsFail) {
  Fabric fabric;
  MemoryNode pool(&fabric, "mem0", 1 << 20);
  PointerChain chain(&fabric, &pool);
  NetContext ctx;
  auto head = chain.Build(&ctx, {"n0", "n1"});
  ASSERT_TRUE(head.ok());
  std::string good;
  PutVarint64(&good, head->offset);
  PutVarint64(&good, 1);
  std::vector<std::string> hostile = testutil::MalformedPayloads(good, {});
  // Offsets whose node would end past the region, including ones where
  // `offset + node size` wraps around 2^64.
  for (uint64_t offset : {uint64_t{1} << 20, (uint64_t{1} << 20) - 1,
                          ~uint64_t{0} - 63, ~uint64_t{0}}) {
    std::string req;
    PutVarint64(&req, offset);
    PutVarint64(&req, 0);
    hostile.push_back(std::move(req));
  }
  for (const std::string& req : hostile) {
    std::string resp;
    EXPECT_FALSE(
        fabric.Call(&ctx, pool.node(), kCacheChase, req, &resp).ok())
        << "request of " << req.size() << " bytes";
  }
  auto still = chain.ChaseServerSide(&ctx, *head, 1);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(*still, "n1");
}

}  // namespace
}  // namespace disagg
