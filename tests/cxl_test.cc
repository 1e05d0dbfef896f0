#include <gtest/gtest.h>

#include "memnode/memory_node.h"
#include "cxl/pond.h"
#include "cxl/tiering.h"

namespace disagg {
namespace {

// A CXL Type-3 expander is a memory pool priced by the CXL model: loads and
// stores are plain one-sided reads and writes.
TEST(CxlMemoryTest, LoadStoreRoundTrip) {
  Fabric fabric;
  MemoryNode cxl(&fabric, "cxl0", 1 << 20, InterconnectModel::Cxl());
  NetContext ctx;
  auto addr = cxl.AllocLocal(64);
  ASSERT_TRUE(addr.ok());
  const uint64_t v = 0xABCD;
  ASSERT_TRUE(fabric.Write(&ctx, *addr, &v, 8).ok());
  uint64_t got = 0;
  ASSERT_TRUE(fabric.Read(&ctx, *addr, &got, 8).ok());
  EXPECT_EQ(got, v);
}

TEST(CxlMemoryTest, LatencySitsBetweenDramAndRdma) {
  Fabric fabric;
  MemoryNode cxl(&fabric, "cxl0", 1 << 20, InterconnectModel::Cxl());
  MemoryNode rdma(&fabric, "rdma0", 1 << 20);  // RDMA model
  NetContext cxl_ctx, rdma_ctx;
  auto ca = cxl.AllocLocal(64);
  auto ra = rdma.AllocLocal(64);
  ASSERT_TRUE(ca.ok() && ra.ok());
  char buf[64] = {0};
  ASSERT_TRUE(fabric.Read(&cxl_ctx, *ca, buf, 64).ok());
  ASSERT_TRUE(fabric.Read(&rdma_ctx, *ra, buf, 64).ok());
  EXPECT_GT(cxl_ctx.sim_ns, InterconnectModel::LocalDram().ReadCost(64));
  EXPECT_LT(cxl_ctx.sim_ns, rdma_ctx.sim_ns);
}

TEST(TieringTest, TieredPolicyKeepsHotInDram) {
  // DRAM fits only 100 units; hot segment must win it.
  CxlTieringManager mgr(100, 1000, CxlPlacementPolicy::kTiered);
  ASSERT_TRUE(mgr.AddSegment(1, "cold-main", 90, /*heat=*/1.0).ok());
  ASSERT_TRUE(mgr.AddSegment(2, "hot-delta", 90, /*heat=*/100.0).ok());
  EXPECT_FALSE(mgr.segment(1)->in_dram);
  EXPECT_TRUE(mgr.segment(2)->in_dram);
  EXPECT_LE(mgr.dram_used(), 100u);
}

TEST(TieringTest, UnifiedPolicyIgnoresHeat) {
  CxlTieringManager mgr(100, 1000, CxlPlacementPolicy::kUnified);
  ASSERT_TRUE(mgr.AddSegment(1, "cold", 90, 1.0).ok());
  ASSERT_TRUE(mgr.AddSegment(2, "hot", 90, 100.0).ok());
  // id-ordered placement: the cold segment got DRAM, hot went to CXL.
  EXPECT_TRUE(mgr.segment(1)->in_dram);
  EXPECT_FALSE(mgr.segment(2)->in_dram);
}

TEST(TieringTest, TieredBeatsUnifiedOnSkewedAccesses) {
  // The crux of Ahn et al.: explicit placement suffers far less slowdown.
  CxlTieringManager tiered(100, 1000, CxlPlacementPolicy::kTiered);
  CxlTieringManager unified(100, 1000, CxlPlacementPolicy::kUnified);
  for (auto* mgr : {&tiered, &unified}) {
    ASSERT_TRUE(mgr->AddSegment(1, "cold", 90, 1.0).ok());
    ASSERT_TRUE(mgr->AddSegment(2, "hot", 90, 100.0).ok());
  }
  NetContext tiered_ctx, unified_ctx;
  for (int i = 0; i < 100; i++) {  // hot segment gets ~all accesses
    ASSERT_TRUE(tiered.Access(&tiered_ctx, 2, 256).ok());
    ASSERT_TRUE(unified.Access(&unified_ctx, 2, 256).ok());
  }
  ASSERT_TRUE(tiered.Access(&tiered_ctx, 1, 256).ok());
  ASSERT_TRUE(unified.Access(&unified_ctx, 1, 256).ok());
  EXPECT_LT(tiered_ctx.sim_ns, unified_ctx.sim_ns);
}

TEST(TieringTest, CapacityEnforced) {
  CxlTieringManager mgr(10, 10, CxlPlacementPolicy::kTiered);
  ASSERT_TRUE(mgr.AddSegment(1, "a", 10, 1).ok());
  ASSERT_TRUE(mgr.AddSegment(2, "b", 10, 1).ok());
  EXPECT_TRUE(mgr.AddSegment(3, "c", 1, 1).IsUnavailable());
  EXPECT_TRUE(mgr.Access(nullptr, 99, 1).IsNotFound());
}

TEST(PondTest, PredictorIsMonotonicInPoolShare) {
  PondPool::VmRequest vm;
  vm.memory_bytes = 1 << 30;
  vm.latency_sensitivity = 0.8;
  double prev = -1;
  for (double share = 0.0; share <= 1.0; share += 0.1) {
    const double s = PondPool::PredictSlowdown(vm, share);
    EXPECT_GE(s, prev);
    prev = s;
  }
  // Untouched memory pools for free.
  vm.untouched_fraction = 1.0;
  EXPECT_DOUBLE_EQ(PondPool::PredictSlowdown(vm, 1.0), 0.0);
}

TEST(PondTest, AllocationMeetsSlo) {
  PondPool pod(/*hosts=*/4, /*dram_per_host=*/16ull << 30,
               /*pool_fraction=*/0.25);
  PondPool::VmRequest vm;
  vm.name = "vm-a";
  vm.memory_bytes = 8ull << 30;
  vm.latency_sensitivity = 0.9;
  vm.max_slowdown = 0.05;
  auto p = pod.Allocate(vm);
  ASSERT_TRUE(p.ok());
  EXPECT_LE(p->predicted_slowdown, 0.05 + 1e-9);
  EXPECT_EQ(p->local_bytes + p->pool_bytes, vm.memory_bytes);
  EXPECT_GT(p->pool_bytes, 0u);  // some memory still safely pooled
}

TEST(PondTest, InsensitiveVmPoolsMore) {
  PondPool pod(4, 16ull << 30, 0.5);
  PondPool::VmRequest sensitive, tolerant;
  sensitive.name = "sens";
  sensitive.memory_bytes = tolerant.memory_bytes = 4ull << 30;
  sensitive.latency_sensitivity = 1.0;
  tolerant.name = "tol";
  tolerant.latency_sensitivity = 0.0;
  tolerant.untouched_fraction = 0.5;
  auto ps = pod.Allocate(sensitive);
  auto pt = pod.Allocate(tolerant);
  ASSERT_TRUE(ps.ok() && pt.ok());
  EXPECT_GT(pt->pool_bytes, ps->pool_bytes);
}

TEST(PondTest, ReleaseReturnsMemory) {
  PondPool pod(2, 8ull << 30, 0.25);
  const size_t pool_before = pod.pool_free();
  PondPool::VmRequest vm;
  vm.name = "vm";
  vm.memory_bytes = 2ull << 30;
  ASSERT_TRUE(pod.Allocate(vm).ok());
  EXPECT_LT(pod.pool_free(), pool_before);
  ASSERT_TRUE(pod.Release("vm").ok());
  EXPECT_EQ(pod.pool_free(), pool_before);
  EXPECT_TRUE(pod.Release("vm").IsNotFound());
}

TEST(PondTest, PoolingPlacesVmsNoSingleHostCouldHold) {
  // The memory-utilization argument for pooling: a 10 GB VM exceeds every
  // 8 GB host, so without a pool its request strands capacity spread across
  // hosts; with a pod-level CXL pool the overflow lands in fungible pooled
  // memory and the VM places.
  PondPool no_pool(2, 8ull << 30, 0.0);
  PondPool with_pool(2, 8ull << 30, 0.5);
  PondPool::VmRequest vm;
  vm.name = "big";
  vm.memory_bytes = 10ull << 30;
  vm.latency_sensitivity = 0.0;
  vm.untouched_fraction = 0.6;
  vm.max_slowdown = 0.10;
  EXPECT_TRUE(no_pool.Allocate(vm).status().IsUnavailable());
  auto placed = with_pool.Allocate(vm);
  ASSERT_TRUE(placed.ok());
  EXPECT_GT(placed->pool_bytes, 0u);
  EXPECT_LE(placed->local_bytes, 4ull << 30);
  // And the cluster now strands less of its DRAM than the empty no-pool
  // cluster that rejected the VM.
  EXPECT_LT(with_pool.StrandedFraction(), no_pool.StrandedFraction());
}

}  // namespace
}  // namespace disagg
