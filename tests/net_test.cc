#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/coding.h"
#include "net/fabric.h"
#include "net/interconnect.h"

namespace disagg {
namespace {

const RpcMethod kEcho("echo");
const RpcMethod kNope("nope");

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_node_ = fabric_.AddNode("mem0", NodeKind::kMemory,
                                InterconnectModel::Rdma());
    region_ = fabric_.node(mem_node_)->AddRegion("heap", 1 << 20);
  }

  Fabric fabric_;
  NodeId mem_node_ = 0;
  MemoryRegion* region_ = nullptr;
  NetContext ctx_;
};

TEST_F(FabricTest, WriteThenReadRoundTrips) {
  const std::string payload = "disaggregated";
  GlobalAddr addr{mem_node_, region_->id(), 128};
  ASSERT_TRUE(fabric_.Write(&ctx_, addr, payload.data(), payload.size()).ok());
  char buf[32] = {0};
  ASSERT_TRUE(fabric_.Read(&ctx_, addr, buf, payload.size()).ok());
  EXPECT_EQ(std::string(buf, payload.size()), payload);
  EXPECT_EQ(ctx_.round_trips, 2u);
  EXPECT_EQ(ctx_.bytes_out, payload.size());
  EXPECT_EQ(ctx_.bytes_in, payload.size());
}

TEST_F(FabricTest, CostModelChargesBasePlusBytes) {
  const InterconnectModel m = InterconnectModel::Rdma();
  char buf[4096];
  GlobalAddr addr{mem_node_, region_->id(), 0};
  NetContext ctx;
  ASSERT_TRUE(fabric_.Read(&ctx, addr, buf, 4096).ok());
  EXPECT_EQ(ctx.sim_ns, m.ReadCost(4096));
  EXPECT_GT(m.ReadCost(4096), m.ReadCost(8));
}

TEST_F(FabricTest, OutOfBoundsRejected) {
  char buf[16];
  GlobalAddr addr{mem_node_, region_->id(), (1 << 20) - 8};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 16).IsInvalidArgument());
  EXPECT_TRUE(fabric_.Write(&ctx_, addr, buf, 16).IsInvalidArgument());
}

TEST_F(FabricTest, UnknownNodeRejected) {
  char buf[8];
  GlobalAddr addr{999, 0, 0};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).IsInvalidArgument());
}

TEST_F(FabricTest, CompareAndSwapSemantics) {
  GlobalAddr addr{mem_node_, region_->id(), 64};
  uint64_t init = 7;
  ASSERT_TRUE(fabric_.Write(&ctx_, addr, &init, 8).ok());

  // Successful CAS observes the expected value.
  auto r1 = fabric_.CompareAndSwap(&ctx_, addr, 7, 11);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 7u);

  // Failed CAS observes the current value and does not modify memory.
  auto r2 = fabric_.CompareAndSwap(&ctx_, addr, 7, 99);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 11u);
  auto v = fabric_.ReadAtomic64(&ctx_, addr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 11u);
}

TEST_F(FabricTest, CasRequiresAlignment) {
  GlobalAddr addr{mem_node_, region_->id(), 3};
  EXPECT_FALSE(fabric_.CompareAndSwap(&ctx_, addr, 0, 1).ok());
}

TEST_F(FabricTest, FetchAddAccumulates) {
  GlobalAddr addr{mem_node_, region_->id(), 256};
  for (uint64_t i = 0; i < 5; i++) {
    auto r = fabric_.FetchAdd(&ctx_, addr, 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, i * 10);
  }
  auto v = fabric_.ReadAtomic64(&ctx_, addr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50u);
}

TEST_F(FabricTest, DoorbellBatchingPaysOneBaseLatency) {
  const InterconnectModel m = InterconnectModel::Rdma();
  char a[64], b[64], c[64];
  std::memset(a, 1, sizeof(a));
  std::memset(b, 2, sizeof(b));
  std::memset(c, 3, sizeof(c));

  NetContext batched;
  std::vector<Fabric::WriteOp> ops = {
      {{region_->id(), 0}, a, 64},
      {{region_->id(), 64}, b, 64},
      {{region_->id(), 128}, c, 64},
  };
  ASSERT_TRUE(fabric_.WriteBatch(&batched, mem_node_, ops).ok());
  EXPECT_EQ(batched.round_trips, 1u);

  NetContext separate;
  for (const auto& op : ops) {
    GlobalAddr addr{mem_node_, op.addr.region, op.addr.offset};
    ASSERT_TRUE(fabric_.Write(&separate, addr, op.src, op.n).ok());
  }
  EXPECT_EQ(separate.round_trips, 3u);
  EXPECT_LT(batched.sim_ns, separate.sim_ns);
  EXPECT_EQ(separate.sim_ns - batched.sim_ns, 2 * m.write_base_ns);
}

TEST_F(FabricTest, RpcDispatchAndComputeCharging) {
  Node* n = fabric_.node(mem_node_);
  n->set_cpu_scale(4.0);  // wimpy memory-pool CPU
  n->RegisterHandler(kEcho, [](Slice req, std::string* resp,
                               RpcServerContext* sctx) {
    resp->assign(req.data(), req.size());
    sctx->ChargeCompute(1000);
    return Status::OK();
  });

  std::string resp;
  ASSERT_TRUE(fabric_.Call(&ctx_, mem_node_, kEcho, "ping", &resp).ok());
  EXPECT_EQ(resp, "ping");
  EXPECT_EQ(ctx_.rpcs, 1u);
  const InterconnectModel m = InterconnectModel::Rdma();
  EXPECT_EQ(ctx_.sim_ns, m.RpcCost(4, 4) + 4000);
}

TEST_F(FabricTest, RpcUnknownMethod) {
  std::string resp;
  EXPECT_TRUE(
      fabric_.Call(&ctx_, mem_node_, kNope, "x", &resp).IsNotSupported());
}

TEST_F(FabricTest, FailedNodeIsUnavailableUntilRevived) {
  fabric_.node(mem_node_)->Fail();
  char buf[8];
  GlobalAddr addr{mem_node_, region_->id(), 0};
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).IsUnavailable());
  EXPECT_FALSE(fabric_.CompareAndSwap(&ctx_, addr, 0, 1).ok());
  fabric_.node(mem_node_)->Revive();
  EXPECT_TRUE(fabric_.Read(&ctx_, addr, buf, 8).ok());
}

// Resident set of this process in bytes (`/proc/self/statm`, field 2).
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// The most one first touch may commit: a page, or a huge page when
// transparent huge pages are always on.
uint64_t FirstTouchGranule() {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  return mode.find("[always]") != std::string::npos
             ? uint64_t{2} << 20
             : static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// A region is committed on first touch: declaring a pool far larger than
// what a run writes costs only the pages written.
TEST(MemoryRegionTest, CommitsOnlyThePagesWritten) {
  constexpr size_t kSize = size_t{1} << 30;
  const uint64_t before = ResidentBytes();
  auto region = std::make_unique<MemoryRegion>(0, "pool", kSize);
  const uint64_t created = ResidentBytes();
  EXPECT_LT(created, before + (uint64_t{16} << 20));

  volatile char* bytes = region->data();  // stores the compiler keeps
  bytes[0] = 1;
  bytes[kSize - 1] = 2;
  const uint64_t touched = ResidentBytes();
  // Two pages, plus a little slack for the test's own allocations.
  EXPECT_LE(touched, created + 2 * FirstTouchGranule() + 8 * 4096);
  EXPECT_EQ(bytes[kSize / 2], 0);
}

// A region allocated right after a dirtied one of the same size was freed
// reads zero where the old one was written (the allocator may hand the
// same memory back).
TEST(MemoryRegionTest, ReusedMemoryStartsZero) {
  for (size_t size : {size_t{4096}, size_t{1} << 20, size_t{64} << 20}) {
    const size_t offsets[] = {0, size / 2, size - 1};
    {
      MemoryRegion dirty(0, "dirty", size);
      volatile char* bytes = dirty.data();
      for (size_t off : offsets) bytes[off] = 0x5a;
    }
    MemoryRegion fresh(0, "fresh", size);
    for (size_t off : offsets) {
      EXPECT_EQ(fresh.data()[off], 0) << "size " << size << " offset " << off;
    }
  }
}

TEST(MemoryRegionTest, ContainsRefusesAtExactlySize) {
  constexpr size_t kSize = 4096;
  const MemoryRegion region(0, "r", kSize);
  EXPECT_EQ(region.size(), kSize);
  EXPECT_TRUE(region.Contains(0, kSize));
  EXPECT_TRUE(region.Contains(kSize - 1, 1));
  EXPECT_TRUE(region.Contains(kSize, 0));
  EXPECT_FALSE(region.Contains(0, kSize + 1));
  EXPECT_FALSE(region.Contains(kSize, 1));
  EXPECT_FALSE(region.Contains(1, kSize));
  // offset + n wraps around: refused, not read as a small range.
  EXPECT_FALSE(region.Contains(UINT64_MAX, 1));
  EXPECT_FALSE(region.Contains(UINT64_MAX, 2));
  EXPECT_FALSE(region.Contains(8, SIZE_MAX - 4));
}

TEST(InterconnectTest, LatencyOrderingMatchesPaper) {
  // Sec. 3.3: local < CXL < RDMA; storage media slower still.
  const auto local = InterconnectModel::LocalDram();
  const auto cxl = InterconnectModel::Cxl();
  const auto rdma = InterconnectModel::Rdma();
  const auto ssd = InterconnectModel::Ssd();
  const auto obj = InterconnectModel::ObjectStore();
  EXPECT_LT(local.read_base_ns, cxl.read_base_ns);
  EXPECT_LT(cxl.read_base_ns, rdma.read_base_ns);
  EXPECT_LT(rdma.read_base_ns, ssd.read_base_ns);
  EXPECT_LT(ssd.read_base_ns, obj.read_base_ns);
  // DirectCXL reports ~6.2x improvement over RDMA.
  const double ratio = static_cast<double>(rdma.read_base_ns) /
                       static_cast<double>(cxl.read_base_ns);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 9.0);
}

TEST(InterconnectTest, AvailabilityZonesRecorded) {
  Fabric fabric;
  const NodeId a = fabric.AddNode("s1", NodeKind::kStorage,
                                  InterconnectModel::Ssd(), /*az=*/1);
  const NodeId b = fabric.AddNode("s2", NodeKind::kStorage,
                                  InterconnectModel::Ssd(), /*az=*/2);
  EXPECT_EQ(fabric.node(a)->az(), 1u);
  EXPECT_EQ(fabric.node(b)->az(), 2u);
  EXPECT_EQ(fabric.num_nodes(), 3u);  // includes the null node slot
}

}  // namespace
}  // namespace disagg
