// Protocol-conformance suite for the near-data concurrency offload
// (src/memnode/executor.h): semantic equivalence between one-sided and
// offloaded index traversal, WOUND_WAIT properties of the memory-node lock
// table, exact traversal-RPC cost arithmetic against the weak-CPU model,
// crash/recovery fencing, and bit-parity when the offload is unconfigured.
#include <gtest/gtest.h>

#include <cstring>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "memnode/executor.h"
#include "net/interconnect.h"
#include "net/interceptors.h"
#include "net/membership.h"
#include "rindex/remote_btree.h"

namespace disagg {
namespace {

struct OffloadRig {
  Fabric fabric;
  MemoryNode pool;
  MemNodeExecutor exec;
  RemoteBTree::TreeRef tree_ref;
  uint32_t tree_id = 0;

  explicit OffloadRig(size_t pool_bytes = 8 << 20)
      : pool(&fabric, "pool", pool_bytes), exec(&fabric, &pool) {
    NetContext setup;
    auto tree = RemoteBTree::Create(&setup, &fabric, &pool);
    EXPECT_TRUE(tree.ok());
    tree_ref = *tree;
    tree_id = exec.RegisterTree(tree_ref);
  }

  RemoteBTree OneSided() {
    return RemoteBTree(&fabric, &pool, tree_ref,
                       RemoteBTree::Options::Sherman());
  }
  RemoteBTree Offloaded() {
    RemoteBTree t(&fabric, &pool, tree_ref, RemoteBTree::Options::Sherman());
    t.EnableOffload(pool.node(), tree_id);
    return t;
  }
};

// ---- Semantic equivalence --------------------------------------------------

// The same seeded op stream applied through the one-sided protocol and the
// offloaded protocol must commit the identical key set with identical
// values and identical statuses, op for op, and that key set must match a
// std::map model of the same ops.
TEST(MemNodeExecutorTest, OffloadSemanticEquivalence) {
  OffloadRig a, b;
  RemoteBTree one_sided = a.OneSided();
  RemoteBTree offloaded = b.Offloaded();
  NetContext ca, cb;

  constexpr uint64_t kKeySpace = 200;  // forces splits and root growth
  std::map<uint64_t, uint64_t> model;  // one shared walk: check it too
  Random rng(42);
  for (int i = 0; i < 1200; i++) {
    const uint64_t k = rng.Uniform(kKeySpace);
    const uint64_t v = static_cast<uint64_t>(i) + 1;
    const double dice = rng.NextDouble();
    if (dice < 0.6) {
      Status sa = one_sided.Put(&ca, k, v);
      Status sb = offloaded.Put(&cb, k, v);
      ASSERT_EQ(sa.code(), sb.code()) << "op " << i;
      model[k] = v;
    } else if (dice < 0.8) {
      auto ra = one_sided.Get(&ca, k);
      auto rb = offloaded.Get(&cb, k);
      ASSERT_EQ(ra.status().code(), rb.status().code()) << "op " << i;
      if (ra.ok()) {
        ASSERT_EQ(*ra, *rb) << "op " << i;
      }
    } else {
      Status sa = one_sided.Delete(&ca, k);
      Status sb = offloaded.Delete(&cb, k);
      ASSERT_EQ(sa.code(), sb.code()) << "op " << i;
      model.erase(k);
    }
  }

  // Final audit: identical committed state, point reads and full scan.
  for (uint64_t k = 0; k < kKeySpace; k++) {
    auto ra = one_sided.Get(&ca, k);
    auto rb = offloaded.Get(&cb, k);
    ASSERT_EQ(ra.status().code(), rb.status().code()) << "key " << k;
    if (ra.ok()) {
      ASSERT_EQ(*ra, *rb) << "key " << k;
    }
  }
  auto sa = one_sided.Scan(&ca, 0, kKeySpace + 8);
  auto sb = offloaded.Scan(&cb, 0, kKeySpace + 8);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(*sa, *sb);
  const std::vector<std::pair<uint64_t, uint64_t>> want(model.begin(),
                                                        model.end());
  EXPECT_EQ(*sb, want);
  EXPECT_GT(b.exec.stats().inserts, 0u);
  EXPECT_GT(b.exec.stats().splits, 0u);
  // One walk, two stores: the same op sequence splits the same nodes.
  EXPECT_EQ(one_sided.stats().splits, b.exec.stats().splits);
}

// One-sided and offloaded handles operate on the SAME tree bytes under the
// SAME lock words: writes through either protocol are visible to the other.
TEST(MemNodeExecutorTest, ProtocolsInteroperateOnLiveTree) {
  OffloadRig rig;
  RemoteBTree one_sided = rig.OneSided();
  RemoteBTree offloaded = rig.Offloaded();
  NetContext ctx;

  for (uint64_t k = 0; k < 80; k++) {
    ASSERT_TRUE((k % 2 == 0 ? one_sided : offloaded).Put(&ctx, k, k * 10).ok());
  }
  for (uint64_t k = 0; k < 80; k++) {
    auto via_one = one_sided.Get(&ctx, k);
    auto via_off = offloaded.Get(&ctx, k);
    ASSERT_TRUE(via_one.ok()) << "key " << k;
    ASSERT_TRUE(via_off.ok()) << "key " << k;
    EXPECT_EQ(*via_one, k * 10);
    EXPECT_EQ(*via_off, k * 10);
  }
  ASSERT_TRUE(offloaded.Delete(&ctx, 4).ok());
  EXPECT_TRUE(one_sided.Get(&ctx, 4).status().IsNotFound());
}

// ---- Hostile inputs ---------------------------------------------------------

// Every strict prefix of a well-formed exec.idx.* request, and a request
// naming an unregistered tree, is InvalidArgument and leaves the pool's
// bytes untouched.
TEST(MemNodeExecutorTest, MalformedIndexRequestsAreInvalidArgument) {
  OffloadRig rig;
  RemoteBTree offloaded = rig.Offloaded();
  NetContext ctx;
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(offloaded.Put(&ctx, k, k).ok());  // a two-level tree
  }
  const MemoryRegion* region = rig.fabric.node(rig.tree_ref.root_ptr.node)
                                   ->region(rig.tree_ref.root_ptr.region);
  const std::string before(region->data(), region->size());

  auto encode = [](const RpcMethod& method, uint64_t tree) {
    std::string req;
    PutVarint64(&req, tree);
    PutFixed64(&req, 42);  // key, or the scan's start key
    if (method.id() == offload::kIdxPut.id()) PutFixed64(&req, 7);
    if (method.id() == offload::kIdxScan.id()) {
      PutVarint64(&req, 300);  // 2-byte limit
    }
    return req;
  };
  for (const RpcMethod& method : {offload::kIdxGet, offload::kIdxScan,
                                  offload::kIdxPut, offload::kIdxDelete}) {
    const std::string valid = encode(method, rig.tree_id);
    std::vector<std::string> hostile;
    for (size_t n = 0; n < valid.size(); n++) {
      hostile.push_back(valid.substr(0, n));
    }
    hostile.push_back(encode(method, rig.tree_id + 1));
    hostile.push_back(encode(method, ~uint64_t{0}));
    for (const std::string& req : hostile) {
      std::string resp;
      Status st = rig.fabric.Call(&ctx, rig.pool.node(), method, req, &resp);
      EXPECT_TRUE(st.IsInvalidArgument()) << method.name() << " with "
                                          << req.size()
                                          << " bytes: " << st.ToString();
    }
  }
  EXPECT_TRUE(std::string(region->data(), region->size()) == before);
}

// A lock request is validated whole before it touches the lock table. Both
// requests below piggyback txns 1 and 2 as dead, so a handler that acted
// before validating would free their locks. Every strict prefix, every bit
// flip of the pending-list count, a flipped continuation bit on the epoch
// varint (which shifts every later field by a byte) and oversized counts
// (one that wraps to 16 when multiplied by 8 included) must be
// InvalidArgument and leave the lock table and the stats as they were.
TEST(MemNodeExecutorTest, MalformedLockRequestsChangeNoState) {
  OffloadRig rig;
  OffloadedLockClient locks(&rig.fabric, rig.pool.node());
  NetContext ctx;
  ASSERT_TRUE(locks.AcquireLock(&ctx, 1, 100, LockMode::kExclusive).ok());
  ASSERT_TRUE(locks.AcquireLock(&ctx, 2, 200, LockMode::kShared).ok());
  const size_t locks_before = rig.exec.active_locks();
  const MemNodeExecutor::Stats stats_before = rig.exec.stats();
  ASSERT_EQ(locks_before, 2u);

  auto encode = [](const RpcMethod& method, uint64_t npend) {
    std::string req;
    PutVarint64(&req, offload::kFreshEpoch);
    PutFixed64(&req, 3);  // the requesting txn
    if (method.id() == offload::kLockAcquire.id()) {
      PutFixed64(&req, 300);  // key
      req.push_back(static_cast<char>(offload::kModeExclusive));
    }
    PutVarint64(&req, npend);
    PutFixed64(&req, 1);
    PutFixed64(&req, 2);
    return req;
  };
  for (const RpcMethod& method :
       {offload::kLockAcquire, offload::kLockRelease}) {
    const std::string valid = encode(method, 2);
    const size_t count_at = valid.size() - 17;  // the count's one byte
    std::vector<std::string> hostile;
    for (size_t n = 0; n < valid.size(); n++) {
      hostile.push_back(valid.substr(0, n));
    }
    for (int bit = 0; bit < 8; bit++) {
      std::string flipped = valid;
      flipped[count_at] = static_cast<char>(flipped[count_at] ^ (1 << bit));
      hostile.push_back(flipped);
    }
    std::string shifted = valid;
    shifted[0] = static_cast<char>(shifted[0] ^ 0x80);
    hostile.push_back(shifted);
    for (uint64_t npend : {uint64_t{3}, (uint64_t{1} << 61) + 2,
                           ~uint64_t{0}}) {
      hostile.push_back(encode(method, npend));
    }
    for (const std::string& req : hostile) {
      std::string resp;
      Status st = rig.fabric.Call(&ctx, rig.pool.node(), method, req, &resp);
      EXPECT_TRUE(st.IsInvalidArgument()) << method.name() << " with "
                                          << req.size()
                                          << " bytes: " << st.ToString();
      EXPECT_EQ(rig.exec.active_locks(), locks_before)
          << method.name() << " with " << req.size() << " bytes";
      EXPECT_TRUE(rig.exec.stats() == stats_before)
          << method.name() << " with " << req.size() << " bytes";
    }
  }

  // The well-formed release frees both piggybacked txns.
  std::string resp;
  ASSERT_TRUE(rig.fabric
                  .Call(&ctx, rig.pool.node(), offload::kLockRelease,
                        encode(offload::kLockRelease, 2), &resp)
                  .ok());
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

// A corrupt exec.idx.scan reply (a huge entry count over a short body) is
// Corruption, not an allocation failure.
TEST(MemNodeExecutorTest, CorruptScanReplyIsCorruption) {
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("fake-exec", NodeKind::kMemory, InterconnectModel::Rdma());
  fabric.node(node)->RegisterHandler(
      offload::kIdxScan, [](Slice, std::string* resp, RpcServerContext*) {
        PutVarint64(resp, uint64_t{1} << 60);
        PutFixed64(resp, 1);
        PutFixed64(resp, 2);
        return Status::OK();
      });
  NetContext ctx;
  auto got = OffloadIndexScan(&fabric, &ctx, node, 0, 0, 10);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

// A corrupt tree image cannot hang a walk on either store: an internal node
// whose child is itself, or a leaf whose right sibling is itself, makes Get
// and Put return Corruption on the one-sided and the offloaded protocol.
TEST(MemNodeExecutorTest, SelfPointingNodeIsCorruptionOnBothProtocols) {
  for (const bool internal : {true, false}) {
    OffloadRig rig;
    NetContext ctx;
    auto at = rig.pool.AllocLocal(kBTreeNodeBytes);
    ASSERT_TRUE(at.ok());
    BTreeNodeImage node;
    std::memset(&node, 0, sizeof(node));
    node.nkeys = 1;
    if (internal) {
      node.level = 1;
      node.vals[0] = at->offset;  // its only child is itself
    } else {
      node.keys[0] = 1;
      node.next = at->offset;  // a leaf chained to itself, left of key 5
    }
    ASSERT_TRUE(rig.fabric.Write(&ctx, *at, &node, kBTreeNodeBytes).ok());
    const uint64_t root = at->offset;
    ASSERT_TRUE(rig.fabric.Write(&ctx, rig.tree_ref.root_ptr, &root, 8).ok());

    RemoteBTree one_sided = rig.OneSided();
    RemoteBTree offloaded = rig.Offloaded();
    for (RemoteBTree* tree : {&one_sided, &offloaded}) {
      const char* what = tree == &one_sided ? "one-sided" : "offloaded";
      auto got = tree->Get(&ctx, 5);
      EXPECT_TRUE(got.status().IsCorruption())
          << what << " internal=" << internal << ": "
          << got.status().ToString();
      Status put = tree->Put(&ctx, 5, 5);
      EXPECT_TRUE(put.IsCorruption())
          << what << " internal=" << internal << ": " << put.ToString();
    }
  }
}

// Handlers on several threads share one executor. Each thread walks its own
// tree, so no two threads touch the same node bytes, and the executor's
// counters must equal a one-thread run of the same ops. scripts/ci.sh runs
// this suite under ThreadSanitizer.
TEST(MemNodeExecutorTest, ConcurrentWalksKeepExactCounts) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 200;  // several leaf splits per tree
  auto run = [](bool threaded) {
    Fabric fabric;
    MemoryNode pool(&fabric, "pool", 8 << 20);
    MemNodeExecutor exec(&fabric, &pool);
    std::vector<RemoteBTree> trees;
    trees.reserve(kThreads);
    NetContext setup;
    for (int t = 0; t < kThreads; t++) {
      auto ref = RemoteBTree::Create(&setup, &fabric, &pool);
      EXPECT_TRUE(ref.ok());
      trees.emplace_back(&fabric, &pool, *ref, RemoteBTree::Options::Sherman());
      trees.back().EnableOffload(pool.node(), exec.RegisterTree(*ref));
    }
    std::atomic<uint64_t> wrong{0};
    auto work = [&](int t) {
      NetContext ctx;
      for (uint64_t k = 1; k <= kKeys; k++) {
        if (!trees[t].Put(&ctx, k, k * kThreads + t).ok()) wrong++;
      }
      for (uint64_t k = 1; k <= kKeys; k++) {
        auto got = trees[t].Get(&ctx, k);
        if (!got.ok() || *got != k * kThreads + t) wrong++;
      }
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) threads.emplace_back(work, t);
      for (std::thread& th : threads) th.join();
    } else {
      for (int t = 0; t < kThreads; t++) work(t);
    }
    EXPECT_EQ(wrong.load(), 0u) << (threaded ? "threaded" : "one thread");
    return exec.stats();
  };
  const MemNodeExecutor::Stats one = run(false);
  const MemNodeExecutor::Stats many = run(true);
  EXPECT_EQ(many.inserts, uint64_t{kThreads} * kKeys);
  EXPECT_EQ(many.lookups, uint64_t{kThreads} * kKeys);
  EXPECT_GT(many.splits, 0u);
  EXPECT_GT(many.nodes_visited, 0u);
  EXPECT_TRUE(many == one);
}

// ---- Traversal-RPC cost arithmetic ----------------------------------------

// An offloaded lookup on a single-leaf tree is exactly one RPC charged
//   RpcCost(req, resp) + (kDispatchNs + kNodeVisitNs * 1) * cpu_scale
// against the pool's weak-CPU model. Checked to the nanosecond.
TEST(MemNodeExecutorTest, LookupCostMatchesWeakCpuModel) {
  OffloadRig rig;
  RemoteBTree offloaded = rig.Offloaded();
  NetContext ctx;
  ASSERT_TRUE(offloaded.Put(&ctx, 7, 70).ok());

  const InterconnectModel model = InterconnectModel::Rdma();
  constexpr double kPoolCpuScale = 1.5;  // MemoryNode's wimpy-core scale
  // Request: varint tree id (0 -> 1 byte) + fixed64 key; response: fixed64.
  const size_t req_bytes = 1 + 8;
  const size_t resp_bytes = 8;
  const uint64_t compute =
      offload::kDispatchNs + offload::kNodeVisitNs * 1;  // root IS the leaf
  const uint64_t expected =
      model.RpcCost(req_bytes, resp_bytes) +
      static_cast<uint64_t>(static_cast<double>(compute) * kPoolCpuScale);

  const uint64_t ns0 = ctx.sim_ns;
  const uint64_t rt0 = ctx.round_trips;
  const uint64_t rpc0 = ctx.rpcs;
  auto got = offloaded.Get(&ctx, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 70u);
  EXPECT_EQ(ctx.sim_ns - ns0, expected);
  EXPECT_EQ(ctx.round_trips - rt0, 1u);
  EXPECT_EQ(ctx.rpcs - rpc0, 1u);

  // A miss still pays dispatch + traversal (the server did the work), with
  // an empty response payload.
  const uint64_t miss_expected =
      model.RpcCost(req_bytes, 0) +
      static_cast<uint64_t>(static_cast<double>(compute) * kPoolCpuScale);
  const uint64_t ns1 = ctx.sim_ns;
  EXPECT_TRUE(offloaded.Get(&ctx, 999).status().IsNotFound());
  EXPECT_EQ(ctx.sim_ns - ns1, miss_expected);
}

TEST(MemNodeExecutorTest, ScanCostChargesPerEntry) {
  OffloadRig rig;
  RemoteBTree offloaded = rig.Offloaded();
  NetContext ctx;
  for (uint64_t k = 0; k < 10; k++) {
    ASSERT_TRUE(offloaded.Put(&ctx, k, k + 1).ok());
  }

  const InterconnectModel model = InterconnectModel::Rdma();
  constexpr double kPoolCpuScale = 1.5;
  const uint64_t limit = 5;
  // Request: varint tree (1) + fixed64 from (8) + varint limit (1).
  // Response: varint count (1) + 5 * 16 bytes of pairs.
  const uint64_t compute = offload::kDispatchNs + offload::kNodeVisitNs * 1 +
                           offload::kEntryNs * limit;
  const uint64_t expected =
      model.RpcCost(10, 1 + limit * 16) +
      static_cast<uint64_t>(static_cast<double>(compute) * kPoolCpuScale);

  const uint64_t ns0 = ctx.sim_ns;
  auto got = offloaded.Scan(&ctx, 0, limit);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), limit);
  EXPECT_EQ(ctx.sim_ns - ns0, expected);
}

// The whole point of the offload: a lookup is one fabric round trip no
// matter how deep the tree, where the one-sided protocol pays O(depth).
TEST(MemNodeExecutorTest, LookupIsOneRoundTripRegardlessOfDepth) {
  OffloadRig rig(32 << 20);
  RemoteBTree one_sided = rig.OneSided();
  RemoteBTree offloaded = rig.Offloaded();
  NetContext setup;
  for (uint64_t k = 0; k < 2000; k++) {
    ASSERT_TRUE(one_sided.Put(&setup, k, k).ok());
  }

  NetContext c1, c2;
  ASSERT_TRUE(offloaded.Get(&c1, 1234).ok());
  EXPECT_EQ(c1.round_trips, 1u);
  EXPECT_EQ(c1.rpcs, 1u);

  ASSERT_TRUE(one_sided.Get(&c2, 1234).ok());
  // Root-pointer read + one read per level (depth >= 3 at 2000 keys,
  // fanout 32): strictly more round trips than the offloaded lookup.
  EXPECT_GE(c2.round_trips, 4u);
  EXPECT_EQ(c2.rpcs, 0u);  // purely one-sided
}

// ---- Unconfigured bit-parity ----------------------------------------------

// Constructing an executor and registering the tree — without enabling
// offload on any handle — must leave the one-sided protocol's behavior,
// costs, and counters bit-identical to a run with no executor at all.
TEST(MemNodeExecutorTest, UnconfiguredOffloadIsBitIdentical) {
  auto run = [](bool with_executor) {
    Fabric fabric;
    MemoryNode pool(&fabric, "pool", 8 << 20);
    NetContext setup;
    auto tree = RemoteBTree::Create(&setup, &fabric, &pool);
    EXPECT_TRUE(tree.ok());
    std::unique_ptr<MemNodeExecutor> exec;
    if (with_executor) {
      exec = std::make_unique<MemNodeExecutor>(&fabric, &pool);
      exec->RegisterTree(*tree);
    }
    RemoteBTree t(&fabric, &pool, *tree, RemoteBTree::Options::Sherman());
    NetContext ctx;
    Random rng(99);
    for (int i = 0; i < 400; i++) {
      const uint64_t k = rng.Uniform(64);
      const double dice = rng.NextDouble();
      if (dice < 0.5) {
        (void)t.Put(&ctx, k, static_cast<uint64_t>(i));
      } else if (dice < 0.8) {
        (void)t.Get(&ctx, k);
      } else {
        (void)t.Delete(&ctx, k);
      }
    }
    const auto& s = t.stats();
    return std::make_tuple(ctx.sim_ns, ctx.bytes_out, ctx.bytes_in,
                           ctx.round_trips, ctx.rpcs, s.reads, s.writes,
                           s.optimistic_retries, s.lock_waits, s.splits,
                           s.offloaded);
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- WOUND_WAIT lock table -------------------------------------------------

struct LockRig {
  Fabric fabric;
  MemoryNode pool;
  MemNodeExecutor exec;
  OffloadedLockClient locks;

  LockRig()
      : pool(&fabric, "pool", 1 << 20),
        exec(&fabric, &pool),
        locks(&fabric, pool.node()) {}
};

TEST(MemNodeExecutorTest, LockTableMirrorsLocalSemantics) {
  LockRig rig;
  NetContext ctx;
  // S/S coexist; X conflicts with S.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(
      rig.locks.AcquireLock(&ctx, 3, 100, LockMode::kExclusive).IsBusy());
  // Upgrade only when sole sharer.
  EXPECT_TRUE(
      rig.locks.AcquireLock(&ctx, 1, 100, LockMode::kExclusive).IsBusy());
  rig.locks.ReleaseAllLocks(&ctx, 2);
  EXPECT_TRUE(
      rig.locks.AcquireLock(&ctx, 1, 100, LockMode::kExclusive).ok());
  // Re-entrant for the holder.
  EXPECT_TRUE(
      rig.locks.AcquireLock(&ctx, 1, 100, LockMode::kExclusive).ok());
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 1, 100, LockMode::kShared).ok());
  rig.locks.ReleaseAllLocks(&ctx, 1);
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

// Cyclic contention: txn 1 (older) holds k1, txn 2 holds k2, each wants the
// other's key. WOUND_WAIT: the younger waits (Busy), the older wounds the
// younger; the younger observes its wound as Aborted on its next contact
// and releasing it unblocks the older — no deadlock, no wedge.
TEST(MemNodeExecutorTest, WoundWaitResolvesCycleWithoutDeadlock) {
  LockRig rig;
  NetContext ctx;
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 1, 1, LockMode::kExclusive).ok());
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 2, 2, LockMode::kExclusive).ok());

  // Younger requester vs older holder: wait (Busy), and the OLDER holder is
  // never wounded.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 2, 1, LockMode::kExclusive).IsBusy());
  EXPECT_EQ(rig.exec.stats().wounds, 0u);

  // Older requester vs younger holder: wound.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 1, 2, LockMode::kExclusive).IsBusy());
  EXPECT_EQ(rig.exec.stats().wounds, 1u);

  // The wounded txn observes the abort on its next contact (no silent
  // grant, no lost wakeup).
  Status wounded = rig.locks.AcquireLock(&ctx, 2, 1, LockMode::kExclusive);
  EXPECT_TRUE(wounded.IsAborted()) << wounded.ToString();
  rig.locks.ReleaseAllLocks(&ctx, 2);

  // The older txn now makes progress; the oldest live txn is never wounded.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 1, 2, LockMode::kExclusive).ok());
  EXPECT_EQ(rig.exec.stats().wounded_observed, 1u);
  rig.locks.ReleaseAllLocks(&ctx, 1);
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

TEST(MemNodeExecutorTest, ReleaseClearsWoundMark) {
  LockRig rig;
  NetContext ctx;
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 5, 1, LockMode::kExclusive).ok());
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 3, 1, LockMode::kExclusive).IsBusy());
  // Txn 5 was wounded by the older 3; after it aborts (releases), the SAME
  // id starting over must not observe a stale wound.
  rig.locks.ReleaseAllLocks(&ctx, 5);
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 3, 1, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 3);
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 5, 1, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 5);
}

// Lock-service cost arithmetic: one acquire with no piggybacked releases is
// one RPC charged RpcCost + (kDispatchNs + kLockOpNs) * cpu_scale.
TEST(MemNodeExecutorTest, LockCostMatchesWeakCpuModel) {
  LockRig rig;
  NetContext ctx;
  const InterconnectModel model = InterconnectModel::Rdma();
  constexpr double kPoolCpuScale = 1.5;
  // Request: varint epoch (fresh=0 -> 1) + fixed64 txn + fixed64 key +
  // mode byte + varint npend (0 -> 1). Response: outcome byte + varint
  // epoch (1 -> 1).
  const uint64_t compute = offload::kDispatchNs + offload::kLockOpNs;
  const uint64_t expected =
      model.RpcCost(1 + 8 + 8 + 1 + 1, 2) +
      static_cast<uint64_t>(static_cast<double>(compute) * kPoolCpuScale);
  const uint64_t ns0 = ctx.sim_ns;
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 1, 42, LockMode::kExclusive).ok());
  EXPECT_EQ(ctx.sim_ns - ns0, expected);
  EXPECT_EQ(ctx.rpcs, 1u);
}

// ---- Crash, recovery, fencing ---------------------------------------------

TEST(MemNodeExecutorTest, CrashMidTraversalThenRecover) {
  OffloadRig rig;
  RemoteBTree offloaded = rig.Offloaded();
  NetContext ctx;
  ASSERT_TRUE(offloaded.Put(&ctx, 1, 10).ok());

  // The crash fires at the start of the next handler invocation: the
  // request reached the node and the node died holding it.
  rig.exec.ScheduleCrashAfter(1);
  Status st = offloaded.Get(&ctx, 1).status();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  rig.exec.Recover();
  // The pool region — the tree bytes — survived the service crash.
  auto got = offloaded.Get(&ctx, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 10u);
  EXPECT_EQ(rig.exec.stats().crashes, 1u);
  EXPECT_EQ(rig.exec.stats().recoveries, 1u);
}

TEST(MemNodeExecutorTest, CrashMidLockHandoffThenRecover) {
  LockRig rig;
  NetContext ctx;
  rig.exec.ScheduleCrashAfter(1);
  Status st = rig.locks.AcquireLock(&ctx, 1, 7, LockMode::kExclusive);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  rig.exec.Recover();
  // The txn held no grant (the crash ate the request), so it is fresh, not
  // fenced: the retry succeeds against the recovered table.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 1, 7, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 1);
}

// Epoch fencing: grants issued before a crash are void after recovery. The
// holder learns this (Aborted) instead of silently re-acquiring, and the
// key is NOT wedged for anyone else.
TEST(MemNodeExecutorTest, RecoveryFencesPreCrashGrants) {
  LockRig rig;
  NetContext ctx;
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 1, 5, LockMode::kExclusive).ok());
  EXPECT_EQ(rig.exec.epoch(), 1u);

  rig.exec.Crash();
  rig.exec.Recover();
  EXPECT_EQ(rig.exec.epoch(), 2u);
  EXPECT_EQ(rig.exec.active_locks(), 0u);  // dead clients' locks are gone

  // The pre-crash holder is fenced...
  Status st = rig.locks.AcquireLock(&ctx, 1, 6, LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  // ...and a fresh txn takes the previously-held key without contention.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 2, 5, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 2);
  // The fenced txn starts over as a fresh transaction and proceeds.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 3, 6, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 3);
}

// A release whose RPC failed is queued and piggybacked on the client's next
// request, so a faulted client's locks never outlive its next contact.
TEST(MemNodeExecutorTest, FailedReleasePiggybacksOnNextRequest) {
  LockRig rig;
  NetContext ctx;
  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 1, 9, LockMode::kExclusive).ok());

  // Transient node outage (NOT an executor crash: the lock table survives,
  // so txn 1's grant still stands when the node returns).
  rig.fabric.node(rig.pool.node())->Fail();
  rig.locks.ReleaseAllLocks(&ctx, 1);  // RPC fails; release queued
  EXPECT_EQ(rig.locks.pending_releases(), 1u);
  EXPECT_EQ(rig.exec.active_locks(), 1u);
  rig.fabric.node(rig.pool.node())->Revive();

  // The next acquire carries the queued release; the executor processes it
  // FIRST, so the previously-held key grants immediately.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 2, 9, LockMode::kExclusive).ok());
  EXPECT_EQ(rig.locks.pending_releases(), 0u);
  EXPECT_EQ(rig.exec.stats().piggybacked_releases, 1u);
  rig.locks.ReleaseAllLocks(&ctx, 2);
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

// ---- Lease-fenced execution under the membership orchestrator --------------

MembershipOptions FastDetector() {
  MembershipOptions mo;
  mo.heartbeat_period_ns = 10'000;
  mo.suspicion_threshold = 2.0;
  mo.repair_delay_ns = 20'000;
  mo.rejoin_probes = 2;
  return mo;
}

// Gray-failure fencing: the membership service revokes the node's lease
// because its HEARTBEATS die (one-way partition scoped to member.ping) while
// the node itself keeps serving client RPCs. The executor never crashes,
// never recovers — yet the lock grant issued in lease epoch 1 must be void:
// the holder gets kFenced (Aborted) on its next contact and the key is free.
TEST(MemNodeExecutorTest, LeaseRevocationVoidsGrantsWithoutCrashRecover) {
  LockRig rig;
  NetContext ctx;
  MembershipService member(&rig.fabric, FastDetector());
  member.Monitor(rig.pool.node());
  rig.exec.BindLeaseAuthority(&member);

  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 5, 1, LockMode::kExclusive).ok());
  EXPECT_EQ(rig.exec.epoch(), 1u);

  // Cut exactly the heartbeat path: probes toward the pool node vanish,
  // every other verb flows. The node is alive-but-unmonitorable — the
  // detector's gray-failure case.
  FaultPolicy fp;
  FaultPolicy::OneWay ow;
  ow.node = rig.pool.node();
  ow.from_ns = 0;
  ow.until_ns = ~0ull;
  ow.method = membership::kPingMethod;
  fp.oneways.push_back(ow);
  rig.fabric.AddInterceptor(std::make_shared<FaultInterceptor>(fp));

  uint64_t now = 0;
  while (member.HealthFor(rig.pool.node()) !=
         MembershipService::NodeHealth::kRevoked) {
    now += member.options().heartbeat_period_ns;
    member.EndEpoch(now);
    ASSERT_LT(now, 1'000'000u) << "detector never revoked";
  }
  EXPECT_EQ(member.LeaseEpoch(rig.pool.node()), 2u);
  EXPECT_EQ(rig.exec.stats().crashes, 0u);
  EXPECT_EQ(rig.exec.stats().recoveries, 0u);

  // The pre-revocation holder is fenced on its next contact (the lazy
  // re-fence voids every grant and bumps the executor epoch)...
  Status st = rig.locks.AcquireLock(&ctx, 5, 2, LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(rig.exec.epoch(), 2u);
  EXPECT_EQ(rig.exec.stats().lease_refences, 1u);
  EXPECT_EQ(rig.exec.active_locks(), 0u);

  // ...and the previously-held key grants to a fresh txn immediately.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 6, 1, LockMode::kExclusive).ok());
  rig.locks.ReleaseAllLocks(&ctx, 6);
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

// Detector-driven outage end to end: the node dies with a grant held AND a
// release queued for piggyback; the membership service (not a script)
// detects, revokes, repairs via MemNodeExecutor::Recover and rejoins. The
// piggybacked-release path must still converge — the queued release drains
// on the next request without wedging anything.
TEST(MemNodeExecutorTest, PiggybackedReleaseConvergesAcrossLeaseRecovery) {
  LockRig rig;
  NetContext ctx;
  MembershipService member(&rig.fabric, FastDetector());
  member.Monitor(rig.pool.node());
  member.OnRepair(rig.pool.node(), [&rig] { rig.exec.Recover(); });
  rig.exec.BindLeaseAuthority(&member);

  ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 9, 4, LockMode::kExclusive).ok());
  rig.fabric.node(rig.pool.node())->Fail();
  rig.locks.ReleaseAllLocks(&ctx, 9);  // RPC fails; release queued
  EXPECT_EQ(rig.locks.pending_releases(), 1u);

  // Unattended recovery: heartbeats miss, the lease is revoked, the repair
  // hook revives the executor, probation passes, the node rejoins.
  uint64_t now = 0;
  while (member.stats().rejoins == 0) {
    now += member.options().heartbeat_period_ns;
    member.EndEpoch(now);
    ASSERT_LT(now, 1'000'000u) << "orchestrator never rejoined the node";
  }
  EXPECT_EQ(rig.exec.stats().recoveries, 1u);
  EXPECT_EQ(rig.exec.active_locks(), 0u);  // recovery cleared the table

  // The next acquire piggybacks the stale queued release; the executor
  // drains it against the post-recovery table (the grant it names is
  // already gone) and still grants the new request — convergence, no
  // wedge, no double-free.
  EXPECT_TRUE(rig.locks.AcquireLock(&ctx, 10, 4, LockMode::kExclusive).ok());
  EXPECT_EQ(rig.locks.pending_releases(), 0u);
  rig.locks.ReleaseAllLocks(&ctx, 10);
  EXPECT_EQ(rig.exec.active_locks(), 0u);
}

// Parity: binding a lease authority that never revokes must leave every
// client-visible counter and executor stat bit-identical to an unbound run
// — the seam is free until the first revocation.
TEST(MemNodeExecutorTest, BoundButNeverRevokedLeaseIsBitIdentical) {
  auto run = [](bool bind) {
    LockRig rig;
    std::unique_ptr<MembershipService> member;
    if (bind) {
      member = std::make_unique<MembershipService>(&rig.fabric,
                                                   FastDetector());
      member->Monitor(rig.pool.node());
      rig.exec.BindLeaseAuthority(member.get());
      // Healthy barrier steps: probes flow, suspicion stays zero.
      for (uint64_t t = 10'000; t <= 200'000; t += 10'000) {
        member->EndEpoch(t);
      }
    }
    NetContext ctx;
    Random rng(1234);
    for (int i = 0; i < 300; i++) {
      const TxnId txn = 1 + rng.Uniform(4);
      const uint64_t key = rng.Uniform(6);
      const LockMode mode =
          rng.NextDouble() < 0.5 ? LockMode::kShared : LockMode::kExclusive;
      Status st = rig.locks.AcquireLock(&ctx, txn, key, mode);
      if (st.IsAborted() || rng.NextDouble() < 0.3) {
        rig.locks.ReleaseAllLocks(&ctx, txn);
      }
    }
    const auto s = rig.exec.stats();
    return std::make_tuple(ctx.sim_ns, ctx.rpcs, ctx.bytes_out, ctx.bytes_in,
                           s.acquires, s.grants, s.conflicts, s.wounds,
                           s.fenced, s.releases, s.lease_refences,
                           rig.exec.epoch(), rig.exec.active_locks());
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- Status-contract pinning (Busy sweep regression tests) -----------------

// Contention surfaces as Busy — never TimedOut — through both protocols.
TEST(MemNodeExecutorTest, ContentionIsBusyNeverTimedOut) {
  // Offloaded lock conflict.
  {
    LockRig rig;
    NetContext ctx;
    ASSERT_TRUE(rig.locks.AcquireLock(&ctx, 1, 3, LockMode::kExclusive).ok());
    Status st = rig.locks.AcquireLock(&ctx, 2, 3, LockMode::kExclusive);
    EXPECT_TRUE(st.IsBusy()) << st.ToString();
    EXPECT_FALSE(st.IsTimedOut());
  }
  // Offloaded traversal against a stuck leaf lock word: the executor's
  // region-local spin gives up with Busy, like the one-sided client's.
  {
    OffloadRig rig;
    RemoteBTree offloaded = rig.Offloaded();
    NetContext ctx;
    ASSERT_TRUE(offloaded.Put(&ctx, 1, 1).ok());
    // Wedge the SMO lock word (slot 0) directly in pool memory.
    char* base = rig.fabric.node(rig.tree_ref.lock_table.node)
                     ->region(rig.tree_ref.lock_table.region)
                     ->data();
    uint64_t one = 1;
    std::memcpy(base + rig.tree_ref.lock_table.offset, &one, 8);
    // Fill the leaf so Put must take the SMO path.
    for (uint64_t k = 0; k < BTreeNodeImage::kFanout; k++) {
      (void)offloaded.Put(&ctx, k, k);  // in-place until the leaf is full
    }
    Status st = offloaded.Put(&ctx, 1000, 1);
    EXPECT_TRUE(st.IsBusy()) << st.ToString();
    EXPECT_FALSE(st.IsTimedOut());
  }
  // One-sided optimistic read of a torn node image: Busy, not TimedOut.
  {
    OffloadRig rig;
    RemoteBTree one_sided = rig.OneSided();
    NetContext ctx;
    ASSERT_TRUE(one_sided.Put(&ctx, 1, 1).ok());
    // Corrupt the root/leaf version words to an odd (write-in-progress)
    // value; every optimistic read retry sees it unstable.
    auto root = rig.fabric.ReadAtomic64(&ctx, rig.tree_ref.root_ptr);
    ASSERT_TRUE(root.ok());
    char* base = rig.fabric.node(rig.tree_ref.root_ptr.node)
                     ->region(rig.tree_ref.root_ptr.region)
                     ->data();
    uint64_t odd = 3;
    std::memcpy(base + *root, &odd, 8);  // version_front only: torn image
    Status st = one_sided.Get(&ctx, 1).status();
    EXPECT_TRUE(st.IsBusy()) << st.ToString();
    EXPECT_FALSE(st.IsTimedOut());
  }
}

}  // namespace
}  // namespace disagg
