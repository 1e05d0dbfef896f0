// The remote index's op path allocates nothing and locks little: after
// warm-up, Gets and updating Puts on a one-sided and an offloaded
// `RemoteBTree`, with the congestion model on, make no call to the global
// allocation functions. One-sided ops take no mutex at all (the congestion
// model's authoritative admission path is single-writer and lock-free);
// each offloaded call takes exactly one, the executor's.
//
// This binary replaces the global `operator new` with a counting one and
// interposes `pthread_mutex_lock` (forwarding to the next definition), so it
// holds only this test.

#include <dlfcn.h>
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>

#include "memnode/executor.h"
#include "memnode/memory_node.h"
#include "rindex/remote_btree.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

std::atomic<uint64_t> g_mutex_locks{0};

using MutexLockFn = int (*)(pthread_mutex_t*);
// Resolved on first use without a function-local static, whose guard could
// itself take a lock.
std::atomic<MutexLockFn> g_next_mutex_lock{nullptr};

}  // namespace

extern "C" int pthread_mutex_lock(pthread_mutex_t* m) {
  MutexLockFn next = g_next_mutex_lock.load(std::memory_order_acquire);
  if (next == nullptr) {
    next = reinterpret_cast<MutexLockFn>(
        dlsym(RTLD_NEXT, "pthread_mutex_lock"));
    g_next_mutex_lock.store(next, std::memory_order_release);
  }
  g_mutex_locks.fetch_add(1, std::memory_order_relaxed);
  return next(m);
}

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace disagg {
namespace {

TEST(IndexAllocTest, OpPathAllocatesNothingAndLocksOnlyTheExecutor) {
  // The interposer sees this binary's own locks: std::mutex goes through it.
  {
    std::mutex probe;
    const uint64_t before = g_mutex_locks.load(std::memory_order_relaxed);
    probe.lock();
    probe.unlock();
    ASSERT_EQ(g_mutex_locks.load(std::memory_order_relaxed) - before, 1u);
  }

  constexpr uint64_t kKeys = 2000;  // a two-level tree
  constexpr int kOps = 1000;
  Fabric fabric;
  MemoryNode pool(&fabric, "pool", 8 << 20);
  MemNodeExecutor exec(&fabric, &pool);
  NetContext setup;
  auto ref = RemoteBTree::Create(&setup, &fabric, &pool);
  ASSERT_TRUE(ref.ok());
  RemoteBTree one_sided(&fabric, &pool, *ref, RemoteBTree::Options::Sherman());
  RemoteBTree offloaded(&fabric, &pool, *ref, RemoteBTree::Options::Sherman());
  offloaded.EnableOffload(pool.node(), exec.RegisterTree(*ref));
  for (uint64_t k = 1; k <= kKeys; k++) {
    ASSERT_TRUE(one_sided.Put(&setup, k, k).ok());
  }
  CongestionConfig cfg;
  cfg.node_caps[pool.node()] = pool.ServiceCapacity(/*ns_per_op=*/100);
  fabric.EnableCongestion(cfg);

  for (RemoteBTree* tree : {&one_sided, &offloaded}) {
    const char* what = tree == &one_sided ? "one-sided" : "offloaded";
    NetContext ctx;
    auto key = [](int i) { return 1 + (uint64_t{7919} * i) % kKeys; };
    for (int i = 0; i < 100; i++) {  // warm-up
      ASSERT_TRUE(tree->Get(&ctx, key(i)).ok());
      ASSERT_TRUE(tree->Put(&ctx, key(i), key(i)).ok());
    }
    const uint64_t splits = tree->stats().splits;
    // Counted window: tally failures instead of asserting inside it.
    uint64_t failures = 0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const uint64_t locks_before = g_mutex_locks.load(std::memory_order_relaxed);
    for (int i = 0; i < kOps; i++) failures += !tree->Get(&ctx, key(i)).ok();
    for (int i = 0; i < kOps; i++) {
      failures += !tree->Put(&ctx, key(i), key(i) + i).ok();
    }
    const uint64_t locks =
        g_mutex_locks.load(std::memory_order_relaxed) - locks_before;
    const uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(failures, 0u) << what;
    EXPECT_EQ(allocations, 0u) << what;
    EXPECT_EQ(locks, tree == &one_sided ? 0u : uint64_t{2 * kOps}) << what;
    EXPECT_EQ(tree->stats().splits, splits) << what << ": Puts split a leaf";
  }
  EXPECT_EQ(exec.stats().splits, 0u);
  EXPECT_EQ(exec.stats().inserts, uint64_t{100 + kOps});
}

}  // namespace
}  // namespace disagg
