#ifndef DISAGG_TESTS_TEST_UTIL_H_
#define DISAGG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/row_engine.h"

namespace disagg {
namespace testutil {

/// Seeded transactional workload mixing inserts, updates and deletes with
/// both committed and aborted transactions. Returns the expected committed
/// state; identical (seed, txns, key_space) always produces the identical
/// op sequence, so recovery tests can replay it against any engine.
inline std::map<uint64_t, std::string> RunSeededMixedWorkload(
    RowEngine* db, NetContext* ctx, uint64_t seed = 2027, int txns = 60,
    uint64_t key_space = 30) {
  std::map<uint64_t, std::string> committed;
  Random rng(seed);
  for (int t = 0; t < txns; t++) {
    const TxnId txn = db->Begin();
    std::map<uint64_t, std::string> pending_put;
    std::set<uint64_t> pending_del;
    const int ops = 1 + static_cast<int>(rng.Uniform(3));
    bool ok = true;
    for (int o = 0; o < ops && ok; o++) {
      const uint64_t key = rng.Uniform(key_space);
      if (rng.Bernoulli(0.75)) {
        const std::string row =
            "r" + std::to_string(t * 10 + o) + rng.RandomString(8);
        Status st = committed.count(key) || pending_put.count(key)
                        ? db->Update(ctx, txn, key, row)
                        : db->Insert(ctx, txn, key, row);
        if (st.ok()) {
          pending_put[key] = row;
          pending_del.erase(key);
        } else {
          ok = st.IsInvalidArgument() || st.IsNotFound();
        }
      } else {
        Status st = db->Delete(ctx, txn, key);
        if (st.ok()) {
          pending_put.erase(key);
          pending_del.insert(key);
        }
      }
    }
    if (rng.Bernoulli(0.7)) {
      EXPECT_TRUE(db->Commit(ctx, txn).ok());
      for (auto& [k, v] : pending_put) committed[k] = v;
      for (uint64_t k : pending_del) committed.erase(k);
    } else {
      EXPECT_TRUE(db->Abort(ctx, txn).ok());
    }
  }
  return committed;
}

/// Retries a Put until it lands, treating Busy as the expected contention
/// signal (multi-writer engines return it on lock conflicts). Any other
/// failure is fatal to the test.
template <typename Writer>
Status PutWithBusyRetry(Writer* writer, NetContext* ctx, uint64_t key,
                        const std::string& value, uint64_t* busy_count,
                        int max_attempts = 100000) {
  for (int attempt = 0; attempt < max_attempts; attempt++) {
    Status st = writer->Put(ctx, key, value);
    if (st.ok() || !st.IsBusy()) return st;
    if (busy_count != nullptr) (*busy_count)++;
    std::this_thread::yield();  // let the real-thread lock holder finish
  }
  return Status::Busy("PutWithBusyRetry exhausted attempts");
}

}  // namespace testutil
}  // namespace disagg

#endif  // DISAGG_TESTS_TEST_UTIL_H_
