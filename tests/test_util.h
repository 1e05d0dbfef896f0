#ifndef DISAGG_TESTS_TEST_UTIL_H_
#define DISAGG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

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

/// Malformed variants of the well-formed RPC payload `good`, for hostile-input
/// tests: every strict prefix, every 0->1 bit flip in the bytes at
/// `length_offsets` (each the one-byte length or count prefix of a field, so
/// the flip claims more bytes than follow), and an overlong varint (eleven
/// continuation bytes). Callers pick `good` so that none of its strict
/// prefixes decodes.
inline std::vector<std::string> MalformedPayloads(
    const std::string& good, std::initializer_list<size_t> length_offsets) {
  std::vector<std::string> out;
  for (size_t len = 0; len < good.size(); len++) {
    out.push_back(good.substr(0, len));
  }
  for (size_t at : length_offsets) {
    for (int bit = 0; bit < 8; bit++) {
      const char mask = static_cast<char>(1 << bit);
      if ((good[at] & mask) != 0) continue;
      std::string flipped = good;
      flipped[at] = static_cast<char>(flipped[at] | mask);
      out.push_back(std::move(flipped));
    }
  }
  out.push_back(std::string(11, '\x80'));
  return out;
}

}  // namespace testutil
}  // namespace disagg

#endif  // DISAGG_TESTS_TEST_UTIL_H_
