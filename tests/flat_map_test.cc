#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace disagg {
namespace {

// Checks every key of `model` (and `probes` absent keys) against `map`.
void ExpectSame(const FlatMap<uint64_t>& map,
                const std::unordered_map<uint64_t, uint64_t>& model,
                const std::vector<uint64_t>& probes) {
  ASSERT_EQ(map.size(), model.size());
  for (const auto& [key, value] : model) {
    const uint64_t* got = map.Find(key);
    ASSERT_NE(got, nullptr) << key;
    ASSERT_EQ(*got, value) << key;
  }
  for (uint64_t key : probes) {
    EXPECT_EQ(map.Find(key) != nullptr, model.count(key) == 1) << key;
  }
}

// Seeded random insert / overwrite / erase / find sequences agree with
// std::unordered_map. Keys come from a small pool so finds and erases hit,
// and the pool mixes sequential keys with keys that differ only in their
// top byte (the table tag TpccLite puts there).
TEST(FlatMapTest, RandomOpsMatchUnorderedMap) {
  for (uint64_t seed = 1; seed <= 5; seed++) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> pool;
    for (uint64_t i = 0; i < 300; i++) pool.push_back(i);
    for (uint64_t t = 0; t < 256; t++) pool.push_back(t << 56);
    for (uint64_t t = 0; t < 64; t++) pool.push_back((t << 56) | 7);
    for (int i = 0; i < 200; i++) pool.push_back(rng());

    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> model;
    for (int op = 0; op < 20000; op++) {
      const uint64_t key = pool[rng() % pool.size()];
      switch (rng() % 4) {
        case 0:
        case 1: {
          const uint64_t value = rng();
          auto [slot, fresh] = map.TryEmplace(key);
          ASSERT_EQ(fresh, model.count(key) == 0) << key;
          if (!fresh) {
            ASSERT_EQ(*slot, model[key]);
          }
          *slot = value;
          model[key] = value;
          break;
        }
        case 2:
          ASSERT_EQ(map.Erase(key), model.erase(key) == 1) << key;
          break;
        default: {
          const uint64_t* got = map.Find(key);
          auto it = model.find(key);
          ASSERT_EQ(got != nullptr, it != model.end()) << key;
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second);
          }
        }
      }
      ASSERT_EQ(map.size(), model.size());
      if (op % 2000 == 0) ExpectSame(map, model, pool);
    }
    ExpectSame(map, model, pool);
  }
}

// Growth across many doublings keeps every entry; erasing every other key
// then leaves exactly the rest.
TEST(FlatMapTest, GrowsAcrossDoublingsAndErasesBack) {
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 50000; i++) {
    const uint64_t key = ((i % 7) << 56) | (i * 3);
    keys.push_back(key);
    map[key] = i;
    model[key] = i;
  }
  ExpectSame(map, model, {});
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(map.Erase(keys[i]));
    model.erase(keys[i]);
  }
  ExpectSame(map, model, keys);
  for (uint64_t key : keys) map.Erase(key);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(keys[1]), nullptr);
  map[keys[1]] = 9;  // reusable after emptying
  EXPECT_EQ(*map.Find(keys[1]), 9u);
}

// Keys whose probe runs wrap from the last slot to the first: erasing any
// of them must shift the rest back across the wrap, not strand them. A map
// of at most twelve keys has sixteen slots, so a key's home is the top four
// bits of its Fibonacci hash.
TEST(FlatMapTest, EraseAcrossTheWrapAround) {
  auto home16 = [](uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 60;
  };
  std::vector<uint64_t> last_slot;   // home 15
  std::vector<uint64_t> first_slot;  // home 0
  for (uint64_t k = 1; last_slot.size() < 4 || first_slot.size() < 2; k++) {
    if (home16(k) == 15 && last_slot.size() < 4) last_slot.push_back(k);
    if (home16(k) == 0 && first_slot.size() < 2) first_slot.push_back(k);
  }
  std::vector<uint64_t> keys = last_slot;  // fill 15, 0, 1, 2
  keys.insert(keys.end(), first_slot.begin(), first_slot.end());  // 3, 4
  for (size_t victim = 0; victim < keys.size(); victim++) {
    FlatMap<uint64_t> map;
    for (uint64_t key : keys) map[key] = key + 1;
    ASSERT_TRUE(map.Erase(keys[victim]));
    EXPECT_FALSE(map.Erase(keys[victim]));
    EXPECT_EQ(map.size(), keys.size() - 1);
    for (uint64_t key : keys) {
      const uint64_t* got = map.Find(key);
      if (key == keys[victim]) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr) << "victim " << victim << " key " << key;
        EXPECT_EQ(*got, key + 1);
      }
    }
  }
}

// Keys that differ only in their top byte are distinct keys: all 256 of
// them live in one map at once.
TEST(FlatMapTest, TopByteOnlyKeysAreDistinct) {
  FlatMap<uint64_t> map;
  for (uint64_t t = 0; t < 256; t++) {
    ASSERT_TRUE(map.TryEmplace((t << 56) | 42).second) << t;
    *map.Find((t << 56) | 42) = t;
  }
  ASSERT_EQ(map.size(), 256u);
  for (uint64_t t = 0; t < 256; t++) {
    ASSERT_NE(map.Find((t << 56) | 42), nullptr);
    EXPECT_EQ(*map.Find((t << 56) | 42), t);
    EXPECT_EQ(map.Find((t << 56) | 43), nullptr);
  }
}

}  // namespace
}  // namespace disagg
