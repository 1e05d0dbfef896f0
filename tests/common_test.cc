#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/slice.h"

namespace disagg {
namespace {

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hello world"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Comparison) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("ab"), Slice("abc"));
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                             (1ull << 32), ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRejectsTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 60);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint64(&in, &got));
}

// A ten-byte varint carries bit 63 in its last byte; a last byte above 1
// would overflow 64 bits and is rejected, by the decoder and the skipper
// alike.
TEST(CodingTest, VarintRejectsOverflowingTenthByte) {
  const std::string nine_ff(9, '\xff');
  for (int last = 2; last <= 0x7f; last++) {
    const std::string buf = nine_ff + static_cast<char>(last);
    Slice in(buf);
    uint64_t got = 0;
    EXPECT_FALSE(GetVarint64(&in, &got)) << last;
    Slice skip(buf);
    EXPECT_FALSE(SkipVarint64(&skip)) << last;
  }
  const std::string max = nine_ff + '\x01';
  Slice in(max);
  uint64_t got = 0;
  ASSERT_TRUE(GetVarint64(&in, &got));
  EXPECT_EQ(got, ~0ull);
  EXPECT_TRUE(in.empty());
  Slice skip(max);
  ASSERT_TRUE(SkipVarint64(&skip));
  EXPECT_TRUE(skip.empty());

  // Every encoder's output still round-trips at the length boundaries.
  for (int bits = 0; bits <= 64; bits++) {
    const uint64_t top = bits == 64 ? ~0ull : (uint64_t{1} << bits) - 1;
    for (uint64_t v : {top, top + 1}) {
      std::string buf;
      PutVarint64(&buf, v);
      ASSERT_EQ(buf.size(), VarintLength(v));
      Slice dec(buf);
      uint64_t out = 0;
      ASSERT_TRUE(GetVarint64(&dec, &out)) << v;
      EXPECT_EQ(out, v);
      EXPECT_TRUE(dec.empty());
      Slice sk(buf);
      ASSERT_TRUE(SkipVarint64(&sk)) << v;
      EXPECT_TRUE(sk.empty());
    }
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "alpha");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, "bravo-charlie");
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a, Slice("alpha"));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c, Slice("bravo-charlie"));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283, a standard test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "the quick brown fox";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = r.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(ZipfianTest, InRangeAndSkewed) {
  const uint64_t n = 1000;
  ZipfianGenerator zipf(n, 0.99, 42);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // The hottest key must absorb far more than the uniform share (20).
  int hottest = 0;
  for (const auto& [k, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 200);
}

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Record(i * 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 5050.0);
  EXPECT_GE(h.Percentile(99), 9000.0);
  EXPECT_LE(h.Percentile(50), 7000.0);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 10000u);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  a.Record(10);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
}

}  // namespace
}  // namespace disagg
