#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace disagg {

Histogram::Histogram()
    : buckets_(kNumBuckets, 0),
      count_(0),
      sum_(0),
      min_(std::numeric_limits<uint64_t>::max()),
      max_(0) {}

int Histogram::BucketFor(uint64_t v) {
  if (v < 4) return static_cast<int>(v);
  // Power-of-two bucket with 4 linear sub-buckets for ~25% resolution.
  const int log2 = 63 - std::countl_zero(v);
  const int sub = static_cast<int>((v >> (log2 - 2)) & 3);
  const int b = log2 * 4 + sub;
  return std::min(b, kNumBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(int b) {
  if (b < 4) return static_cast<uint64_t>(b);
  const int log2 = b / 4;
  const int sub = b % 4;
  return (uint64_t{1} << log2) +
         (static_cast<uint64_t>(sub + 1) << (log2 - 2)) - 1;
}

void Histogram::Record(uint64_t value_ns) {
  buckets_[BucketFor(value_ns)]++;
  count_++;
  sum_ += value_ns;
  min_ = std::min(min_, value_ns);
  max_ = std::max(max_, value_ns);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; i++) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<uint64_t>::max();
  max_ = 0;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank =
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  uint64_t seen = 0;
  bool first_occupied = true;
  for (int i = 0; i < kNumBuckets; i++) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (seen > rank) {
      // The upper-bound estimate systematically overshoots inside the first
      // occupied bucket (the true minimum lies in it, below the bound), so
      // report min_ there; everywhere else clamp into the observed
      // [min_, max_] so no percentile ever leaves the sampled range.
      if (first_occupied) return static_cast<double>(min_);
      return static_cast<double>(std::clamp(BucketUpperBound(i), min_, max_));
    }
    first_occupied = false;
  }
  return static_cast<double>(max_);
}

}  // namespace disagg
