#ifndef DISAGG_COMMON_HISTOGRAM_H_
#define DISAGG_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace disagg {

/// Log-bucketed latency histogram (nanosecond samples). Cheap to record into,
/// supports mean/percentile queries; used by the bench harness to report
/// p50/p99 in simulated time.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value_ns);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  /// p in [0, 100]; returns an upper-bound estimate from the bucket edges,
  /// clamped into [min(), max()] so no percentile undershoots the smallest
  /// or overshoots the largest recorded sample. Monotonic in p.
  double Percentile(double p) const;

 private:
  static constexpr int kNumBuckets = 64 * 4;  // 4 sub-buckets per power of 2.
  static int BucketFor(uint64_t v);
  static uint64_t BucketUpperBound(int b);

  std::vector<uint64_t> buckets_;
  uint64_t count_;
  uint64_t sum_;
  uint64_t min_;
  uint64_t max_;
};

}  // namespace disagg

#endif  // DISAGG_COMMON_HISTOGRAM_H_
