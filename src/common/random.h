#ifndef DISAGG_COMMON_RANDOM_H_
#define DISAGG_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace disagg {

/// Fast xorshift64* PRNG. Deterministic given a seed; used everywhere a
/// workload or test needs reproducible randomness.
class Random {
 public:
  explicit Random(uint64_t seed = 0x2545F4914F6CDD1DULL)
      : state_(seed ? seed : 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform in [lo, hi].
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Random printable-ish byte string of the given length.
  std::string RandomString(size_t len) {
    std::string s(len, '\0');
    for (size_t i = 0; i < len; i++) {
      s[i] = static_cast<char>('a' + Uniform(26));
    }
    return s;
  }

 private:
  uint64_t state_;
};

/// Zipfian-distributed generator over [0, n) with skew `theta` (0.99 is the
/// classic YCSB default). Uses the Gray et al. rejection-free construction.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99,
                   uint64_t seed = 0xDEADBEEFULL)
      : n_(n),
        theta_(theta),
        rng_(seed),
        half_pow_theta_(std::pow(0.5, theta)) {
    zetan_ = Zeta(n_, theta_);
    zeta2_ = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next() {
    const double u = rng_.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

 private:
  /// zeta(n, theta) = sum of i^-theta for i in [1, n]: n `pow` calls, so
  /// each (n, theta) is summed once per process and remembered (a YCSB run
  /// builds one generator per client over the same key space).
  static double Zeta(uint64_t n, double theta) {
    static std::mutex mu;
    static std::map<std::pair<uint64_t, double>, double> memo;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = memo.try_emplace({n, theta}, 0.0);
    if (inserted) {
      double sum = 0;
      for (uint64_t i = 1; i <= n; i++) sum += 1.0 / std::pow(i, theta);
      it->second = sum;
    }
    return it->second;
  }

  uint64_t n_;
  double theta_;
  Random rng_;
  double half_pow_theta_;  // 0.5^theta, the bound of the second rank
  double zetan_, zeta2_, alpha_, eta_;
};

}  // namespace disagg

#endif  // DISAGG_COMMON_RANDOM_H_
