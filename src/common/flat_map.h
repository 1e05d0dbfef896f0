#ifndef DISAGG_COMMON_FLAT_MAP_H_
#define DISAGG_COMMON_FLAT_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace disagg {

/// Hash map from `uint64_t` keys to `V`, for the hot per-row and per-page
/// tables on the transaction path. One flat slot array: open addressing
/// with linear probing, a power-of-two capacity, a multiplicative
/// (Fibonacci) hash, which spreads keys that differ only in their top byte
/// as well as sequential ones, and backward-shift erase, which leaves no
/// tombstones. Once grown to its working size it allocates nothing.
///
/// Pointers returned by `Find`/`TryEmplace` are invalidated by the next
/// `TryEmplace` or `Erase`. There is no iteration: no caller needs an order.
template <typename V>
class FlatMap {
 public:
  size_t size() const { return size_; }

  V* Find(uint64_t key) {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// The value of `key`, value-initialized first if absent; `second` is
  /// true when it was absent.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();  // load <= 3/4
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        size_++;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }
  V& operator[](uint64_t key) { return *TryEmplace(key).first; }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (!slots_[hole].used) return false;
    }
    if (!slots_[hole].used) return false;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically in (hole, j], where it must stay.
    for (size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = V();
    size_--;
    return true;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
    bool used = false;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) *TryEmplace(s.key).first = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace disagg

#endif  // DISAGG_COMMON_FLAT_MAP_H_
