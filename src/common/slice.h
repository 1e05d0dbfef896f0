#ifndef DISAGG_COMMON_SLICE_H_
#define DISAGG_COMMON_SLICE_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace disagg {

/// Non-owning view over a byte range, interchangeable with std::string_view
/// but named per the storage-engine idiom. The referenced bytes must outlive
/// the Slice.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* data, size_t size) : data_(data), size_(size) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(std::strlen(s)) {}          // NOLINT
  Slice(std::string_view sv) : data_(sv.data()), size_(sv.size()) {}  // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t i) const { return data_[i]; }

  void remove_prefix(size_t n) {
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view view() const { return std::string_view(data_, size_); }

  int compare(const Slice& other) const {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = std::memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) r = -1;
      else if (size_ > other.size_) r = +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           std::memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

/// Immutable bytes shared by reference: every holder keeps them alive, and
/// none may change them. One redo batch crosses the fabric and lands in
/// several stores as one such buffer.
using SharedBytes = std::shared_ptr<const std::string>;

/// Shared bytes a caller hands along with a request that lies in them, so a
/// handler that keeps the request references them instead of copying.
/// Types that know more about their bytes (a redo batch's record index)
/// extend this; that knowledge holds for a request only when the request is
/// exactly these bytes (`Holds`).
class RequestOwner {
 public:
  explicit RequestOwner(SharedBytes bytes) : bytes_(std::move(bytes)) {}
  RequestOwner(const RequestOwner&) = default;
  RequestOwner(RequestOwner&&) = default;
  RequestOwner& operator=(const RequestOwner&) = default;
  RequestOwner& operator=(RequestOwner&&) = default;
  virtual ~RequestOwner() = default;

  const SharedBytes& bytes() const { return bytes_; }
  /// Whether `request` is these bytes themselves: same address, same size.
  bool Holds(const Slice& request) const {
    return bytes_ != nullptr && bytes_->data() == request.data() &&
           bytes_->size() == request.size();
  }

 private:
  SharedBytes bytes_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

}  // namespace disagg

#endif  // DISAGG_COMMON_SLICE_H_
