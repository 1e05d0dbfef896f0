#ifndef DISAGG_COMMON_RESULT_H_
#define DISAGG_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace disagg {

/// Value-or-error return type (the `StatusOr` idiom). A `Result<T>` holds
/// either a `T` or a non-OK `Status`. Access the value only after checking
/// `ok()`.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or a Status keeps call sites terse:
  ///   return 42;                  // ok result
  ///   return Status::NotFound();  // error result
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const& { return status_; }
  /// Moves the error out of an expiring result (one pointer, no copy).
  Status status() && { return std::move(status_); }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the contained value or `fallback` on error.
  T ValueOr(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;  // OK iff value_ holds a value.
  std::optional<T> value_;
};

/// Assigns the value of a `Result<T>` expression to `lhs` (which may be a
/// declaration, e.g. `DISAGG_ASSIGN_OR_RETURN(GlobalAddr addr, Alloc(8))`),
/// or propagates the error. Usable only in functions returning Status or a
/// Result (Status converts into either).
#define DISAGG_ASSIGN_OR_RETURN(lhs, expr) \
  DISAGG_ASSIGN_OR_RETURN_IMPL_(           \
      DISAGG_MACRO_CONCAT_(_disagg_res_, __LINE__), lhs, expr)

#define DISAGG_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return std::move(tmp).status();      \
  lhs = std::move(tmp).value()

#define DISAGG_MACRO_CONCAT_(a, b) DISAGG_MACRO_CONCAT_IMPL_(a, b)
#define DISAGG_MACRO_CONCAT_IMPL_(a, b) a##b

}  // namespace disagg

#endif  // DISAGG_COMMON_RESULT_H_
